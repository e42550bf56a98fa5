import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanskill.core import q_multiply
from scanskill.features import GlcmConfig, SmoothnessConfig
from scanskill.fusion import ResampleConfig
from scanskill.ingest import Frames, PoseSample, Poses, Session
from scanskill.skill import (
    ClassifierThresholds,
    SkillReport,
    build_report,
    calibrate_thresholds,
    classify,
    compare,
    report_document,
    report_from_document,
    write_report,
)
from scanskill.synth import build_session, expert_profile, extend_with_idle, novice_profile

from conftest import IDENTITY, constant_frame, make_session, unit_quaternions


def _mk_report(n_samples=2000, sparc_val=-1.5, session_id="r", delta_t_us=10_000):
    return SkillReport(
        session_id=session_id,
        n_samples=n_samples,
        duration_s=(n_samples - 1) * delta_t_us / 1e6,
        delta_t_us=delta_t_us,
        path_length_rad=1.0,
        ldlj=-8.0,
        sparc=sparc_val,
        mean_asm=0.3,
        mean_energy=0.55,
        mean_homogeneity=0.9,
        texture_stability=0.05,
    )


@pytest.fixture(scope="module")
def tiny_report(tiny_expert_session):
    return build_report(tiny_expert_session)


class TestBuildReport:
    def test_fields_consistent(self, tiny_expert_session, tiny_report):
        r = tiny_report
        assert r.n_samples == len(tiny_expert_session.poses)
        assert abs(r.duration_s - (r.n_samples - 1) * r.delta_t_us / 1e6) <= 1e-9
        assert r.flags == ()
        assert r.sparc is not None and r.sparc < 0
        assert r.ldlj is not None
        for v in (r.mean_asm, r.mean_energy, r.mean_homogeneity):
            assert 0.0 <= v <= 1.0
        assert r.texture_stability >= 0.0
        assert abs(r.mean_energy**2 - r.mean_asm) > 0  # energy is sqrt of per-frame asm

    def test_deterministic(self, tiny_expert_session, tiny_report):
        again = build_report(tiny_expert_session)
        assert again == tiny_report

    def test_static_session_flags_no_motion(self):
        poses = [PoseSample(t, IDENTITY.copy()) for t in range(0, 400_000, 10_000)]
        frames = [constant_frame(t) for t in range(0, 400_000, 40_000)]
        r = build_report(make_session(poses, frames))
        assert r.path_length_rad == 0.0
        assert r.sparc is None and r.ldlj is None
        assert any("no motion" in f for f in r.flags)
        thresholds = ClassifierThresholds(3000, -3.0)
        assert classify(r, thresholds) == "indeterminate"

    def test_idle_tail_monotone(self):
        session = build_session(
            expert_profile(2, frame_width=32, frame_height=24, n_samples_range=(400, 500))
        )
        base = build_report(session)
        extended = build_report(extend_with_idle(session, 10.0))
        assert extended.n_samples > base.n_samples
        assert extended.sparc <= base.sparc


def _small_session(kind: str, seed: int) -> Session:
    make = expert_profile if kind == "expert" else novice_profile
    return build_session(make(seed, frame_width=32, frame_height=24, n_samples_range=(400, 500)))


class TestSessionInvariance:
    """Whole-session properties of ``build_report``."""

    # g ⊗ q rounds each quaternion component once, about 1e-16 relative.  The
    # speed differences orientations 10 ms apart, and LDLJ differentiates the
    # speed twice more; on these sessions that grows the rounding to about
    # 1e-13 relative at most (on ldlj).  1e-9 relative leaves ample margin and
    # still fails on any real dependence of the motion metrics on the world frame.
    ROTATION_REL_TOL = 1e-9
    MOTION_FIELDS = ("path_length_rad", "sparc", "ldlj")

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["expert", "novice"]),
        seed=st.integers(0, 1000),
        shift_us=st.sampled_from([1, 123_457, 10**12]),
    )
    def test_time_shift_gives_equal_report(self, kind, seed, shift_us):
        session = _small_session(kind, seed)
        shifted = Session(
            session.meta,
            Poses(session.poses.t_us + shift_us, session.poses.q),
            Frames(session.frames.t_us + shift_us, session.frames.source, session.frames.sources),
            session.synthetic_profile,
        )
        assert build_report(shifted) == build_report(session)

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["expert", "novice"]), seed=st.integers(0, 1000),
           g=unit_quaternions())
    def test_world_rotation_keeps_metrics(self, kind, seed, g):
        session = _small_session(kind, seed)
        rotated = Session(
            session.meta,
            Poses(session.poses.t_us, q_multiply(g, session.poses.q)),
            session.frames,
            session.synthetic_profile,
        )
        base, turned = build_report(session), build_report(rotated)
        for name in self.MOTION_FIELDS:
            assert getattr(turned, name) == pytest.approx(
                getattr(base, name), rel=self.ROTATION_REL_TOL
            ), name
        # Texture fields, counts and flags: exactly equal.
        unmoved = {name: getattr(base, name) for name in self.MOTION_FIELDS}
        assert dataclasses.replace(turned, **unmoved) == base


class TestCompare:
    def test_self_comparison_ties(self, tiny_report):
        c = compare(tiny_report, tiny_report)
        assert c.smoother == "tie" and c.quicker == "tie"
        assert all(v == 0 for v in c.deltas.values())

    def test_orderings(self):
        a = _mk_report(n_samples=1800, sparc_val=-1.4, session_id="a")
        b = _mk_report(n_samples=7000, sparc_val=-5.0, session_id="b")
        c = compare(a, b)
        assert c.quicker == "a" and c.smoother == "a"
        assert c.deltas["n_samples"] == 1800 - 7000
        assert abs(c.deltas["sparc"] - (-1.4 + 5.0)) <= 1e-12

    def test_incomparable_grids(self):
        a = _mk_report(delta_t_us=10_000)
        b = _mk_report(delta_t_us=20_000)
        with pytest.raises(ValueError, match="incomparable grids"):
            compare(a, b)

    def test_none_metric_gives_none_delta_and_tie(self):
        a = _mk_report()
        b = SkillReport(**{**a.__dict__, "sparc": None, "session_id": "b"})
        c = compare(a, b)
        assert c.deltas["sparc"] is None
        assert c.smoother == "tie"


class TestClassify:
    THRESH = ClassifierThresholds(max_expert_samples=3500, min_expert_sparc=-3.0)

    def test_expert_like(self):
        assert classify(_mk_report(2000, -1.5), self.THRESH) == "expert_like"

    def test_novice_like(self):
        assert classify(_mk_report(7000, -5.5), self.THRESH) == "novice_like"

    @pytest.mark.parametrize("n,s", [(2000, -5.5), (7000, -1.5), (3500, -3.0)])
    def test_indeterminate_mixed(self, n, s):
        label = classify(_mk_report(n, s), self.THRESH)
        assert label in ("expert_like", "indeterminate")
        if n > 3500 or s < -3.0:
            assert label == "indeterminate"

    @given(
        st.integers(100, 10_000),
        st.floats(-10, 0),
        st.integers(0, 5_000),
        st.floats(0, 5),
    )
    @settings(max_examples=100)
    def test_monotone(self, n, s, dn, ds):
        order = {"novice_like": 0, "indeterminate": 1, "expert_like": 2}
        before = classify(_mk_report(n, s), self.THRESH)
        after = classify(_mk_report(max(2, n - dn), s + ds), self.THRESH)
        assert order[after] >= order[before]


class TestCalibration:
    def test_midpoints(self):
        experts = [_mk_report(1700, -1.2), _mk_report(2400, -1.6)]
        novices = [_mk_report(5200, -4.0), _mk_report(9800, -6.0)]
        th = calibrate_thresholds(experts, novices)
        assert th.max_expert_samples == (2400 + 5200) // 2
        assert abs(th.min_expert_sparc - (-1.6 + -4.0) / 2) <= 1e-12

    def test_requires_both_classes(self):
        with pytest.raises(ValueError, match="both classes"):
            calibrate_thresholds([], [_mk_report()])


class TestReportDocument:
    def test_round_trip(self, tiny_report):
        doc = report_document(
            tiny_report, ResampleConfig(), GlcmConfig(), SmoothnessConfig()
        )
        assert doc["config"]["delta_t_us"] == 10_000
        assert doc["config"]["glcm"]["levels"] == 32
        back = report_from_document(doc)
        assert back == tiny_report

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            report_from_document({"session_id": "x"})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_metric_not_written(self, tiny_report, tmp_path, value):
        doc = report_document(tiny_report, ResampleConfig(), GlcmConfig(), SmoothnessConfig())
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_report(path, {**doc, "ldlj": value})
        assert not path.exists()
