import contextlib
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanskill.core import q_from_axis_angle, q_geodesic_angle, q_multiply, q_normalize
from scanskill.fusion import (
    FUSED_HEADER,
    FusedGrid,
    FusedSample,
    ResampleConfig,
    StreamingFuser,
    fuse_streams,
    hemisphere_align,
    slerp,
    write_fused_csv,
)
from scanskill.fusion import _SLERP_MIN_ANGLE, _slerp_pairs
from scanskill.ingest import PoseSample

from conftest import (
    IDENTITY,
    constant_frame,
    fuse_poses,
    make_session,
    random_session,
    random_unit_quat,
    smooth_pose_walk,
    unit_quaternions,
)

Q90Z = q_from_axis_angle([0, 0, 1], math.pi / 2)


def loop_hemisphere_align(q: np.ndarray) -> np.ndarray:
    """The per-row rule that ``hemisphere_align`` vectorises, kept as its reference."""
    out = list(q[:1])
    for row in q[1:]:
        if float(np.dot(out[-1], row)) < 0.0:
            row = -row
        out.append(row)
    return np.array(out).reshape(-1, 4)


def _walk_quats(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.array([p.q for p in smooth_pose_walk(rng, list(range(n)))]).reshape(n, 4)


def _axis_quats(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit quaternions along random axes with random signs.

    The step dot product between two different axes is exactly 0.
    """
    return np.eye(4)[rng.integers(0, 4, n)] * rng.choice([-1.0, 1.0], (n, 1))


def _negate_runs(rng: np.random.Generator, q: np.ndarray) -> np.ndarray:
    negated = np.cumsum(rng.random(len(q)) < 0.2) % 2 == 1
    return np.where(negated[:, None], -q, q)


@st.composite
def quaternion_series(draw):
    kind = draw(st.sampled_from(["random", "axis-aligned", "negated-walk"]))
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return np.array([random_unit_quat(rng) for _ in range(n)]).reshape(n, 4)
    if kind == "axis-aligned":
        return _axis_quats(rng, n)
    return _negate_runs(rng, _walk_quats(rng, n))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and bytes: -0.0 differs from 0.0, as a sign bit."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestHemisphereAlign:
    def test_sign_flips_only(self):
        q = random_unit_quat(np.random.default_rng(3))
        aligned = hemisphere_align(np.stack([q, -q, q]))
        for row in aligned:
            np.testing.assert_allclose(row, q)

    def test_idempotent_on_continuous(self):
        rng = np.random.default_rng(4)
        quats = np.stack([p.q for p in smooth_pose_walk(rng, list(range(0, 100_000, 10_000)))])
        assert np.array_equal(hemisphere_align(quats), quats)

    def test_small_angle_flip(self):
        one_deg = math.radians(1.0)
        negated = -q_from_axis_angle([0, 0, 1], one_deg)
        aligned = hemisphere_align(np.stack([IDENTITY, negated]))
        expected = np.array([math.cos(one_deg / 2), 0, 0, math.sin(one_deg / 2)])
        np.testing.assert_allclose(aligned[1], expected, atol=1e-15)

    def test_consecutive_dots_nonnegative(self):
        rng = np.random.default_rng(5)
        aligned = hemisphere_align(np.stack([random_unit_quat(rng) for _ in range(30)]))
        for a, b in zip(aligned, aligned[1:]):
            assert float(np.dot(a, b)) >= 0.0

    @pytest.mark.parametrize("n", [0, 1])
    def test_zero_and_one_rows(self, n):
        q = -np.eye(4)[:n]
        aligned = hemisphere_align(q)
        assert _same_bits(aligned, q) and aligned is not q

    def test_zero_dot_restarts_at_plus_one(self):
        # Step dots -1, exactly 0, -1: row 1 flips, the zero step leaves row 2
        # as it is, and row 3 flips to match row 2.
        q = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, -1.0, 0, 0]])
        expected = np.array([[1.0, 0, 0, 0], [1.0, -0.0, -0.0, -0.0],
                             [0, 1.0, 0, 0], [-0.0, 1.0, -0.0, -0.0]])
        assert _same_bits(hemisphere_align(q), expected)

    @given(quaternion_series())
    @settings(max_examples=300, deadline=None)
    def test_equals_row_loop_bit_for_bit(self, q):
        before = q.copy()
        aligned = hemisphere_align(q)
        assert _same_bits(aligned, loop_hemisphere_align(q))
        assert _same_bits(hemisphere_align(aligned), aligned)  # idempotent
        assert _same_bits(q, before)  # input untouched


class TestSlerp:
    @given(unit_quaternions(), unit_quaternions())
    @settings(max_examples=50)
    def test_endpoints(self, a, b):
        if float(np.dot(a, b)) < 0:
            b = -b
        np.testing.assert_allclose(slerp(a, b, 0.0), a, atol=1e-9)
        np.testing.assert_allclose(slerp(a, b, 1.0), b, atol=1e-9)

    def test_quarter_turn_bisection(self):
        mid = slerp(IDENTITY, Q90Z, 0.5)
        expected = [math.cos(math.pi / 8), 0, 0, math.sin(math.pi / 8)]
        np.testing.assert_allclose(mid, expected, atol=1e-12)

    def test_coincident_fallback(self):
        q = random_unit_quat(np.random.default_rng(6))
        np.testing.assert_allclose(slerp(q, q, 0.7), q, atol=1e-12)

    def test_u_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            slerp(IDENTITY, Q90Z, 1.5)
        with pytest.raises(ValueError, match="outside"):
            slerp(IDENTITY, Q90Z, -0.1)

    @given(unit_quaternions(), unit_quaternions(), unit_quaternions(), st.floats(0, 1))
    @settings(max_examples=50)
    def test_left_invariance(self, a, b, g, u):
        if float(np.dot(a, b)) < 0:
            b = -b
        direct = q_multiply(g, slerp(a, b, u))
        ga = q_normalize(q_multiply(g, a))
        gb = q_normalize(q_multiply(g, b))
        if float(np.dot(ga, gb)) < 0:
            gb = -gb
        composed = slerp(ga, gb, u)
        # g⊗slerp may land in the opposite hemisphere of the composed result.
        err = min(np.max(np.abs(direct - composed)), np.max(np.abs(direct + composed)))
        assert err <= 1e-9

    @given(unit_quaternions(), unit_quaternions(), st.floats(0, 1))
    @settings(max_examples=50)
    def test_angle_linearity_and_unit_norm(self, a, b, u):
        if float(np.dot(a, b)) < 0:
            b = -b
        out = slerp(a, b, u)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9
        expected = u * q_geodesic_angle(a, b)
        assert abs(q_geodesic_angle(a, out) - expected) <= 1e-9


class TestSlerpPairs:
    """The batch slerp behind every fused grid equals ``slerp`` row by row,
    whichever of its two branches (normalised lerp below ``_SLERP_MIN_ANGLE``,
    the sine formula above) each row takes."""

    @pytest.mark.parametrize("mix", ["all-below", "all-above", "mixed"])
    def test_rows_equal_slerp(self, mix):
        rng = np.random.default_rng(["all-below", "all-above", "mixed"].index(mix))
        for _ in range(20):
            n = int(rng.integers(1, 16))
            a = np.array([random_unit_quat(rng) for _ in range(n)])
            below = {"all-below": np.ones(n, bool), "all-above": np.zeros(n, bool),
                     "mixed": rng.random(n) < 0.5}[mix]
            # A turn by theta is a 4-vector angle of theta / 2.
            theta = np.where(below, rng.uniform(0, _SLERP_MIN_ANGLE, n), rng.uniform(1e-3, 3, n))
            turns = np.array([q_from_axis_angle(rng.standard_normal(3), t) for t in theta])
            b = q_normalize(q_multiply(a, turns))
            b[np.sum(a * b, axis=1) < 0] *= -1.0
            omega = 2.0 * np.arctan2(np.linalg.norm(a - b, axis=1), np.linalg.norm(a + b, axis=1))
            assert np.array_equal(omega < _SLERP_MIN_ANGLE, below)
            u = rng.random(n)
            batch = _slerp_pairs(a, b, u)
            for i in range(n):
                assert batch[i].tobytes() == slerp(a[i], b[i], u[i]).tobytes()


class TestResample:
    """The pose grid of ``fuse_streams`` when the frames span the poses."""

    def test_two_pose_slew(self):
        poses = [PoseSample(0, IDENTITY.copy()), PoseSample(10_000, Q90Z)]
        out = fuse_poses(poses, ResampleConfig(delta_t_us=5_000))
        assert [s.t_us for s in out] == [0, 5_000, 10_000]
        for s, angle in zip(out, (0.0, math.pi / 4, math.pi / 2)):
            np.testing.assert_allclose(
                s.q, q_from_axis_angle([0, 0, 1], angle), atol=1e-12
            )

    def test_grid_coincides_with_input(self):
        rng = np.random.default_rng(7)
        poses = smooth_pose_walk(rng, list(range(0, 500_000, 10_000)))
        out = fuse_poses(poses, ResampleConfig(delta_t_us=10_000))
        assert [s.t_us for s in out] == [p.t_us for p in poses]
        for a, b in zip(out, poses):
            assert np.max(np.abs(a.q - b.q)) <= 1e-9

    def test_single_pose_rejected(self):
        with pytest.raises(ValueError, match="cannot interpolate"):
            fuse_poses([PoseSample(0, IDENTITY.copy())], ResampleConfig())

    def test_nearest_policy_picks_closer(self):
        poses = [PoseSample(0, IDENTITY.copy()), PoseSample(10_000, Q90Z)]
        out = fuse_poses(
            poses, ResampleConfig(delta_t_us=4_000, pose_policy="nearest")
        )
        np.testing.assert_allclose(out.q[1], IDENTITY)  # t=4000 closer to 0
        np.testing.assert_allclose(out.q[2], Q90Z)  # t=8000 closer to 10000


def _uniform_session(pose_span_s=60.0, frame_span_s=60.0):
    pose_times = list(range(0, int(pose_span_s * 1e6) + 1, 10_000))
    frame_times = list(range(0, int(frame_span_s * 1e6) + 1, 40_000))
    poses = [
        PoseSample(t, q_from_axis_angle([0, 0, 1], 1e-7 * (t / 10_000)))
        for t in pose_times
    ]
    frames = [constant_frame(t) for t in frame_times]
    return make_session(poses, frames)


class TestFuseStreams:
    def test_full_overlap_counts_and_staleness(self):
        session = _uniform_session()
        fused = fuse_streams(session, ResampleConfig(delta_t_us=10_000))
        assert len(fused) == 6001
        assert all(s.frame_idx is not None for s in fused)
        assert max(s.frame_staleness_us for s in fused) <= 20_000

    def test_frame_stream_stops_early(self):
        session = _uniform_session(pose_span_s=60.0, frame_span_s=30.0)
        fused = fuse_streams(session, ResampleConfig(delta_t_us=10_000))
        assert len(fused) == 6001  # grid still covers the pose span
        for s in fused:
            if s.t_us > 30_000_000 + 100_000:
                assert s.frame_idx is None
            elif s.t_us <= 30_000_000:
                assert s.frame_idx is not None

    def test_disjoint_streams(self):
        poses = [PoseSample(t, IDENTITY.copy()) for t in range(0, 10_000_001, 10_000)]
        frames = [constant_frame(t) for t in range(20_000_000, 30_000_001, 40_000)]
        with pytest.raises(ValueError, match="streams do not overlap in time"):
            fuse_streams(make_session(poses, frames), ResampleConfig())

    def test_grid_origin_skips_to_frame_start(self):
        poses = [PoseSample(t, IDENTITY.copy()) for t in range(0, 1_000_001, 10_000)]
        frames = [constant_frame(t) for t in range(415_000, 1_000_001, 40_000)]
        fused = fuse_streams(make_session(poses, frames), ResampleConfig())
        assert fused.t_us[0] == 420_000  # first pose timestamp inside the overlap

    def test_grid_exactness_on_random_sessions(self):
        for seed in range(20):
            session = random_session(np.random.default_rng(seed))
            cfg = ResampleConfig(delta_t_us=int(np.random.default_rng(seed + 1000).integers(3_000, 20_000)))
            fused = fuse_streams(session, cfg)
            t = np.array([s.t_us for s in fused])
            assert np.all((t - t[0]) % cfg.delta_t_us == 0)
            assert np.all(np.diff(t) == cfg.delta_t_us)

    def test_nearest_frame_matches_brute_force(self):
        for seed in range(20):
            session = random_session(np.random.default_rng(seed))
            cfg = ResampleConfig(delta_t_us=7_000, max_frame_staleness_us=60_000)
            fused = fuse_streams(session, cfg)
            frame_t = np.array([f.t_us for f in session.frames])
            for s in fused:
                dist = np.abs(frame_t - s.t_us)
                best = int(np.argmin(dist))
                if dist[best] > cfg.max_frame_staleness_us:
                    assert s.frame_idx is None
                else:
                    assert s.frame_idx == best
                    assert s.frame_staleness_us == dist[best]

    def test_latest_not_after_policy(self):
        session = _uniform_session(pose_span_s=1.0, frame_span_s=1.0)
        cfg = ResampleConfig(delta_t_us=10_000, frame_policy="latest_not_after")
        fused = fuse_streams(session, cfg)
        frame_t = np.array([f.t_us for f in session.frames])
        for s in fused:
            eligible = np.nonzero(frame_t <= s.t_us)[0]
            assert s.frame_idx == eligible[-1]
            assert s.frame_staleness_us == s.t_us - frame_t[eligible[-1]]

    def test_refinement_consistency(self):
        # Coarse Δt vs half Δt then subsampling must agree on slerp policy.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            times = [int(t) for t in np.cumsum(rng.integers(15_000, 30_000, size=40))]
            poses = smooth_pose_walk(rng, times)
            fine = fuse_poses(poses, ResampleConfig(delta_t_us=5_000))
            coarse = fuse_poses(poses, ResampleConfig(delta_t_us=10_000))
            assert len(fine.t_us[::2]) == len(coarse)
            assert np.array_equal(fine.t_us[::2], coarse.t_us)
            assert np.max(np.abs(fine.q[::2] - coarse.q)) <= 1e-9

    def test_determinism_bit_identical(self):
        session = random_session(np.random.default_rng(33))
        cfg = ResampleConfig(delta_t_us=9_000)
        f1 = fuse_streams(session, cfg)
        f2 = fuse_streams(session, cfg)
        assert len(f1) == len(f2)
        for a, b in zip(f1, f2):
            assert a.t_us == b.t_us and a.frame_idx == b.frame_idx
            assert np.array_equal(a.q, b.q)

    def test_fused_csv_format(self, tmp_path):
        fused = FusedGrid([0, 10_000], [IDENTITY, Q90Z], [0, -1], [5, 0])
        path = tmp_path / "fused.csv"
        write_fused_csv(path, fused)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_us,w,x,y,z,frame_idx,staleness_us"
        assert lines[1].startswith("0,1.0,0.0,0.0,0.0,0,5")
        assert lines[2].endswith(",,")


class TestFusedGrid:
    COLUMNS = (("t_us", np.int64, ()), ("q", np.float64, (4,)),
               ("frame_idx", np.int64, ()), ("staleness_us", np.int64, ()))

    def test_columns_read_only_with_stated_dtypes_and_shapes(self):
        fused = fuse_streams(_uniform_session(pose_span_s=2.0, frame_span_s=1.0), ResampleConfig())
        assert [f.name for f in dataclasses.fields(fused)] == [c[0] for c in self.COLUMNS]
        for name, dtype, row in self.COLUMNS:
            column = getattr(fused, name)
            assert column.dtype == dtype and column.shape == (201, *row), name
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            fused.t_us = np.arange(201)
        # -1 marks the instants more than 100 ms after the last frame, with staleness 0.
        absent = fused.t_us > 1_100_000
        assert absent.any() and np.all(fused.frame_idx[absent] == -1)
        assert np.all(fused.staleness_us[absent] == 0) and np.all(fused.frame_idx[~absent] >= 0)

    def test_construction_copies_and_checks_shapes(self):
        t, q = np.array([0, 10_000]), np.array([IDENTITY, Q90Z])
        grid = FusedGrid(t, q, [0, -1], [5, 0])
        t[0], q[0, 0] = 99, 0.5
        assert grid.t_us.tolist() == [0, 10_000] and grid.q[0, 0] == 1.0
        with pytest.raises(ValueError, match=r"fused column q has shape \(2, 3\) for 2 instants"):
            FusedGrid([0, 1], np.zeros((2, 3)), [0, 0], [0, 0])
        with pytest.raises(ValueError, match="fused column frame_idx has shape"):
            FusedGrid([0, 1], np.zeros((2, 4)), [0], [0, 0])

    def test_header_from_fields(self):
        names = ["w,x,y,z" if f.name == "q" else f.name for f in dataclasses.fields(FusedGrid)]
        assert FUSED_HEADER == ",".join(names) == "t_us,w,x,y,z,frame_idx,staleness_us"

    def test_views_match_streaming_fuser(self):
        session = _uniform_session(pose_span_s=2.0, frame_span_s=1.0)
        cfg = ResampleConfig()
        fused = fuse_streams(session, cfg)
        fuser = StreamingFuser(cfg)
        _push_in_time_order(fuser, session.poses, [f.t_us for f in session.frames])
        streamed = fuser.finish()
        assert any(s.frame_idx is None for s in streamed)
        _assert_same_fused(streamed, fused)
        assert fused.t_us[-1] == streamed[-1].t_us

    def test_csv_writes_absent_frame_as_empty_fields(self, tmp_path):
        fused = fuse_streams(_uniform_session(pose_span_s=2.0, frame_span_s=1.0), ResampleConfig())
        write_fused_csv(tmp_path / "fused.csv", fused)
        header, *lines = (tmp_path / "fused.csv").read_text().splitlines()
        assert header == FUSED_HEADER and len(lines) == len(fused)
        for line, t, q, i, s in zip(lines, fused.t_us, fused.q, fused.frame_idx,
                                    fused.staleness_us):
            tail = ["", ""] if i < 0 else [str(i), str(s)]
            assert line.split(",") == [str(t), *map(repr, q.tolist()), *tail]


def test_pipeline_builds_no_fused_samples(tmp_path, monkeypatch):
    # The grid stays columns from fuse_streams through every reader;
    # FusedSample is only the per-instant view.  Guards the memory of the
    # columnar grid without a memory test.
    from scanskill.cli import main
    from scanskill.features import (
        GlcmConfig, SmoothnessConfig, compute_feature_table, write_plot_csv,
    )
    from scanskill.ingest import write_session
    from scanskill.skill import report_from_table
    from scanskill.synth import build_session, expert_profile

    made = []
    new = FusedSample.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args[0] if args else kwargs["t_us"])
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(FusedSample, "__new__", counting_new)
    assert FusedSample(7, IDENTITY, None, None).t_us == 7 and made == [7]  # the counter sees one
    made.clear()

    session = build_session(
        expert_profile(3, frame_width=16, frame_height=12, n_samples_range=(1200, 1200))
    )
    cfg = ResampleConfig()
    fused = fuse_streams(session, cfg)
    table = compute_feature_table(session, fused, GlcmConfig())
    report = report_from_table("s", fused, table, cfg, SmoothnessConfig())
    write_fused_csv(tmp_path / "fused.csv", fused)
    write_plot_csv(tmp_path / "plot.csv", fused, table)
    assert len(fused) == report.n_samples == 1201

    write_session(tmp_path / "s", session)
    for command in ("fuse", "report", "export-plot"):
        with contextlib.redirect_stderr(io.StringIO()):
            assert main([command, "--session", str(tmp_path / "s"), "--out", str(tmp_path)]) == 0
    assert made == []


class TestResampleConfig:
    def test_staleness_must_cover_grid_step(self):
        with pytest.raises(ValueError, match="max_frame_staleness_us"):
            ResampleConfig(delta_t_us=10_000, max_frame_staleness_us=5_000)

    def test_bad_policy(self):
        with pytest.raises(ValueError, match="pose_policy"):
            ResampleConfig(pose_policy="cubic")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("delta_t_us", 10000.5),
            ("delta_t_us", True),
            ("max_frame_staleness_us", "100000"),
            ("pose_policy", 1),
            ("frame_policy", ["nearest"]),
        ],
    )
    def test_mistyped_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ResampleConfig(**{field: value})

    def test_values_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="delta_t_us must be <="):
            ResampleConfig(delta_t_us=2**63, max_frame_staleness_us=2**63)
        with pytest.raises(ValueError, match="max_frame_staleness_us must be <="):
            ResampleConfig(max_frame_staleness_us=10**30)
        cfg = ResampleConfig(delta_t_us=2**63 - 1, max_frame_staleness_us=2**63 - 1)
        poses = [PoseSample(t, IDENTITY.copy()) for t in (0, 10_000)]
        fused = fuse_streams(make_session(poses, [constant_frame(0)]), cfg)
        assert [(s.t_us, s.frame_idx) for s in fused] == [(0, 0)]


def _push_in_time_order(fuser: StreamingFuser, poses, frame_times) -> None:
    # On equal timestamps the frame goes first.  No push returns a fused sample.
    events = [(p.t_us, 1, p) for p in poses] + [(t, 0, None) for t in frame_times]
    for t_us, is_pose, pose in sorted(events, key=lambda e: (e[0], e[1])):
        assert (fuser.push_pose(pose) if is_pose else fuser.push_frame(t_us)) == []


def _assert_same_fused(a: list[FusedSample], b: list[FusedSample]) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.t_us == y.t_us
        assert x.frame_idx == y.frame_idx
        assert x.frame_staleness_us == y.frame_staleness_us
        assert np.array_equal(x.q, y.q)


class TestStreamingFuser:
    @pytest.mark.parametrize("frame_policy", ["nearest", "latest_not_after"])
    @pytest.mark.parametrize("pose_policy", ["slerp", "nearest"])
    def test_equals_batch_on_random_sessions(self, pose_policy, frame_policy):
        for seed in range(8):
            session = random_session(np.random.default_rng(seed), n_poses=80, n_frames=25)
            cfg = ResampleConfig(
                delta_t_us=8_000,
                pose_policy=pose_policy,
                frame_policy=frame_policy,
                max_frame_staleness_us=50_000,
            )
            fuser = StreamingFuser(cfg)
            _push_in_time_order(fuser, session.poses, [f.t_us for f in session.frames])
            streamed = fuser.finish()
            _assert_same_fused(streamed, fuse_streams(session, cfg))

    @pytest.mark.parametrize("pose_policy", ["slerp", "nearest"])
    def test_equals_batch_across_half_turns_and_negated_runs(self, pose_policy):
        # Axis-aligned stretches make 180° steps, whose dot product is
        # exactly 0; negated runs make steps whose dot product is negative.
        rng = np.random.default_rng(11)
        quats = _walk_quats(rng, 150)
        quats[30:50] = _axis_quats(rng, 20)
        quats[90:100] = _axis_quats(rng, 10)
        quats = _negate_runs(rng, quats)
        dots = np.sum(quats[:-1] * quats[1:], axis=1)
        assert np.any(dots == 0.0) and np.any(dots < 0.0)
        poses = [PoseSample(k * 10_000, q) for k, q in enumerate(quats)]
        frame_times = list(range(0, 1_500_001, 40_000))
        cfg = ResampleConfig(delta_t_us=7_000, pose_policy=pose_policy)
        fuser = StreamingFuser(cfg)
        _push_in_time_order(fuser, poses, frame_times)
        streamed = fuser.finish()
        batch = fuse_streams(make_session(poses, [constant_frame(t) for t in frame_times]), cfg)
        _assert_same_fused(streamed, batch)
        assert all(_same_bits(a.q, b.q) for a, b in zip(streamed, batch))

    def test_rejects_out_of_order_pushes(self):
        cfg = ResampleConfig()
        poses = [PoseSample(t, IDENTITY.copy()) for t in (0, 10_000, 20_000)]
        fuser = StreamingFuser(cfg)
        _push_in_time_order(fuser, poses[:2], [0, 40_000])
        for t_us in (10_000, 5_000):
            with pytest.raises(ValueError, match="pose timestamps must be strictly increasing"):
                fuser.push_pose(PoseSample(t_us, Q90Z))
        for t_us in (40_000, 30_000):
            with pytest.raises(ValueError, match="frame timestamps must be strictly increasing"):
                fuser.push_frame(t_us)
        # A rejected sample is not kept.
        assert fuser.push_pose(poses[2]) == []
        session = make_session(poses, [constant_frame(t) for t in (0, 40_000)])
        _assert_same_fused(fuser.finish(), fuse_streams(session, cfg))

    def test_finish_needs_two_poses(self):
        for pose_times in ([], [0]):
            fuser = StreamingFuser(ResampleConfig())
            _push_in_time_order(fuser, [PoseSample(t, IDENTITY.copy()) for t in pose_times], [0])
            with pytest.raises(ValueError, match="cannot interpolate"):
                fuser.finish()

    def test_streaming_rejects_disjoint(self):
        cfg = ResampleConfig()
        cases = [
            ([0, 10_000], [20_000_000]),  # frames after every pose
            (list(range(1_000_000, 1_100_001, 10_000)), list(range(0, 200_001, 40_000))),
        ]
        for pose_times, frame_times in cases:
            poses = [PoseSample(t, IDENTITY.copy()) for t in pose_times]
            frames = [constant_frame(t) for t in frame_times]
            with pytest.raises(ValueError, match="streams do not overlap"):
                fuse_streams(make_session(poses, frames), cfg)
            fuser = StreamingFuser(cfg)
            _push_in_time_order(fuser, poses, frame_times)
            for _ in range(2):  # a repeated finish() raises again
                with pytest.raises(ValueError, match="streams do not overlap"):
                    fuser.finish()
