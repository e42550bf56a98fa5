import math
import os

import numpy as np
import pytest

from scanskill.core import q_geodesic_angle
from scanskill.features import GlcmConfig, frame_features
from scanskill.fusion import _interpolate_on_grid
from scanskill.ingest import load_session, validate_session
from scanskill.skill import build_report
from scanskill.synth import (
    ProfileConfig,
    build_session,
    expert_profile,
    extend_with_idle,
    gen_phantom_frame,
    gen_session,
    gen_trajectory,
    novice_profile,
)
from scanskill.synth import _gaussian_blur, _Phantom

from conftest import peak_rss_kib

SMALL = dict(frame_width=48, frame_height=36)


def _step_angles(poses):
    return np.array(
        [q_geodesic_angle(a, b) for a, b in zip(poses.q, poses.q[1:])]
    )


class TestTrajectory:
    def test_deterministic(self):
        a = gen_trajectory(novice_profile(7))
        b = gen_trajectory(novice_profile(7))
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.t_us == pb.t_us
            assert np.array_equal(pa.q, pb.q)

    def test_seeds_differ(self):
        a = gen_trajectory(expert_profile(0))
        b = gen_trajectory(expert_profile(1))
        assert len(a) != len(b) or any(
            not np.array_equal(pa.q, pb.q) for pa, pb in zip(a, b)
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_expert_sample_counts(self, seed):
        poses = gen_trajectory(expert_profile(seed))
        assert 1600 <= len(poses) <= 2500
        assert (len(poses) - 1) % 4 == 0  # span lands on the 25 Hz frame grid

    @pytest.mark.parametrize("seed", range(5))
    def test_novice_sample_counts(self, seed):
        poses = gen_trajectory(novice_profile(seed))
        assert 5000 <= len(poses) <= 10000
        assert (len(poses) - 1) % 4 == 0

    @pytest.mark.parametrize("kind_profile", [expert_profile, novice_profile])
    def test_ends_on_target(self, kind_profile):
        for seed in range(3):
            profile = kind_profile(seed)
            poses = gen_trajectory(profile)
            angle = q_geodesic_angle(poses.q[-1], profile.resolved_target())
            assert angle <= math.radians(2.0)

    def test_expert_speed_unimodal(self):
        steps = _step_angles(gen_trajectory(expert_profile(3)))
        peak = int(np.argmax(steps))
        eps = 1e-12
        assert np.all(np.diff(steps[: peak + 1]) >= -eps)
        assert np.all(np.diff(steps[peak:]) <= eps)

    def test_novice_has_tremor_energy(self):
        # Tremor makes the novice path much longer than the expert's slew.
        expert_steps = _step_angles(gen_trajectory(expert_profile(0)))
        novice_steps = _step_angles(gen_trajectory(novice_profile(0)))
        assert novice_steps.sum() > 3 * expert_steps.sum()

    def test_unit_norm_and_hemisphere(self):
        poses = gen_trajectory(novice_profile(2))
        quats = np.stack([p.q for p in poses])
        np.testing.assert_allclose(np.linalg.norm(quats, axis=1), 1.0, atol=1e-9)
        dots = np.sum(quats[:-1] * quats[1:], axis=1)
        assert np.all(dots >= 0.0)

    def test_bad_profile(self):
        with pytest.raises(ValueError, match="expert|novice"):
            ProfileConfig(kind="intermediate", seed=0)
        with pytest.raises(ValueError, match="rates"):
            ProfileConfig(kind="expert", seed=0, pose_rate_hz=0.0)

    def test_last_pose_timestamp_bound_counts_frame_grid_snap(self):
        # Pose period 2**60 us, frame period 2**62 us: the span snaps to a
        # multiple of 4 pose periods.  Five samples end at 2**62 and fit in
        # int64; a range of 7 snaps up to 9 samples, the last at 2**63.
        rate = 1e6 / 2**60
        poses = gen_trajectory(
            expert_profile(0, pose_rate_hz=rate, frame_rate_hz=rate / 4, n_samples_range=(5, 5))
        )
        assert [p.t_us for p in poses] == [k * 2**60 for k in range(5)]
        with pytest.raises(ValueError, match=r"^pose_rate_hz .* 9 poses past int64"):
            expert_profile(0, pose_rate_hz=rate, frame_rate_hz=rate / 4, n_samples_range=(7, 7))


class TestPhantomFrames:
    TARGET = expert_profile(0).resolved_target()

    def test_aligned_max_contrast(self):
        frame = gen_phantom_frame(self.TARGET, self.TARGET, (64, 48), seed=0)
        px = frame.pixels.astype(int)
        assert px.max() == 240 or px.min() == 16  # 128 +/- 112 at the field extremum
        assert px.max() - px.min() > 150

    def test_misaligned_near_flat(self):
        identity = np.array([1.0, 0, 0, 0])
        frame = gen_phantom_frame(identity, self.TARGET, (64, 48), seed=0)
        px = frame.pixels.astype(int)
        assert 112 <= px.min() and px.max() <= 144  # contrast floor is 16
        tex_far, _ = frame_features(frame.pixels, GlcmConfig())
        aligned = gen_phantom_frame(self.TARGET, self.TARGET, (64, 48), seed=0)
        tex_near, _ = frame_features(aligned.pixels, GlcmConfig())
        assert tex_far.homogeneity >= 0.8
        assert tex_far.homogeneity > tex_near.homogeneity

    def test_variance_monotone_in_alignment(self):
        from scanskill.core import q_from_axis_angle

        variances = []
        for theta in (0.6, 0.3, 0.0):
            q = q_from_axis_angle([0, 1, 0], theta)
            target = np.array([1.0, 0, 0, 0])
            frame = gen_phantom_frame(q, target, (64, 48), seed=4)
            variances.append(frame.pixels.astype(np.float64).var())
        assert variances[0] < variances[1] < variances[2]

    def test_deterministic(self):
        a = gen_phantom_frame(self.TARGET, self.TARGET, (32, 32), seed=9)
        b = gen_phantom_frame(self.TARGET, self.TARGET, (32, 32), seed=9)
        assert np.array_equal(a.pixels, b.pixels)


class TestFrameContrasts:
    """``build_session`` computes every frame's contrast in one vectorised pass;
    ``gen_phantom_frame`` on the slerped frame pose is the oracle."""

    @staticmethod
    def _assert_oracle_contrasts(session, profile):
        frames = session.frames
        frame_q = _interpolate_on_grid(session.poses.t_us, session.poses.q, frames.t_us, "slerp")
        geometry = (profile.frame_width, profile.frame_height)
        target = profile.resolved_target()
        for t, k, q in zip(frames.t_us.tolist(), frames.source.tolist(), frame_q):
            oracle = gen_phantom_frame(q, target, geometry, profile.seed, t_us=t)._source
            assert frames.sources[k].contrast.tobytes() == oracle.contrast.tobytes(), t
            assert frames.sources[k].field is oracle.field
        # One source per distinct float32 contrast, and every source is read.
        contrasts = [s.contrast.tobytes() for s in frames.sources]
        assert len(set(contrasts)) == len(contrasts) < len(frames)
        assert set(frames.source.tolist()) == set(range(len(contrasts)))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("profile_fn", [expert_profile, novice_profile])
    @pytest.mark.parametrize("frame_rate_hz", [25.0, 30.0])  # at 30 Hz frames fall between poses
    def test_contrasts_equal_gen_phantom_frame(self, profile_fn, seed, frame_rate_hz):
        profile = profile_fn(seed, **SMALL, frame_rate_hz=frame_rate_hz)
        session = build_session(profile)
        assert len(session.frames) > 400
        self._assert_oracle_contrasts(session, profile)

    @pytest.mark.parametrize("profile_fn", [expert_profile, novice_profile])
    def test_idle_tail_contrasts_equal_gen_phantom_frame(self, profile_fn):
        profile = profile_fn(5, **SMALL, n_samples_range=(400, 600))
        session = build_session(profile)
        longer = extend_with_idle(session, 3.0)
        assert len(longer.frames) == len(session.frames) + 75
        self._assert_oracle_contrasts(longer, profile)


class TestGaussianBlur:
    """scipy.ndimage, when installed, is the reference for the numpy blur."""

    @pytest.mark.parametrize(
        "shape", [(240, 320), (480, 640), (48, 64), (2, 2), (4, 5), (1, 30), (30, 1)]
    )
    def test_field_blur_equals_gaussian_filter(self, shape):
        ndimage = pytest.importorskip("scipy.ndimage")
        x = np.random.default_rng(shape[0] * 1000 + shape[1]).standard_normal(shape)
        expected = ndimage.gaussian_filter(x, sigma=3.0, mode="reflect")
        assert np.array_equal(_gaussian_blur(x, 3.0, axes=(0, 1)), expected)

    def test_jitter_blur_equals_gaussian_filter1d(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(7)
        # Lines shorter than the 16-sample radius reflect more than once.
        for n in [*range(1, 40), 8513]:
            x = rng.standard_normal((n, 3))
            expected = ndimage.gaussian_filter1d(x, sigma=4.0, axis=0)
            assert np.array_equal(_gaussian_blur(x, 4.0, axes=(0,)), expected), n


class TestSessions:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("profile_fn", [expert_profile, novice_profile])
    def test_generated_sessions_validate_clean(self, profile_fn, seed):
        profile = profile_fn(seed, **SMALL, n_samples_range=(400, 600))
        session = build_session(profile)
        assert validate_session(session).findings == []
        assert session.meta.participant_role == profile.kind
        assert session.frames[-1].t_us == session.poses.t_us[-1]

    def test_persisted_session_reports_identically(self, tmp_path):
        profile = expert_profile(0, **SMALL, n_samples_range=(400, 500))
        session = gen_session(profile, tmp_path / "s0")
        assert (tmp_path / "s0" / "manifest.json").is_file()
        assert (tmp_path / "s0" / "pose.csv").is_file()
        assert (tmp_path / "s0" / "frames" / "index.csv").is_file()
        assert (tmp_path / "s0" / "frames" / "000000.pgm").is_file()
        loaded = load_session(tmp_path / "s0")
        assert validate_session(loaded).findings == []
        assert build_report(loaded) == build_report(session)

    def test_gen_session_deterministic_bytes(self, tmp_path):
        profile = novice_profile(1, **SMALL, n_samples_range=(400, 500))
        gen_session(profile, tmp_path / "a")
        gen_session(profile, tmp_path / "b")
        for rel in ("manifest.json", "pose.csv", "frames/index.csv", "frames/000003.pgm"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_profile_echoed_in_manifest(self, tmp_path):
        profile = expert_profile(4, **SMALL, n_samples_range=(400, 500))
        gen_session(profile, tmp_path / "s")
        loaded = load_session(tmp_path / "s")
        echo = loaded.synthetic_profile
        assert echo["kind"] == "expert" and echo["seed"] == 4
        assert echo["n_samples"] == len(loaded.poses)

    def test_extend_with_idle(self):
        session = build_session(expert_profile(6, **SMALL, n_samples_range=(400, 500)))
        longer = extend_with_idle(session, 2.0)
        assert len(longer.poses) == len(session.poses) + 200
        assert len(longer.frames) == len(session.frames) + 50
        assert np.array_equal(longer.poses.q[-1], session.poses.q[-1])
        # The tail reads the last frame's source; no source is added.
        assert longer.frames.sources == session.frames.sources
        assert set(longer.frames.source[len(session.frames) - 1 :]) == {session.frames.source[-1]}
        last = session.frames[-1].pixels
        tail = list(longer.frames)[len(session.frames) :]
        assert all(np.array_equal(f.pixels, last) for f in tail)
        assert validate_session(longer).findings == []

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_write_memory_does_not_grow_with_frames(self, tmp_path):
        width, height = 640, 480
        synth = (
            "import sys\n"
            "from scanskill.synth import expert_profile, gen_session\n"
            "n = int(sys.argv[2])\n"
            f"gen_session(expert_profile(0, frame_width={width}, frame_height={height},"
            " n_samples_range=(n, n)), sys.argv[1])\n"
        )
        peaks = []
        # 4 poses per frame at the default rates: 101 and 191 frames.
        for n_samples in (401, 761):
            out = tmp_path / f"s{n_samples}"
            peaks.append(peak_rss_kib("-c", synth, str(out), str(n_samples)))
            assert len(list((out / "frames").glob("*.pgm"))) == (n_samples - 1) // 4 + 1
        # A session holding its frames would need 90 more (about 26 MiB).
        assert peaks[1] - peaks[0] <= 3 * width * height // 1024

    def test_built_session_holds_no_pixels(self):
        session = build_session(novice_profile(2, **SMALL, n_samples_range=(400, 500)))
        assert all(type(s) is _Phantom for s in session.frames.sources)
        # Every frame renders from the one shared base field on each access.
        assert len({id(s.field) for s in session.frames.sources}) == 1
        frame = session.frames[-1]
        assert frame.pixels is not frame.pixels
        assert np.array_equal(frame.pixels, frame.pixels)
