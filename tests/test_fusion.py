import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanskill.core import q_from_axis_angle, q_geodesic_angle, q_multiply, q_normalize
from scanskill.fusion import (
    FusedSample,
    ResampleConfig,
    StreamingFuser,
    fuse_streams,
    hemisphere_align,
    resample_poses,
    slerp,
    write_fused_csv,
)
from scanskill.ingest import PoseSample

from conftest import (
    IDENTITY,
    constant_frame,
    make_session,
    random_session,
    random_unit_quat,
    smooth_pose_walk,
    unit_quaternions,
)

Q90Z = q_from_axis_angle([0, 0, 1], math.pi / 2)


class TestHemisphereAlign:
    def test_sign_flips_only(self):
        q = random_unit_quat(np.random.default_rng(3))
        poses = [PoseSample(t, s * q) for t, s in ((0, 1.0), (1, -1.0), (2, 1.0))]
        aligned = hemisphere_align(poses)
        for p in aligned:
            np.testing.assert_allclose(p.q, q)

    def test_idempotent_on_continuous(self):
        rng = np.random.default_rng(4)
        poses = smooth_pose_walk(rng, list(range(0, 100_000, 10_000)))
        again = hemisphere_align(poses)
        for a, b in zip(poses, again):
            assert np.array_equal(a.q, b.q)

    def test_small_angle_flip(self):
        one_deg = math.radians(1.0)
        negated = -q_from_axis_angle([0, 0, 1], one_deg)
        aligned = hemisphere_align(
            [PoseSample(0, IDENTITY.copy()), PoseSample(1, negated)]
        )
        expected = np.array([math.cos(one_deg / 2), 0, 0, math.sin(one_deg / 2)])
        np.testing.assert_allclose(aligned[1].q, expected, atol=1e-15)

    def test_consecutive_dots_nonnegative(self):
        rng = np.random.default_rng(5)
        poses = [PoseSample(t, random_unit_quat(rng)) for t in range(30)]
        aligned = hemisphere_align(poses)
        for a, b in zip(aligned, aligned[1:]):
            assert float(np.dot(a.q, b.q)) >= 0.0


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


class TestResample:
    def test_two_pose_slew(self):
        poses = [PoseSample(0, IDENTITY.copy()), PoseSample(10_000, Q90Z)]
        out = resample_poses(poses, ResampleConfig(delta_t_us=5_000))
        assert [p.t_us for p in out] == [0, 5_000, 10_000]
        for p, angle in zip(out, (0.0, math.pi / 4, math.pi / 2)):
            np.testing.assert_allclose(
                p.q, q_from_axis_angle([0, 0, 1], angle), atol=1e-12
            )

    def test_grid_coincides_with_input(self):
        rng = np.random.default_rng(7)
        poses = smooth_pose_walk(rng, list(range(0, 500_000, 10_000)))
        out = resample_poses(poses, ResampleConfig(delta_t_us=10_000))
        assert [p.t_us for p in out] == [p.t_us for p in poses]
        for a, b in zip(out, poses):
            assert np.max(np.abs(a.q - b.q)) <= 1e-9

    def test_single_pose_rejected(self):
        with pytest.raises(ValueError, match="cannot interpolate"):
            resample_poses([PoseSample(0, IDENTITY.copy())], ResampleConfig())

    def test_nearest_policy_picks_closer(self):
        poses = [PoseSample(0, IDENTITY.copy()), PoseSample(10_000, Q90Z)]
        out = resample_poses(
            poses, ResampleConfig(delta_t_us=4_000, pose_policy="nearest")
        )
        np.testing.assert_allclose(out[1].q, IDENTITY)  # t=4000 closer to 0
        np.testing.assert_allclose(out[2].q, Q90Z)  # t=8000 closer to 10000


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
        assert fused[0].t_us == 420_000  # first pose timestamp inside the overlap

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
            fine = resample_poses(poses, ResampleConfig(delta_t_us=5_000))
            coarse = resample_poses(poses, ResampleConfig(delta_t_us=10_000))
            assert len(fine[::2]) == len(coarse)
            for a, b in zip(fine[::2], coarse):
                assert a.t_us == b.t_us
                assert np.max(np.abs(a.q - b.q)) <= 1e-9

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
        fused = [
            FusedSample(0, IDENTITY.copy(), 0, 5),
            FusedSample(10_000, Q90Z, None, None),
        ]
        path = tmp_path / "fused.csv"
        write_fused_csv(path, fused)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_us,w,x,y,z,frame_idx,staleness_us"
        assert lines[1].startswith("0,1.0,0.0,0.0,0.0,0,5")
        assert lines[2].endswith(",,")


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


def _push_in_time_order(fuser: StreamingFuser, poses, frame_times) -> list[FusedSample]:
    # On equal timestamps the frame goes first.
    events = [(p.t_us, 1, p) for p in poses] + [(t, 0, None) for t in frame_times]
    out: list[FusedSample] = []
    for t_us, is_pose, pose in sorted(events, key=lambda e: (e[0], e[1])):
        out += fuser.push_pose(pose) if is_pose else fuser.push_frame(t_us)
    return out


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
            streamed = _push_in_time_order(
                fuser, session.poses, [f.t_us for f in session.frames]
            )
            streamed += fuser.finish()
            _assert_same_fused(streamed, fuse_streams(session, cfg))

    def test_frame_stall_holds_then_releases_backlog(self):
        cfg = ResampleConfig()  # 10 ms grid, 100 ms staleness window
        rng = np.random.default_rng(9)
        poses = smooth_pose_walk(rng, list(range(0, 2_000_001, 10_000)))
        frame_times = list(range(0, 200_001, 40_000))
        fuser = StreamingFuser(cfg)
        streamed = _push_in_time_order(fuser, poses[:21], frame_times)
        assert streamed[-1].t_us == 100_000  # last frame (200 ms) minus the window
        for pose in poses[21:]:  # frames stall from here on
            assert fuser.push_pose(pose) == []
        assert len(fuser._pose_t) > 180
        late_frame = poses[-1].t_us + cfg.max_frame_staleness_us
        backlog = fuser.push_frame(late_frame)
        assert [s.t_us for s in backlog] == list(range(110_000, 2_000_001, 10_000))
        assert len(fuser._pose_t) == 2 and fuser._frame_t == [late_frame]
        assert fuser.finish() == []
        session = make_session(poses, [constant_frame(t) for t in frame_times + [late_frame]])
        _assert_same_fused(streamed + backlog, fuse_streams(session, cfg))

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
            assert _push_in_time_order(fuser, poses, frame_times) == []
            for _ in range(2):  # a repeated finish() raises again
                with pytest.raises(ValueError, match="streams do not overlap"):
                    fuser.finish()
