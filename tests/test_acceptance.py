"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criterion 1 builds 40 full sessions at 320x240 and is the bulk
of the runtime (budget: 120 s).
"""

import json
import math
import time

import numpy as np
import pytest

from scanskill.core import q_geodesic_angle, q_multiply, q_normalize
from scanskill.features import (
    GlcmConfig,
    SmoothnessConfig,
    angular_velocity,
    compute_feature_table,
    frame_features,
    glcm,
    glcm_counts,
    log_dimensionless_jerk,
    path_length,
    smooth_speed,
    sparc,
    texture_features,
)
from scanskill.fusion import ResampleConfig, fuse_streams, slerp
from scanskill.ingest import Poses, load_session, validate_session, write_session
from scanskill.skill import build_report, calibrate_thresholds, classify
from scanskill.synth import (
    build_session,
    expert_profile,
    extend_with_idle,
    gen_trajectory,
    novice_profile,
)

from conftest import (
    constant_frame,
    fuse_poses,
    make_session,
    random_session,
    random_unit_quat,
    smooth_pose_walk,
)
from test_features import naive_glcm_counts

ACCEPT_GEOMETRY = dict(frame_width=320, frame_height=240)


def _passed(k: int, name: str) -> None:
    print(f"\nACCEPTANCE {k} ({name}): PASS")


# -----------------------------------------------------------------------------
# 1. expert/novice separation on calibrated synthetic sessions

@pytest.fixture(scope="module")
def separation():
    def batch(profile_fn, seeds):
        return [
            build_report(build_session(profile_fn(seed, **ACCEPT_GEOMETRY)))
            for seed in seeds
        ]

    t0 = time.perf_counter()
    cal_experts = batch(expert_profile, range(100, 110))
    cal_novices = batch(novice_profile, range(100, 110))
    experts = batch(expert_profile, range(10))
    novices = batch(novice_profile, range(10))
    elapsed = time.perf_counter() - t0
    return cal_experts, cal_novices, experts, novices, elapsed


def test_acceptance_1_expert_novice_separation(separation):
    cal_experts, cal_novices, experts, novices, elapsed = separation

    for r in experts:
        assert 1600 <= r.n_samples <= 2500, r.session_id
    for r in novices:
        assert 5000 <= r.n_samples <= 10000, r.session_id

    thresholds = calibrate_thresholds(cal_experts, cal_novices)
    for r in experts:
        assert classify(r, thresholds) == "expert_like", (r.session_id, thresholds)
    for r in novices:
        assert classify(r, thresholds) == "novice_like", (r.session_id, thresholds)

    for re in experts:
        for rn in novices:
            assert re.sparc > rn.sparc, (re.session_id, rn.session_id)

    assert elapsed <= 120.0, f"separation batch took {elapsed:.1f}s (budget 120s)"
    _passed(1, f"expert/novice separation, {elapsed:.1f}s for 40 sessions")


# -----------------------------------------------------------------------------
# 2. GLCM oracle equivalence

def test_acceptance_2_glcm_oracle_equivalence():
    rng = np.random.default_rng(2024)
    offsets = ((1, 0), (0, 1), (1, 1), (-1, 1))
    for _ in range(100):
        img = rng.integers(0, 8, (16, 16))
        for offset in offsets:
            naive = naive_glcm_counts(img, 8, offset)
            counts = glcm_counts(img, 8, offset)
            assert np.array_equal(counts, naive)
            for symmetric in (True, False):
                want_counts = naive + naive.T if symmetric else naive
                P = glcm(img, 8, offset, symmetric)
                np.testing.assert_array_equal(
                    P * want_counts.sum(), want_counts.astype(np.float64)
                )
                got = texture_features(P)
                ref_p = want_counts / want_counts.sum()
                idx = np.arange(8)
                weights = 1.0 / (1.0 + (idx[:, None] - idx[None, :]) ** 2)
                assert abs(got.asm - np.sum(ref_p * ref_p)) <= 1e-12
                assert abs(got.energy - math.sqrt(np.sum(ref_p * ref_p))) <= 1e-12
                assert abs(got.homogeneity - np.sum(ref_p * weights)) <= 1e-12
    _passed(2, "GLCM oracle equivalence, 100 images x 4 offsets x 2 modes")


# -----------------------------------------------------------------------------
# 3. texture degenerate cases

def test_acceptance_3_texture_degenerate_cases():
    constant = np.full((240, 320), 173, dtype=np.uint8)
    tex, hist = frame_features(constant, GlcmConfig())
    assert tex.asm == 1.0 and tex.energy == 1.0 and tex.homogeneity == 1.0
    assert hist.entropy == 0.0
    for levels in (8, 16, 32, 64):
        uniform = np.full((levels, levels), 1.0 / levels**2)
        f = texture_features(uniform)
        assert abs(f.energy - 1.0 / levels) <= 1e-12
    _passed(3, "texture degenerate cases exact")


# -----------------------------------------------------------------------------
# 4. SLERP suite

def test_acceptance_4_slerp_suite():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        a = random_unit_quat(rng)
        b = random_unit_quat(rng)
        if float(np.dot(a, b)) < 0:
            b = -b
        u = float(rng.uniform())

        out = slerp(a, b, u)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9
        assert np.max(np.abs(slerp(a, b, 0.0) - a)) <= 1e-9
        assert np.max(np.abs(slerp(a, b, 1.0) - b)) <= 1e-9
        assert abs(q_geodesic_angle(a, out) - u * q_geodesic_angle(a, b)) <= 1e-9

        g = random_unit_quat(rng)
        direct = q_multiply(g, out)
        ga, gb = q_normalize(q_multiply(g, a)), q_normalize(q_multiply(g, b))
        if float(np.dot(ga, gb)) < 0:
            gb = -gb
        composed = slerp(ga, gb, u)
        err = min(np.max(np.abs(direct - composed)), np.max(np.abs(direct + composed)))
        assert err <= 1e-9
    _passed(4, "SLERP suite, 1000 seeded pairs")


# -----------------------------------------------------------------------------
# 5. resampler grid properties

def test_acceptance_5_resampler_grid_properties():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        session = random_session(rng, n_poses=70, n_frames=22)
        cfg = ResampleConfig(delta_t_us=8_000, max_frame_staleness_us=64_000)

        fused = fuse_streams(session, cfg)
        t = np.array([s.t_us for s in fused])
        assert np.all((t - t[0]) % cfg.delta_t_us == 0)
        assert np.all(np.diff(t) == cfg.delta_t_us)

        frame_t = np.array([f.t_us for f in session.frames])
        for s in fused:
            dist = np.abs(frame_t - s.t_us)
            best = int(np.argmin(dist))
            if dist[best] > cfg.max_frame_staleness_us:
                assert s.frame_idx is None
            else:
                assert s.frame_idx == best and s.frame_staleness_us == dist[best]

        fine = fuse_poses(session.poses, ResampleConfig(delta_t_us=8_000))
        coarse = fuse_poses(session.poses, ResampleConfig(delta_t_us=16_000))
        assert len(fine.t_us[::2]) == len(coarse)
        assert np.array_equal(fine.t_us[::2], coarse.t_us)
        assert np.max(np.abs(fine.q[::2] - coarse.q)) <= 1e-9
    _passed(5, "resampler grid properties, 50 seeded sessions")


# -----------------------------------------------------------------------------
# 6. motion-metric invariances

def _motion_session(profile):
    poses = gen_trajectory(profile)
    frames = [constant_frame(t) for t in range(0, int(poses.t_us[-1]) + 1, 40_000)]
    return make_session(poses, frames, role=profile.kind, session_id=profile.kind)


def _session_sparc(session):
    cfg = ResampleConfig()
    sm = SmoothnessConfig()
    fused = fuse_streams(session, cfg)
    motion = angular_velocity(fused, cfg.delta_t_us)
    speed = smooth_speed(motion.speed, sm.speed_smoothing_window)
    return sparc(speed, 1e6 / cfg.delta_t_us, sm.sparc_cutoff_hz, sm.sparc_amplitude_threshold)


def test_acceptance_6_motion_metric_invariances():
    rng = np.random.default_rng(6)

    def grid(qs):
        return Poses(10_000 * np.arange(len(qs)), qs)

    # Left-invariance and time-reversal of angular velocity.
    for _ in range(10):
        poses = smooth_pose_walk(rng, list(range(0, 400_000, 10_000)))
        quats = [p.q for p in poses]
        g = random_unit_quat(rng)
        rotated = [q_normalize(q_multiply(g, q)) for q in quats]
        m = angular_velocity(grid(quats), 10_000)
        m_rot = angular_velocity(grid(rotated), 10_000)
        m_rev = angular_velocity(grid(quats[::-1]), 10_000)
        assert np.max(np.abs(m.omega - m_rot.omega)) <= 1e-9
        assert np.max(np.abs(m_rev.omega + m.omega[::-1])) <= 1e-9
        assert abs(path_length(grid(quats)) - path_length(grid(quats[::-1]))) <= 1e-9

    # Amplitude invariance of both smoothness metrics.
    base_session = _motion_session(expert_profile(0))
    motion = angular_velocity(fuse_streams(base_session, ResampleConfig()), 10_000)
    speed = smooth_speed(motion.speed, 5)
    s0, l0 = sparc(speed, 100.0), log_dimensionless_jerk(speed, 0.01)
    for c in (0.5, 2.0, 10.0):
        assert abs(sparc(c * speed, 100.0) - s0) <= 1e-9
        assert abs(log_dimensionless_jerk(c * speed, 0.01) - l0) <= 1e-9

    # Idle tails never raise SPARC (20 seeded sessions, 10 per class).
    for profile_fn in (expert_profile, novice_profile):
        for seed in range(10):
            session = _motion_session(profile_fn(seed))
            before = _session_sparc(session)
            after = _session_sparc(extend_with_idle(session, 10.0))
            assert after <= before + 1e-12, (profile_fn.__name__, seed)
    _passed(6, "motion-metric invariances")


# -----------------------------------------------------------------------------
# 7. real-time throughput

def test_acceptance_7_realtime_throughput():
    profile = expert_profile(0, n_samples_range=(6001, 6001))  # 60 s at 100 Hz
    session = build_session(profile)  # 640x480 frames at 25 Hz
    assert len(session.frames) == 1501

    t0 = time.perf_counter()
    fused = fuse_streams(session, ResampleConfig())
    table = compute_feature_table(session, fused, GlcmConfig())
    elapsed = time.perf_counter() - t0

    assert len(fused) == 6001 and len(table) == 6001
    assert elapsed <= 60.0, f"fuse+features took {elapsed:.1f}s for a 60s session"
    _passed(7, f"real-time throughput, 60s of 640x480@25fps in {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 8. persistence round trip

def test_acceptance_8_persistence_round_trip(tmp_path):
    session = build_session(expert_profile(0, frame_width=160, frame_height=120))
    out = tmp_path / "session"
    out.mkdir()
    write_session(out, session)
    loaded = load_session(out)

    assert validate_session(loaded).findings == []
    for a, b in zip(loaded.poses, session.poses):
        assert a.t_us == b.t_us and np.array_equal(a.q, b.q)
    for fa, fb in zip(loaded.frames, session.frames):
        assert fa.t_us == fb.t_us and np.array_equal(fa.pixels, fb.pixels)

    in_memory = build_report(session)
    from_disk = build_report(loaded)
    assert from_disk == in_memory  # float fields compare bit-for-bit

    cfg = (ResampleConfig(), GlcmConfig(), SmoothnessConfig())
    from scanskill.skill import report_document

    doc_a = json.dumps(report_document(in_memory, *cfg))
    doc_b = json.dumps(report_document(from_disk, *cfg))
    assert doc_a == doc_b
    _passed(8, "persistence round trip bit-for-bit")
