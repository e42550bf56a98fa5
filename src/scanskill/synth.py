"""Deterministic synthetic sessions: scripted probe trajectories plus
phantom-like image sequences.

Two motion profiles are generated.  The *expert* profile is one
minimum-jerk slew (quintic time-scaling of the geodesic from the start
orientation to the target) after a short idle lead-in, with no tremor.  The
*novice* profile wanders through seeded random waypoints with pauses between
piecewise minimum-jerk slews, plus sinusoidal-with-jitter tremor, before
settling on the target.  Session lengths are drawn from calibrated sample
ranges: expert 1600-2500 grid samples, novice 5000-10000 (at the default
rates, where one fused grid sample equals one pose period).

Frames are procedural: a fixed seeded smooth-noise field whose rendered
contrast rises as the probe orientation approaches the target, standing in
for the sharpening of the sought anatomical view.  No attempt at anatomical
realism is made; the point is texture whose statistics track alignment.

Everything is a pure function of (profile, seed).  Random draws use
``numpy.random.default_rng`` seeded with documented stream labels, and each
generator documents its draw order, so runs are bit-reproducible within this
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from ._scratch import scratch
from .core import SessionMeta, q_from_axis_angle, q_geodesic_angle, q_multiply, q_normalize
from .fusion import _interpolate_on_grid, _slerp_pairs, hemisphere_align
from .ingest import Frame, PoseSample, Session, write_session

__all__ = [
    "ProfileConfig",
    "build_session",
    "expert_profile",
    "extend_with_idle",
    "gen_phantom_frame",
    "gen_session",
    "gen_trajectory",
    "novice_profile",
]

EXPERT_SAMPLE_RANGE = (1600, 2500)
NOVICE_SAMPLE_RANGE = (5000, 10000)
EXPERT_TREMOR_AMP_RAD = 0.0
NOVICE_TREMOR_AMP_RAD = 0.03

# Orientation mis-alignment scale of the phantom renderer: image contrast is
# 16 + 96 * exp(-(theta/sigma)^2) with theta the geodesic angle to target.
ALIGNMENT_SIGMA_RAD = 0.2
_CONTRAST_BASE = 16.0
_CONTRAST_GAIN = 96.0

# Default target orientation: 1.2 rad about the (1,1,1) diagonal, far enough
# from the identity start that initial frames render near-flat.
_DEFAULT_TARGET_AXIS = (1.0, 1.0, 1.0)
_DEFAULT_TARGET_ANGLE = 1.2

# Labels for independent rng streams (first entry of the seed sequence).
_STREAM_TRAJECTORY = 0
_STREAM_FIELD = 1
_KIND_CODE = {"expert": 0, "novice": 1}

# Sessions end with the probe held still on the target: tremor fades out
# over the taper, then a settle margin of exact rest.  Ending truly at rest
# keeps the tail of the speed profile identically zero, which downstream
# smoothness metrics rely on (extending a finished session with more idle
# time must not perturb the junction).
_SETTLE_S = 0.8
_TREMOR_TAPER_S = 1.0
_TREMOR_JITTER_GAIN = 0.3
_TREMOR_JITTER_SIGMA_SAMPLES = 4.0


def default_target_orientation() -> np.ndarray:
    return q_from_axis_angle(_DEFAULT_TARGET_AXIS, _DEFAULT_TARGET_ANGLE)


@dataclass(frozen=True)
class ProfileConfig:
    """Generator parameters; None fields resolve to per-kind defaults."""

    kind: str
    seed: int
    pose_rate_hz: float = 100.0
    frame_rate_hz: float = 25.0
    frame_width: int = 640
    frame_height: int = 480
    n_samples_range: tuple[int, int] | None = None
    tremor_amp_rad: float | None = None
    tremor_hz: float = 4.0
    n_segments: int | None = None  # expert: 1; novice: drawn uniform 6..12
    target_orientation: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODE:
            raise ValueError("profile kind must be expert|novice")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (self.pose_rate_hz > 0 and self.frame_rate_hz > 0):
            raise ValueError("rates must be positive")
        if self.frame_width <= 0 or self.frame_height <= 0:
            raise ValueError("frame geometry must be positive")
        lo, hi = self.resolved_samples_range()
        if not (0 < lo <= hi):
            raise ValueError("n_samples_range must be a non-empty positive interval")
        if self.resolved_tremor_amp() < 0:
            raise ValueError("tremor_amp_rad must be >= 0")

    def resolved_samples_range(self) -> tuple[int, int]:
        if self.n_samples_range is not None:
            return self.n_samples_range
        return EXPERT_SAMPLE_RANGE if self.kind == "expert" else NOVICE_SAMPLE_RANGE

    def resolved_tremor_amp(self) -> float:
        if self.tremor_amp_rad is not None:
            return self.tremor_amp_rad
        return EXPERT_TREMOR_AMP_RAD if self.kind == "expert" else NOVICE_TREMOR_AMP_RAD

    def resolved_target(self) -> np.ndarray:
        if self.target_orientation is not None:
            return q_normalize(np.array(self.target_orientation, dtype=np.float64))
        return default_target_orientation()


def expert_profile(seed: int, **overrides) -> ProfileConfig:
    return ProfileConfig(kind="expert", seed=seed, **overrides)


def novice_profile(seed: int, **overrides) -> ProfileConfig:
    return ProfileConfig(kind="novice", seed=seed, **overrides)


# ---------------------------------------------------------------------------
# trajectory generation

def _quintic(tau: np.ndarray) -> np.ndarray:
    """Minimum-jerk time scaling: s(0)=0, s(1)=1, zero end velocity/accel."""
    return tau**3 * (10.0 + tau * (-15.0 + 6.0 * tau))


def _slerp_fixed(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Geodesic from a to b evaluated at fractions s (flips b into a's hemisphere)."""
    if float(np.dot(a, b)) < 0.0:
        b = -b
    n = len(s)
    return _slerp_pairs(np.broadcast_to(a, (n, 4)), np.broadcast_to(b, (n, 4)), s)


def gen_trajectory(profile: ProfileConfig) -> list[PoseSample]:
    """Seed-deterministic orientation stream for one synthetic session.

    Draw order (rng seeded with [0, kind_code, seed]): total sample count;
    then for experts the idle-lead-in fraction; for novices the segment
    count (when not configured), per-waypoint perturbation axis and angle,
    pause and slew duration weights, tremor phases, tremor jitter noise.
    Both profiles end exactly on the target orientation.
    """
    rng = np.random.default_rng([_STREAM_TRAJECTORY, _KIND_CODE[profile.kind], profile.seed])
    lo, hi = profile.resolved_samples_range()
    n_total = int(rng.integers(lo, hi + 1))
    n_total = _snap_to_frame_grid(n_total, lo, profile)

    period_us = round(1e6 / profile.pose_rate_hz)
    target = profile.resolved_target()
    identity = np.array([1.0, 0.0, 0.0, 0.0])

    n_settle = max(1, round(_SETTLE_S * profile.pose_rate_hz))
    if profile.kind == "expert":
        idle_frac = float(rng.uniform(0.02, 0.05))
        n_idle = max(1, int(round(idle_frac * n_total)))
        n_slew = n_total - n_idle - n_settle
        if n_slew < 2:
            raise ValueError("n_samples_range too small for an expert slew")
        tau = np.arange(1, n_slew + 1) / n_slew
        quats = np.concatenate(
            [
                np.tile(identity, (n_idle, 1)),
                _slerp_fixed(identity, target, _quintic(tau)),
                np.tile(target, (n_settle, 1)),
            ]
        )
    else:
        quats = _novice_orientations(rng, profile, n_total, n_settle, identity, target)

    amp = profile.resolved_tremor_amp()
    if amp > 0.0:
        tremor = _tremor_quats(rng, profile, n_total, amp)
        active = tremor[:, 0] != 1.0  # keep rest samples bit-exactly at rest
        quats[active] = q_normalize(q_multiply(quats[active], tremor[active]))

    t_us = period_us * np.arange(n_total, dtype=np.int64)
    poses = [PoseSample(int(t), q) for t, q in zip(t_us, quats)]
    return hemisphere_align(poses)


def _snap_to_frame_grid(n: int, lo: int, profile: ProfileConfig) -> int:
    # Keep the pose span an exact multiple of the frame period so the fused
    # grid (at delta_t = pose period) has exactly n samples.
    period_us = round(1e6 / profile.pose_rate_hz)
    frame_period_us = round(1e6 / profile.frame_rate_hz)
    if frame_period_us % period_us != 0:
        return n
    m = frame_period_us // period_us
    snapped = ((n - 1) // m) * m + 1
    if snapped < lo:
        snapped += m
    return snapped


def _novice_orientations(
    rng: np.random.Generator,
    profile: ProfileConfig,
    n_total: int,
    n_settle: int,
    start: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    k = profile.n_segments if profile.n_segments is not None else int(rng.integers(6, 13))
    if k < 1:
        raise ValueError("n_segments must be >= 1")

    waypoints = [start]
    for i in range(1, k + 1):
        base = _slerp_fixed(start, target, np.array([i / k]))[0]
        if i < k:
            axis = rng.standard_normal(3)
            angle = float(rng.uniform(0.15, 0.5))
            waypoints.append(q_normalize(q_multiply(q_from_axis_angle(axis, angle), base)))
        else:
            waypoints.append(target)

    # Chunk layout: pause, slew, pause, slew, ..., slew, pause (2k+1 chunks);
    # the settle margin is reserved up front and appended to the final pause.
    pause_w = rng.uniform(0.3, 1.0, k + 1)
    slew_w = rng.uniform(1.0, 2.0, k)
    weights = np.empty(2 * k + 1)
    weights[0::2] = pause_w
    weights[1::2] = slew_w
    budget = n_total - 1 - n_settle
    if budget < 2 * k + 1:
        raise ValueError("n_samples_range too small for the segment count")
    bounds = np.floor(np.cumsum(weights / weights.sum()) * budget).astype(int)
    bounds[-1] = budget
    counts = np.diff(np.concatenate([[0], bounds]))
    counts[-1] += n_settle

    quats = np.empty((n_total, 4))
    quats[0] = start
    pos = 1
    current = start
    for chunk, count in enumerate(counts):
        is_slew = chunk % 2 == 1
        if count > 0:
            if is_slew:
                nxt = waypoints[(chunk + 1) // 2]
                tau = np.arange(1, count + 1) / count
                quats[pos : pos + count] = _slerp_fixed(current, nxt, _quintic(tau))
            else:
                quats[pos : pos + count] = current
            pos += count
        if is_slew:
            # Advance even through a zero-length slew so later chunks still
            # walk the full waypoint sequence (and the session ends on target).
            current = waypoints[(chunk + 1) // 2]
    return quats


def _tremor_quats(
    rng: np.random.Generator, profile: ProfileConfig, n_total: int, amp: float
) -> np.ndarray:
    """Small body-frame rotations: per-axis sinusoids with smoothed jitter.

    The envelope tapers to zero before the settle margin, so the final
    ``_SETTLE_S`` of every session carries identity tremor (exact rest).
    """
    # Imported on use: scipy.ndimage takes ~0.3 s to load and only synth needs it.
    from scipy.ndimage import gaussian_filter1d

    t_s = np.arange(n_total) / profile.pose_rate_hz
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    jitter = rng.standard_normal((n_total, 3))
    jitter = gaussian_filter1d(jitter, sigma=_TREMOR_JITTER_SIGMA_SAMPLES, axis=0)
    peak = np.max(np.abs(jitter), axis=0)
    jitter /= np.where(peak > 0, peak, 1.0)

    active_end = t_s[-1] - _SETTLE_S
    envelope = np.clip((active_end - t_s) / _TREMOR_TAPER_S, 0.0, 1.0)
    wave = np.sin(2.0 * np.pi * profile.tremor_hz * t_s[:, None] + phases[None, :])
    rotvec = (amp / np.sqrt(3.0)) * (wave + _TREMOR_JITTER_GAIN * jitter) * envelope[:, None]

    angles = np.linalg.norm(rotvec, axis=1)
    safe = np.where(angles > 0, angles, 1.0)
    axis = rotvec / safe[:, None]
    half = 0.5 * angles
    quats = np.concatenate([np.cos(half)[:, None], np.sin(half)[:, None] * axis], axis=1)
    quats[angles == 0] = (1.0, 0.0, 0.0, 0.0)
    return quats


# ---------------------------------------------------------------------------
# phantom frames

@lru_cache(maxsize=8)
def _base_field(width: int, height: int, seed: int) -> np.ndarray:
    """Seeded smooth noise in [-1, 1]; fixed per session, shared by frames."""
    from scipy.ndimage import gaussian_filter  # imported on use, as in _tremor_quats

    rng = np.random.default_rng([_STREAM_FIELD, seed])
    field = gaussian_filter(rng.standard_normal((height, width)), sigma=3.0, mode="reflect")
    field /= np.max(np.abs(field))
    return field.astype(np.float32)


def gen_phantom_frame(
    q: np.ndarray,
    target: np.ndarray,
    geometry: tuple[int, int],
    seed: int,
    t_us: int = 0,
) -> Frame:
    """Render one frame whose contrast tracks alignment with the target.

    pixel = 128 + round(contrast * field(x, y)) with
    contrast = 16 + 96 * exp(-(theta/0.2)^2), theta the geodesic angle
    between ``q`` and ``target``.  Deterministic in (q, seed).
    """
    width, height = geometry
    theta = q_geodesic_angle(q, target)
    align = float(np.exp(-((theta / ALIGNMENT_SIGMA_RAD) ** 2)))
    contrast = _CONTRAST_BASE + _CONTRAST_GAIN * align
    field = _base_field(width, height, seed)
    buf = scratch(("phantom_render",), field.shape, np.float32)
    np.multiply(field, np.float32(contrast), out=buf)
    buf += np.float32(128.0)
    np.rint(buf, out=buf)
    np.clip(buf, 0.0, 255.0, out=buf)
    return Frame(t_us, width, height, pixels=buf.astype(np.uint8))


# ---------------------------------------------------------------------------
# whole sessions

def build_session(profile: ProfileConfig) -> Session:
    """Generate a complete in-memory session for the profile."""
    poses = gen_trajectory(profile)
    target = profile.resolved_target()
    frame_period_us = round(1e6 / profile.frame_rate_hz)
    span = poses[-1].t_us
    frame_t = frame_period_us * np.arange(span // frame_period_us + 1, dtype=np.int64)

    pose_t = np.array([p.t_us for p in poses], dtype=np.int64)
    quats = np.stack([p.q for p in poses])
    frame_q = _interpolate_on_grid(pose_t, quats, frame_t, "slerp")
    frames = [
        gen_phantom_frame(
            fq, target, (profile.frame_width, profile.frame_height), profile.seed, t_us=int(ft)
        )
        for ft, fq in zip(frame_t, frame_q)
    ]

    meta = SessionMeta(
        session_id=f"{profile.kind}-{profile.seed:04d}",
        participant_role=profile.kind,
        trial=1,
        pose_rate_hz=profile.pose_rate_hz,
        frame_rate_hz=profile.frame_rate_hz,
    )
    echo = {
        "kind": profile.kind,
        "seed": profile.seed,
        "pose_rate_hz": profile.pose_rate_hz,
        "frame_rate_hz": profile.frame_rate_hz,
        "frame_width": profile.frame_width,
        "frame_height": profile.frame_height,
        "n_samples_range": list(profile.resolved_samples_range()),
        "n_samples": len(poses),
        "tremor_amp_rad": profile.resolved_tremor_amp(),
        "tremor_hz": profile.tremor_hz,
        "n_segments": profile.n_segments,
        "target_orientation": [float(v) for v in target],
    }
    return Session(meta=meta, poses=poses, frames=frames, synthetic_profile=echo)


def gen_session(profile: ProfileConfig, out_dir: str | Path) -> Session:
    """Generate and persist a session in the standard directory layout."""
    session = build_session(profile)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_session(out_dir, session)
    except OSError as exc:
        raise OSError(f"cannot write session to {out_dir}: {exc}") from exc
    return session


def extend_with_idle(session: Session, duration_s: float) -> Session:
    """Append an idle tail: constant last pose, repeated last frame."""
    if not session.poses or not session.frames:
        raise ValueError("cannot extend an empty session")
    pose_period = round(1e6 / session.meta.pose_rate_hz)
    frame_period = round(1e6 / session.meta.frame_rate_hz)
    n_poses = int(round(duration_s * session.meta.pose_rate_hz))
    n_frames = int(round(duration_s * session.meta.frame_rate_hz))

    last_pose = session.poses[-1]
    extra_poses = [
        PoseSample(last_pose.t_us + pose_period * (i + 1), last_pose.q.copy())
        for i in range(n_poses)
    ]
    last_frame = session.frames[-1]
    extra_frames = [
        Frame(
            last_frame.t_us + frame_period * (i + 1),
            last_frame.width,
            last_frame.height,
            pixels=last_frame.pixels,
        )
        for i in range(n_frames)
    ]
    return Session(
        meta=session.meta,
        poses=session.poses + extra_poses,
        frames=session.frames + extra_frames,
        synthetic_profile=session.synthetic_profile,
    )
