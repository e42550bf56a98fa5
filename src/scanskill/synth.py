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

from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import INT64_MAX, SessionMeta, q_from_axis_angle, q_geodesic_angle, q_multiply
from .core import q_normalize
from .fusion import _interpolate_on_grid, _slerp_pairs, hemisphere_align
from .ingest import Frame, Frames, Poses, Session, write_session

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
# Novice tremor: 4 Hz per-axis sinusoids plus jitter, scaled to 0.03 rad; the
# expert has none.  Novices take 6-12 slew segments, the count drawn per seed.
_TREMOR_AMP_RAD = {"expert": 0.0, "novice": 0.03}
_TREMOR_HZ = 4.0
_NOVICE_SEGMENTS = (6, 12)

# Orientation mis-alignment scale of the phantom renderer: image contrast is
# 16 + 96 * exp(-(theta/sigma)^2) with theta the geodesic angle to target.
ALIGNMENT_SIGMA_RAD = 0.2
_CONTRAST_BASE = 16.0
_CONTRAST_GAIN = 96.0

# Target orientation: 1.2 rad about the (1,1,1) diagonal, far enough
# from the identity start that initial frames render near-flat.
_TARGET_AXIS = (1.0, 1.0, 1.0)
_TARGET_ANGLE = 1.2

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


@dataclass(frozen=True)
class ProfileConfig:
    """Generator parameters; a None ``n_samples_range`` takes the per-kind range."""

    kind: str
    seed: int
    pose_rate_hz: float = 100.0
    frame_rate_hz: float = 25.0
    frame_width: int = 640
    frame_height: int = 480
    n_samples_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODE:
            raise ValueError("profile kind must be expert|novice")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (self.pose_rate_hz > 0 and self.frame_rate_hz > 0):
            raise ValueError("rates must be positive")
        for name in ("pose_rate_hz", "frame_rate_hz"):
            # Timestamps are int64 microseconds: the period must round to
            # 1..INT64_MAX (the comparison of a float with an int is exact).
            rate = getattr(self, name)
            if not 0.5 < 1e6 / rate < INT64_MAX:
                raise ValueError(f"{name} {rate!r} has no int64 whole-microsecond period; "
                                 "expected a rate from 1.1e-13 Hz to below 2 MHz")
        if self.frame_width <= 0 or self.frame_height <= 0:
            raise ValueError("frame geometry must be positive")
        lo, hi = self.resolved_samples_range()
        if not (0 < lo <= hi):
            raise ValueError("n_samples_range must be a non-empty positive interval")
        # So must the last pose timestamp; snapping to the frame grid can add
        # samples past ``hi``.
        n_max = max(hi, _snap_to_frame_grid(lo, lo, self))
        if round(1e6 / self.pose_rate_hz) * (n_max - 1) > INT64_MAX:
            raise ValueError(f"pose_rate_hz {self.pose_rate_hz!r} puts the last of up to "
                             f"{n_max} poses past int64 microseconds")

    def resolved_samples_range(self) -> tuple[int, int]:
        if self.n_samples_range is not None:
            return self.n_samples_range
        return EXPERT_SAMPLE_RANGE if self.kind == "expert" else NOVICE_SAMPLE_RANGE

    def resolved_target(self) -> np.ndarray:
        return q_from_axis_angle(_TARGET_AXIS, _TARGET_ANGLE)


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


def gen_trajectory(profile: ProfileConfig) -> Poses:
    """Seed-deterministic orientation stream for one synthetic session.

    Draw order (rng seeded with [0, kind_code, seed]): total sample count;
    then for experts the idle-lead-in fraction; for novices the segment
    count, per-waypoint perturbation axis and angle, pause and slew duration
    weights, tremor phases, tremor jitter noise.
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
        quats = _novice_orientations(rng, n_total, n_settle, identity, target)
        tremor = _tremor_quats(rng, profile.pose_rate_hz, n_total)
        active = tremor[:, 0] != 1.0  # keep rest samples bit-exactly at rest
        quats[active] = q_normalize(q_multiply(quats[active], tremor[active]))

    return Poses(period_us * np.arange(n_total, dtype=np.int64), hemisphere_align(quats))


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
    n_total: int,
    n_settle: int,
    start: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    k = int(rng.integers(_NOVICE_SEGMENTS[0], _NOVICE_SEGMENTS[1] + 1))

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


def _tremor_quats(rng: np.random.Generator, pose_rate_hz: float, n_total: int) -> np.ndarray:
    """Small body-frame rotations: per-axis sinusoids with smoothed jitter.

    The envelope tapers to zero before the settle margin, so the final
    ``_SETTLE_S`` of every session carries identity tremor (exact rest).
    """
    t_s = np.arange(n_total) / pose_rate_hz
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    jitter = rng.standard_normal((n_total, 3))
    jitter = _gaussian_blur(jitter, _TREMOR_JITTER_SIGMA_SAMPLES, axes=(0,))
    peak = np.max(np.abs(jitter), axis=0)
    jitter /= np.where(peak > 0, peak, 1.0)

    active_end = t_s[-1] - _SETTLE_S
    envelope = np.clip((active_end - t_s) / _TREMOR_TAPER_S, 0.0, 1.0)
    wave = np.sin(2.0 * np.pi * _TREMOR_HZ * t_s[:, None] + phases[None, :])
    scale = _TREMOR_AMP_RAD["novice"] / np.sqrt(3.0)
    rotvec = scale * (wave + _TREMOR_JITTER_GAIN * jitter) * envelope[:, None]

    angles = np.linalg.norm(rotvec, axis=1)
    safe = np.where(angles > 0, angles, 1.0)
    axis = rotvec / safe[:, None]
    half = 0.5 * angles
    quats = np.concatenate([np.cos(half)[:, None], np.sin(half)[:, None] * axis], axis=1)
    quats[angles == 0] = (1.0, 0.0, 0.0, 0.0)
    return quats


def _gaussian_blur(x: np.ndarray, sigma: float, axes: tuple[int, ...]) -> np.ndarray:
    """Gaussian filter along each of ``axes`` in turn, mirror-padded.

    Bit for bit ``scipy.ndimage.gaussian_filter1d(x, sigma, axis, mode="reflect")``
    applied per axis: the same kernel (truncated at 4 sigma and normalised by
    its own sum), the same half-sample symmetric padding, and the same
    summation order as scipy's loop for symmetric kernels, outermost taps first.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps**2)
    weights = weights / weights.sum()
    for axis in axes:
        line = np.moveaxis(x, axis, 0)
        n = line.shape[0]
        pad = np.pad(line, [(radius, radius)] + [(0, 0)] * (line.ndim - 1), mode="symmetric")
        out = line * weights[radius]
        tap = np.empty_like(out)  # one scratch array for every tap, not two temporaries each
        for j in range(radius, 0, -1):
            np.add(pad[radius - j : radius - j + n], pad[radius + j : radius + j + n], out=tap)
            tap *= weights[radius - j]
            out += tap
        x = np.moveaxis(out, 0, axis)
    return x


# ---------------------------------------------------------------------------
# phantom frames

@lru_cache(maxsize=8)
def _base_field(width: int, height: int, seed: int) -> np.ndarray:
    """Seeded smooth noise in [-1, 1]; fixed per session, shared by frames."""
    rng = np.random.default_rng([_STREAM_FIELD, seed])
    field = _gaussian_blur(rng.standard_normal((height, width)), 3.0, axes=(0, 1))
    field /= np.max(np.abs(field))
    return field.astype(np.float32)


class _Phantom(NamedTuple):
    """A pixel source that renders the shared base field at one contrast on
    every :meth:`read`, so a session, or a process forked from it, keeps none."""

    field: np.ndarray  # float32
    contrast: np.float32
    shape = property(lambda self: self.field.shape)

    def read(self) -> np.ndarray:
        buf = self.field * self.contrast
        buf += np.float32(128.0)
        np.rint(buf, out=buf)
        np.clip(buf, 0.0, 255.0, out=buf)
        return buf.astype(np.uint8)


def gen_phantom_frame(
    q: np.ndarray,
    target: np.ndarray,
    geometry: tuple[int, int],
    seed: int,
    t_us: int = 0,
) -> Frame:
    """A frame whose contrast tracks alignment with the target.

    pixel = 128 + round(contrast * field(x, y)) with
    contrast = 16 + 96 * exp(-(theta/0.2)^2), theta the geodesic angle
    between ``q`` and ``target``.  Deterministic in (q, seed).  The pixels
    are rendered on each access of ``Frame.pixels``; the frame keeps none.
    """
    width, height = geometry
    contrast = _contrast(q_geodesic_angle(q, target))
    return Frame(t_us, _Phantom(_base_field(width, height, seed), np.float32(contrast)))


def _contrast(theta):
    """Phantom contrast at geodesic angle ``theta`` to the target; broadcasts."""
    return _CONTRAST_BASE + _CONTRAST_GAIN * np.exp(-((theta / ALIGNMENT_SIGMA_RAD) ** 2))


# ---------------------------------------------------------------------------
# whole sessions

def build_session(profile: ProfileConfig) -> Session:
    """Generate a complete in-memory session for the profile.

    Its frames keep no pixels: there is one phantom source per distinct
    float32 contrast, each rendering on access from the one base field, which
    is computed here, so processes forked later inherit it.
    """
    poses = gen_trajectory(profile)
    target = profile.resolved_target()
    frame_period_us = round(1e6 / profile.frame_rate_hz)
    frame_t = frame_period_us * np.arange(poses.t_us[-1] // frame_period_us + 1, dtype=np.int64)

    # gen_phantom_frame's contrast, for all frames at once.
    frame_q = _interpolate_on_grid(poses.t_us, poses.q, frame_t, "slerp")
    contrast = _contrast(q_geodesic_angle(frame_q, target)).astype(np.float32)
    levels, source = np.unique(contrast, return_inverse=True)
    field = _base_field(profile.frame_width, profile.frame_height, profile.seed)
    frames = Frames(frame_t, source, tuple(_Phantom(field, c) for c in levels))

    meta = SessionMeta(
        session_id=f"{profile.kind}-{profile.seed:04d}",
        participant_role=profile.kind,
        trial=1,
        pose_rate_hz=profile.pose_rate_hz,
        frame_rate_hz=profile.frame_rate_hz,
    )
    echo = {
        **asdict(profile),
        "n_samples_range": list(profile.resolved_samples_range()),
        "n_samples": len(poses),
        "tremor_amp_rad": _TREMOR_AMP_RAD[profile.kind],
        "tremor_hz": _TREMOR_HZ,
        "n_segments": None,  # expert: one slew; novice: drawn from _NOVICE_SEGMENTS
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
    meta, frames = session.meta, session.frames
    poses = Poses(*_idle_tail(session.poses.t_us, session.poses.q, meta.pose_rate_hz, duration_s))
    tail = _idle_tail(frames.t_us, frames.source, meta.frame_rate_hz, duration_s)
    return Session(meta, poses, Frames(*tail, frames.sources), session.synthetic_profile)


def _idle_tail(t: np.ndarray, rows: np.ndarray, rate_hz: float, duration_s: float):
    """``t`` and ``rows`` extended by ``duration_s`` at ``rate_hz``, each new row the last."""
    n = int(round(duration_s * rate_hz))
    t_tail = t[-1] + round(1e6 / rate_hz) * np.arange(1, n + 1, dtype=np.int64)
    return np.concatenate([t, t_tail]), np.concatenate([rows, np.repeat(rows[-1:], n, axis=0)])
