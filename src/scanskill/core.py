"""Quaternion math, time units, and session identity shared by every module.

Conventions, fixed package-wide:

* Quaternions are Hamilton, scalar-first ``[w, x, y, z]``, right-handed.
  They are stored as float64 numpy arrays; every operation here broadcasts
  over a leading batch dimension, so a single quaternion is shape ``(4,)``
  and a series is shape ``(n, 4)``.
* ``q`` and ``-q`` encode the same rotation. Nothing in this module picks a
  hemisphere; sequences are made sign-continuous explicitly by
  :func:`scanskill.fusion.hemisphere_align`.
* Angles are radians. Degrees may appear in CLI presentation only.
* Timestamps are integer microseconds on a per-session monotonic clock.
  Integers keep resampling-grid arithmetic exact.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IDENTITY",
    "PARTICIPANT_ROLES",
    "SessionMeta",
    "q_from_axis_angle",
    "q_geodesic_angle",
    "q_inverse",
    "q_multiply",
    "q_normalize",
]

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

# Integer settings meet int64 arrays (grid times, smoothing-window indices),
# so they stay within int64.
INT64_MAX = 2**63 - 1

PARTICIPANT_ROLES = ("expert", "novice", "unknown")

# |norm^2 - 1| below this is float dust: dividing would only churn low bits,
# so q_normalize leaves such inputs untouched (making it exactly idempotent).
_UNIT_NORM_SQ_TOL = 16 * np.finfo(np.float64).eps


def q_normalize(q: np.ndarray) -> np.ndarray:
    """Scale ``q`` to unit norm, preserving direction.

    Inputs already unit to within a few ulp are returned unchanged (as a
    copy), so normalization is idempotent and bit-stable across I/O round
    trips.  Raises ``ValueError("degenerate quaternion")`` on zero norm.
    """
    q = np.asarray(q, dtype=np.float64)
    norm_sq = np.sum(q * q, axis=-1)
    if np.any(norm_sq == 0.0):
        raise ValueError("degenerate quaternion")
    out = q.copy()
    needs = np.abs(norm_sq - 1.0) > _UNIT_NORM_SQ_TOL
    if q.ndim == 1:
        if needs:
            out /= np.sqrt(norm_sq)
    elif np.any(needs):
        out[needs] /= np.sqrt(norm_sq[needs])[..., None]
    return out


def q_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product ``a ⊗ b``; broadcasts over leading dimensions."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def q_inverse(q: np.ndarray) -> np.ndarray:
    """Inverse of a unit quaternion: the conjugate ``(w, -x, -y, -z)``."""
    q = np.asarray(q, dtype=np.float64)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def q_geodesic_angle(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Rotation angle in [0, pi] taking ``a`` to ``b``, sign-insensitive.

    Mathematically ``2·acos(|a·b|)``, evaluated through atan2 so the result
    stays accurate near 0 and pi where acos is ill-conditioned.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dot = np.sum(a * b, axis=-1)
    sign = np.where(dot < 0.0, -1.0, 1.0)[..., None]
    sa = sign * a
    diff = np.linalg.norm(sa - b, axis=-1)
    summ = np.linalg.norm(sa + b, axis=-1)
    angle = 4.0 * np.arctan2(diff, summ)
    return float(angle) if angle.ndim == 0 else angle


def q_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Unit quaternion for a rotation of ``angle`` radians about ``axis``."""
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("zero rotation axis")
    half = 0.5 * angle
    return np.concatenate([[np.cos(half)], np.sin(half) * axis / n])


@dataclass(frozen=True)
class SessionMeta:
    """Identity and nominal acquisition rates of one recorded session."""

    session_id: str
    participant_role: str
    trial: int
    pose_rate_hz: float
    frame_rate_hz: float

    def __post_init__(self) -> None:
        if not isinstance(self.session_id, str):
            raise ValueError(f"session_id must be a string, got {self.session_id!r}")
        if self.participant_role not in PARTICIPANT_ROLES:
            raise ValueError("unknown role; expected expert|novice|unknown")
        if not is_int(self.trial):
            raise ValueError(f"trial must be an integer, got {self.trial!r}")
        if self.trial < 1:
            raise ValueError("trial must be >= 1")
        for name in ("pose_rate_hz", "frame_rate_hz"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if not (self.pose_rate_hz > 0 and self.frame_rate_hz > 0):
            raise ValueError("rates must be positive")


# ---------------------------------------------------------------------------
# config value checks, shared by the pipeline's config dataclasses

def is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool`` (JSON ``true`` is no integer)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer in ``[1, INT64_MAX]``."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    if value > INT64_MAX:
        raise ValueError(f"{name} must be <= {INT64_MAX}")


def check_real(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite int or float."""
    # abs() <= max also rejects NaN, and compares huge ints exactly.
    if not (is_int(value) or isinstance(value, float)) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)
