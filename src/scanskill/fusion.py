"""Place both sensor streams on one uniform time grid.

The fused timeline is an arithmetic grid ``origin + k·delta_t_us``.  Pose is
interpolated between its bracketing samples (SLERP or nearest); each grid
instant is associated with the frame chosen by the frame policy, provided
that frame lies within ``max_frame_staleness_us``.

Grid placement: the origin is the first pose timestamp at or after the
instant both streams have started; the grid then runs to the end of the pose
stream (pose orientation is never extrapolated).  Frames that stop early
simply leave later grid instants frame-less once staleness is exceeded.
Disjoint streams are an error.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .core import check_int, q_normalize
from .ingest import PoseSample, Session, _write_csv

__all__ = [
    "FusedGrid",
    "FusedSample",
    "ResampleConfig",
    "StreamingFuser",
    "fuse_streams",
    "hemisphere_align",
    "slerp",
    "write_fused_csv",
]

# Below this quaternion-space angle SLERP degrades to normalized lerp;
# the two agree to O(angle^2) there and lerp avoids the 0/0.
_SLERP_MIN_ANGLE = 1e-7

PosePolicy = Literal["slerp", "nearest"]
FramePolicy = Literal["nearest", "latest_not_after"]


@dataclass(frozen=True)
class ResampleConfig:
    """Fusion grid parameters. ``delta_t_us`` is the grid step."""

    delta_t_us: int = 10_000
    pose_policy: PosePolicy = "slerp"
    frame_policy: FramePolicy = "nearest"
    max_frame_staleness_us: int = 100_000

    def __post_init__(self) -> None:
        for name in ("delta_t_us", "max_frame_staleness_us"):
            check_int(name, getattr(self, name))
        if self.pose_policy not in ("slerp", "nearest"):
            raise ValueError(f"unknown pose_policy {self.pose_policy!r}")
        if self.frame_policy not in ("nearest", "latest_not_after"):
            raise ValueError(f"unknown frame_policy {self.frame_policy!r}")
        if self.max_frame_staleness_us < self.delta_t_us:
            raise ValueError("max_frame_staleness_us must be >= delta_t_us")


class FusedSample(NamedTuple):
    """One grid instant, as :class:`StreamingFuser` gives it and as a :class:`FusedGrid` row."""

    t_us: int
    q: np.ndarray  # (4,), unit
    frame_idx: int | None
    frame_staleness_us: int | None


def _fused_sample(t_us: int, q: np.ndarray, frame_idx: int, staleness_us: int) -> FusedSample:
    if frame_idx < 0:
        return FusedSample(t_us, q, None, None)
    return FusedSample(t_us, q, frame_idx, staleness_us)


@dataclass(frozen=True)
class FusedGrid:
    """The fused grid as read-only columns, one row per grid instant.

    ``t_us`` (n,) int64, ``q`` (n, 4) float64 unit and hemisphere-aligned,
    ``frame_idx`` (n,) int64 with -1 where no frame lies within the staleness
    window, and ``staleness_us`` (n,) int64, 0 where ``frame_idx`` is -1.
    Construction copies the columns and checks their shapes.  ``len`` and
    iteration give :class:`FusedSample` views.
    """

    t_us: np.ndarray
    q: np.ndarray
    frame_idx: np.ndarray
    staleness_us: np.ndarray

    def __post_init__(self) -> None:
        n = np.size(self.t_us)
        for f in fields(self):
            is_q = f.name == "q"
            col = np.array(getattr(self, f.name), dtype=np.float64 if is_q else np.int64)
            if col.shape != ((n, 4) if is_q else (n,)):
                raise ValueError(f"fused column {f.name} has shape {col.shape} for {n} instants")
            col.flags.writeable = False
            object.__setattr__(self, f.name, col)

    def __len__(self) -> int:
        return len(self.t_us)

    def __iter__(self) -> Iterator[FusedSample]:
        return map(_fused_sample, self.t_us.tolist(), self.q, self.frame_idx.tolist(),
                   self.staleness_us.tolist())


# The fused.csv header: FusedGrid's fields, q as one column per component.
FUSED_HEADER = ",".join("w,x,y,z" if f.name == "q" else f.name for f in fields(FusedGrid))


def hemisphere_align(q: np.ndarray) -> np.ndarray:
    """Flip signs in an ``(n, 4)`` quaternion series so consecutive dots are >= 0.

    ``q`` and ``-q`` encode the same rotation, so the represented motion is
    unchanged; the output is safe to interpolate continuously.  Row ``k`` is
    negated when an odd number of the step dot products since the last zero
    one are negative: a step whose dot product is 0 keeps its row as it is.
    Idempotent; returns a new array.
    """
    q = np.asarray(q, dtype=np.float64)
    if len(q) < 2:
        return q.copy()
    # Stacked 1x4 @ 4x1 products compute each step as np.dot does, so these
    # signs agree with the one-row rule in StreamingFuser.push_pose.
    dots = (q[:-1, None, :] @ q[1:, :, None])[:, 0, 0]
    signs = np.cumprod(np.concatenate([[1.0], np.where(dots < 0.0, -1.0, 1.0)]))
    # Restart the product at +1 on every step that is neither < 0 nor > 0.
    restart = np.concatenate([[True], ~(np.abs(dots) > 0.0)])
    signs *= signs[np.maximum.accumulate(np.where(restart, np.arange(len(q)), 0))]
    return np.where(signs[:, None] < 0.0, -q, q)


def slerp(a: np.ndarray, b: np.ndarray, u: float) -> np.ndarray:
    """Interpolate along the great-circle arc from ``a`` (u=0) to ``b`` (u=1).

    Inputs must be unit and hemisphere-aligned (dot >= 0).  For angles below
    ``1e-7`` rad the normalized-lerp fallback is used.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"interpolation parameter u={u} outside [0, 1]")
    result = _slerp_pairs(
        np.asarray(a, dtype=np.float64)[None, :],
        np.asarray(b, dtype=np.float64)[None, :],
        np.array([float(u)]),
    )
    return result[0]


def _slerp_pairs(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise slerp over (n, 4) arrays; returns unit (n, 4)."""
    diff = np.linalg.norm(a - b, axis=-1)
    summ = np.linalg.norm(a + b, axis=-1)
    omega = 2.0 * np.arctan2(diff, summ)  # 4-vector angle; <= pi/2 when aligned
    out = np.empty_like(a)
    small = omega < _SLERP_MIN_ANGLE
    if np.any(small):
        us = u[small, None]
        out[small] = (1.0 - us) * a[small] + us * b[small]
    big = ~small
    if np.any(big):
        om = omega[big]
        sin_om = np.sin(om)
        w_a = np.sin((1.0 - u[big]) * om) / sin_om
        w_b = np.sin(u[big] * om) / sin_om
        out[big] = w_a[:, None] * a[big] + w_b[:, None] * b[big]
    return q_normalize(out)


def _interpolate_on_grid(
    t_us: np.ndarray, quats: np.ndarray, grid: np.ndarray, pose_policy: str
) -> np.ndarray:
    """Pose at each grid instant from its bracketing input pair."""
    idx = np.searchsorted(t_us, grid, side="right") - 1
    idx = np.clip(idx, 0, len(t_us) - 2)
    t0 = t_us[idx]
    t1 = t_us[idx + 1]
    u = (grid - t0) / (t1 - t0)
    if pose_policy == "nearest":
        pick = np.where(u <= 0.5, idx, idx + 1)  # tie -> earlier sample
        return quats[pick].copy()
    return _slerp_pairs(quats[idx], quats[idx + 1], u.astype(np.float64))


def _associate_frames(
    frame_t: np.ndarray, grid: np.ndarray, cfg: ResampleConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Frame index and staleness per grid instant; index -1 means none."""
    if cfg.frame_policy == "latest_not_after":
        idx = np.searchsorted(frame_t, grid, side="right") - 1
        staleness = np.where(idx >= 0, grid - frame_t.take(idx, mode="clip"), 0)
        valid = (idx >= 0) & (staleness <= cfg.max_frame_staleness_us)
    else:  # nearest
        pos = np.searchsorted(frame_t, grid)
        left = np.clip(pos - 1, 0, len(frame_t) - 1)
        right = np.clip(pos, 0, len(frame_t) - 1)
        d_left = np.abs(grid - frame_t[left])
        d_right = np.abs(frame_t[right] - grid)
        take_left = d_left <= d_right  # tie -> earlier frame
        idx = np.where(take_left, left, right)
        staleness = np.minimum(d_left, d_right)
        valid = staleness <= cfg.max_frame_staleness_us
    idx = np.where(valid, idx, -1)
    staleness = np.where(valid, staleness, 0)
    return idx, staleness


def fuse_streams(session: Session, cfg: ResampleConfig) -> FusedGrid:
    """Fuse a session's pose and frame streams onto the uniform grid."""
    if len(session.poses) < 2:
        raise ValueError("cannot interpolate")
    pose_t, frame_t = session.poses.t_us, session.frames.t_us
    if not frame_t.size or frame_t[0] > pose_t[-1] or pose_t[0] > frame_t[-1]:
        raise ValueError("streams do not overlap in time")
    quats = hemisphere_align(session.poses.q)

    start = max(int(pose_t[0]), int(frame_t[0]))
    origin = int(pose_t[np.searchsorted(pose_t, start, side="left")])
    return _fuse_span(pose_t, quats, frame_t, origin, int(pose_t[-1]), cfg)


def _fuse_span(
    pose_t: Sequence[int],
    quats: np.ndarray,
    frame_t: Sequence[int],
    first_t: int,
    last_t: int,
    cfg: ResampleConfig,
    frame_offset: int = 0,
) -> FusedGrid:
    """Fuse the grid instants ``first_t + k·delta_t_us <= last_t``.

    ``frame_offset`` is the session index of ``frame_t[0]``.
    """
    pose_t = np.asarray(pose_t, dtype=np.int64)
    frame_t = np.asarray(frame_t, dtype=np.int64)
    n = (last_t - first_t) // cfg.delta_t_us + 1
    try:
        grid = first_t + cfg.delta_t_us * np.arange(n, dtype=np.int64)
    except MemoryError as exc:
        raise MemoryError(
            f"cannot allocate a grid of {n} instants: {last_t - first_t} us"
            f" at delta_t_us {cfg.delta_t_us}"
        ) from exc
    out_q = _interpolate_on_grid(pose_t, quats, grid, cfg.pose_policy)
    f_idx, f_stale = _associate_frames(frame_t, grid, cfg)
    f_idx[f_idx >= 0] += frame_offset
    return FusedGrid(grid, out_q, f_idx, f_stale)


def write_fused_csv(path: str | Path, fused: FusedGrid) -> None:
    """Write the fused grid as CSV; ``frame_idx`` and staleness are empty where it is -1."""
    columns = (getattr(fused, f.name).tolist() for f in fields(fused))
    rows = ([t, *q, i, s] if i >= 0 else [t, *q, None, None] for t, q, i, s in zip(*columns))
    _write_csv(path, FUSED_HEADER, rows)


class StreamingFuser:
    """Incremental fuser producing exactly the :func:`fuse_streams` output.

    Feed each stream in timestamp order through :meth:`push_pose` /
    :meth:`push_frame`; every call returns the fused samples that became
    final.  Call :meth:`finish` after both streams end to flush the tail.

    A grid instant becomes final once the pose stream has reached it and the
    frame stream has advanced ``max_frame_staleness_us`` past it.  Each push
    fuses the whole span of newly final instants with the batch grid code,
    then drops the poses before the bracketing pair of the next instant and
    the frames behind its staleness horizon.  The buffers therefore grow with
    how far the frame stream lags the pose stream, not with session length:
    while frames stall, every pose pushed since stays buffered, and the next
    frame past the window releases that backlog at once.
    """

    def __init__(self, cfg: ResampleConfig) -> None:
        self._cfg = cfg
        self._pose_t: list[int] = []
        self._quats: list[np.ndarray] = []  # hemisphere-aligned
        self._frame_t: list[int] = []
        self._dropped_frames = 0  # session index of self._frame_t[0]
        # Kept apart from the pruned buffers, for the overlap check in finish().
        self._first_pose_t: int | None = None
        self._last_frame_t: int | None = None
        self._next_t: int | None = None  # next grid instant to emit

    def push_pose(self, pose: PoseSample) -> list[FusedSample]:
        if self._pose_t and pose.t_us <= self._pose_t[-1]:
            raise ValueError("pose timestamps must be strictly increasing")
        q = pose.q
        if self._quats and float(np.dot(self._quats[-1], q)) < 0.0:
            q = -q
        if self._first_pose_t is None:
            self._first_pose_t = pose.t_us
        self._pose_t.append(pose.t_us)
        self._quats.append(q)
        return self._emit(flush=False)

    def push_frame(self, t_us: int) -> list[FusedSample]:
        if self._last_frame_t is not None and t_us <= self._last_frame_t:
            raise ValueError("frame timestamps must be strictly increasing")
        self._frame_t.append(t_us)
        self._last_frame_t = t_us
        return self._emit(flush=False)

    def finish(self) -> list[FusedSample]:
        if len(self._pose_t) < 2:
            raise ValueError("cannot interpolate")
        if self._last_frame_t is None or self._last_frame_t < self._first_pose_t:
            raise ValueError("streams do not overlap in time")
        out = self._emit(flush=True)
        if self._next_t is None:
            raise ValueError("streams do not overlap in time")
        return out

    def _emit(self, flush: bool) -> list[FusedSample]:
        pose_t, frame_t, cfg = self._pose_t, self._frame_t, self._cfg
        if len(pose_t) < 2 or not frame_t:
            return []
        if self._next_t is None:
            # Nothing is dropped before the origin is set, so the buffers
            # still start with each stream's first sample.
            start = max(pose_t[0], frame_t[0])
            i = bisect.bisect_left(pose_t, start)
            if i == len(pose_t):
                return []  # wait for a pose inside the overlap
            self._next_t = pose_t[i]
        end_t = pose_t[-1]
        if not flush:
            end_t = min(end_t, frame_t[-1] - cfg.max_frame_staleness_us)
        if end_t < self._next_t:
            return []
        out = list(_fuse_span(
            pose_t, np.stack(self._quats), frame_t, self._next_t, end_t, cfg, self._dropped_frames
        ))
        self._next_t = out[-1].t_us + cfg.delta_t_us
        # Keep the bracketing pose pair of the next instant and everything later.
        drop = min(bisect.bisect_right(pose_t, self._next_t) - 1, len(pose_t) - 2)
        del pose_t[:drop], self._quats[:drop]
        # Frames behind the staleness horizon can never be selected again.
        drop = bisect.bisect_left(frame_t, self._next_t - cfg.max_frame_staleness_us)
        del frame_t[:drop]
        self._dropped_frames += drop
        return out
