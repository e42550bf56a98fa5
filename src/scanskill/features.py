"""Per-frame texture features and per-trajectory motion quantities.

Texture comes from gray-level co-occurrence matrices (GLCM): angular second
moment ``asm = sum P^2``, ``energy = sqrt(asm)``, and
``homogeneity = sum P/(1+(i-j)^2)``.  Construction parameters (quantization
levels, pixel offsets, symmetry, ROI) live in :class:`GlcmConfig`; the
defaults are distance-1 co-occurrence in four directions at 32 levels.

Motion comes from the fused quaternion grid: body-frame angular velocity via
the quaternion log, geodesic path length, and two smoothness metrics over
the angular-speed profile (spectral arc length and log dimensionless jerk).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._scratch import scratch
from .core import q_geodesic_angle, q_inverse, q_multiply
from .ingest import Frame, Session

__all__ = [
    "FeatureRecord",
    "GlcmConfig",
    "HistogramStats",
    "MotionSeries",
    "SmoothnessConfig",
    "TextureFeatures",
    "angular_velocity",
    "compute_feature_table",
    "frame_features",
    "glcm",
    "glcm_counts",
    "histogram_stats",
    "log_dimensionless_jerk",
    "path_length",
    "quantize",
    "smooth_speed",
    "sparc",
    "texture_features",
    "write_features_csv",
]

FEATURES_HEADER = (
    "t_us,asm,energy,homogeneity,hist_mean,hist_var,hist_entropy,"
    "omega_x,omega_y,omega_z,speed"
)

ALLOWED_LEVELS = (8, 16, 32, 64)
DEFAULT_OFFSETS = ((1, 0), (0, 1), (1, 1), (-1, 1))


@dataclass(frozen=True)
class GlcmConfig:
    """Co-occurrence construction parameters.

    ``offsets`` are (dx, dy) pixel displacements: a pair is
    ``(img[y][x], img[y+dy][x+dx])``.  ``roi`` is (x, y, w, h) in pixels;
    None means the full frame.
    """

    levels: int = 32
    offsets: tuple[tuple[int, int], ...] = DEFAULT_OFFSETS
    symmetric: bool = True
    roi: tuple[int, int, int, int] | None = None

    def __post_init__(self) -> None:
        if self.levels not in ALLOWED_LEVELS:
            raise ValueError(f"levels must be one of {ALLOWED_LEVELS}")
        offsets = tuple((int(dx), int(dy)) for dx, dy in self.offsets)
        if not offsets:
            raise ValueError("offsets must be non-empty")
        if (0, 0) in offsets:
            raise ValueError("offset (0, 0) is not a displacement")
        object.__setattr__(self, "offsets", offsets)
        if self.roi is not None:
            x, y, w, h = self.roi
            if w <= 0 or h <= 0 or x < 0 or y < 0:
                raise ValueError("roi must be (x, y, w, h) with positive size")


class TextureFeatures(NamedTuple):
    asm: float
    energy: float
    homogeneity: float


@dataclass(frozen=True)
class HistogramStats:
    bins: np.ndarray  # (256,), sums to 1
    mean: float
    variance: float
    entropy: float  # bits, <= 8


@dataclass(frozen=True)
class MotionSeries:
    """Angular velocity over the fused grid; one entry per grid step.

    ``t_us[k]`` is the grid instant each step lands on, i.e. the velocity
    leading into that instant.
    """

    t_us: np.ndarray  # (m-1,)
    omega: np.ndarray  # (m-1, 3), rad/s, body frame
    speed: np.ndarray  # (m-1,), rad/s


@dataclass(frozen=True)
class SmoothnessConfig:
    """Knobs for the smoothness metrics applied to the speed profile."""

    speed_smoothing_window: int = 5  # grid steps; moving average before metrics
    sparc_cutoff_hz: float = 10.0
    sparc_amplitude_threshold: float = 0.05


# ---------------------------------------------------------------------------
# texture

def _pixels_of(frame: Frame | np.ndarray) -> np.ndarray:
    if isinstance(frame, Frame):
        return frame.pixels
    return np.asarray(frame, dtype=np.uint8)


def quantize(
    frame: Frame | np.ndarray, levels: int, roi: tuple[int, int, int, int] | None = None
) -> np.ndarray:
    """Map 8-bit pixels to ``floor(p * levels / 256)`` over the ROI (or all)."""
    if levels not in ALLOWED_LEVELS:
        raise ValueError(f"levels must be one of {ALLOWED_LEVELS}")
    px = _pixels_of(frame)
    if roi is not None:
        x, y, w, h = roi
        if x < 0 or y < 0 or w <= 0 or h <= 0 or y + h > px.shape[0] or x + w > px.shape[1]:
            raise ValueError("roi out of bounds")
        px = px[y : y + h, x : x + w]
    return ((px.astype(np.uint16) * levels) >> 8).astype(np.uint8)


def glcm_counts(img: np.ndarray, levels: int, offset: tuple[int, int]) -> np.ndarray:
    """Raw (asymmetric) co-occurrence counts for one offset, int64 (L, L)."""
    img = np.asarray(img).astype(np.int32)
    if img.size and (img.min() < 0 or img.max() >= levels):
        raise ValueError(f"image values must lie in [0, {levels})")
    return _pair_counts(img, levels, offset)


def _pair_counts(img_i32: np.ndarray, levels: int, offset: tuple[int, int]) -> np.ndarray:
    dx, dy = offset
    h, w = img_i32.shape
    y0, y1 = max(0, -dy), h - max(0, dy)
    x0, x1 = max(0, -dx), w - max(0, dx)
    if y1 <= y0 or x1 <= x0:
        raise ValueError("empty co-occurrence")
    src = img_i32[y0:y1, x0:x1]
    dst = img_i32[y0 + dy : y1 + dy, x0 + dx : x1 + dx]
    codes = src * levels + dst
    return np.bincount(codes.ravel(), minlength=levels * levels).reshape(levels, levels)


def glcm(
    img: np.ndarray, levels: int, offset: tuple[int, int], symmetric: bool = True
) -> np.ndarray:
    """Normalized co-occurrence matrix P (sums to 1) for one offset."""
    counts = glcm_counts(img, levels, offset)
    if symmetric:
        counts = counts + counts.T
    return counts / counts.sum()


def _homogeneity_weights(levels: int) -> np.ndarray:
    idx = np.arange(levels)
    return 1.0 / (1.0 + (idx[:, None] - idx[None, :]) ** 2)


_WEIGHT_CACHE: dict[int, np.ndarray] = {L: _homogeneity_weights(L) for L in ALLOWED_LEVELS}


def texture_features(P: np.ndarray) -> TextureFeatures:
    """ASM, energy, homogeneity of one normalized co-occurrence matrix."""
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("co-occurrence matrix must be square")
    total = float(P.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"unnormalized co-occurrence matrix (sum {total})")
    asm = float(np.sum(P * P))
    weights = _WEIGHT_CACHE.get(P.shape[0])
    if weights is None:
        weights = _homogeneity_weights(P.shape[0])
    homogeneity = float(np.sum(P * weights))
    return TextureFeatures(asm=asm, energy=math.sqrt(asm), homogeneity=homogeneity)


def histogram_stats(frame: Frame | np.ndarray, roi=None) -> HistogramStats:
    """Intensity distribution over the same region texture uses."""
    px = _pixels_of(frame)
    if roi is not None:
        x, y, w, h = roi
        px = px[y : y + h, x : x + w]
    flat = px.ravel()
    if flat.size == 0:
        raise ValueError("empty frame")
    bins = np.bincount(flat, minlength=256) / flat.size
    values = np.arange(256, dtype=np.float64)
    mean = float(bins @ values)
    variance = float(bins @ (values - mean) ** 2)
    nz = bins[bins > 0]
    entropy = float(-np.sum(nz * np.log2(nz)))
    return HistogramStats(bins=bins, mean=mean, variance=variance, entropy=entropy)


def frame_features(
    frame: Frame | np.ndarray, cfg: GlcmConfig
) -> tuple[TextureFeatures, HistogramStats]:
    """Texture features averaged over ``cfg.offsets`` plus histogram stats.

    ASM and homogeneity are averaged arithmetically across offsets; energy
    is ``sqrt`` of the averaged ASM so the energy/ASM identity survives the
    averaging.
    """
    px = _pixels_of(frame)
    if cfg.roi is not None:
        x, y, w, h = cfg.roi
        if x < 0 or y < 0 or y + h > px.shape[0] or x + w > px.shape[1]:
            raise ValueError("roi out of bounds")
        px = px[y : y + h, x : x + w]
    levels = cfg.levels
    # All allowed level counts are powers of two: floor(p*L/256) == p >> shift.
    shift = 8 - (levels.bit_length() - 1)
    quantized = scratch(("glcm_quant",), px.shape, np.uint8)
    np.right_shift(px, shift, out=quantized)
    wide = scratch(("glcm_wide",), px.shape, np.intp)
    np.multiply(quantized, levels, out=wide, dtype=np.intp)

    weights = _WEIGHT_CACHE[levels]
    asm_sum = 0.0
    hom_sum = 0.0
    img_h, img_w = px.shape
    for dx, dy in cfg.offsets:
        y0, y1 = max(0, -dy), img_h - max(0, dy)
        x0, x1 = max(0, -dx), img_w - max(0, dx)
        if y1 <= y0 or x1 <= x0:
            raise ValueError("empty co-occurrence")
        codes = scratch(("glcm_codes", dx, dy), (y1 - y0, x1 - x0), np.intp)
        np.add(
            wide[y0:y1, x0:x1],
            quantized[y0 + dy : y1 + dy, x0 + dx : x1 + dx],
            out=codes,
            casting="unsafe",
        )
        counts = np.bincount(codes.ravel(), minlength=levels * levels).reshape(levels, levels)
        if cfg.symmetric:
            counts = counts + counts.T
        P = counts / counts.sum()
        asm_sum += float(np.sum(P * P))
        hom_sum += float(np.sum(P * weights))
    n = len(cfg.offsets)
    asm = asm_sum / n
    tex = TextureFeatures(asm=asm, energy=math.sqrt(asm), homogeneity=hom_sum / n)
    return tex, histogram_stats(px)


# ---------------------------------------------------------------------------
# motion

def _quat_matrix(samples) -> np.ndarray:
    if isinstance(samples, np.ndarray):
        return samples
    return np.stack([s.q for s in samples])


def angular_velocity(fused: Sequence, delta_t_us: int) -> MotionSeries:
    """Body-frame angular velocity between consecutive fused grid poses.

    ``omega_k = 2 * log(q_k^-1 ⊗ q_{k+1}) / dt`` with the quaternion log
    mapping a rotation of angle theta about unit axis n to (theta/2)·n.
    Inputs must be hemisphere-aligned and on a uniform grid.
    """
    if len(fused) < 2:
        raise ValueError("need at least 2 fused samples")
    t = np.array([s.t_us for s in fused], dtype=np.int64)
    if np.any(np.diff(t) != delta_t_us):
        raise ValueError("non-uniform grid")
    q = _quat_matrix(fused)
    rel = q_multiply(q_inverse(q[:-1]), q[1:])
    w = rel[:, 0]
    vec = rel[:, 1:]
    s = np.linalg.norm(vec, axis=1)
    # atan2(s, w)/s -> 1/w as s -> 0; below 1e-12 the difference is under 1e-24.
    safe_s = np.where(s > 1e-12, s, 1.0)
    factor = np.where(s > 1e-12, np.arctan2(s, w) / safe_s, 1.0)
    dt_s = delta_t_us / 1e6
    omega = (2.0 / dt_s) * factor[:, None] * vec
    speed = np.linalg.norm(omega, axis=1)
    return MotionSeries(t_us=t[1:], omega=omega, speed=speed)


def path_length(fused: Sequence) -> float:
    """Total geodesic angle swept along the sequence, in radians."""
    q = _quat_matrix(fused)
    if len(q) < 2:
        raise ValueError("need at least 2 samples")
    return float(np.sum(q_geodesic_angle(q[:-1], q[1:])))


def smooth_speed(speed: np.ndarray, window: int = 5) -> np.ndarray:
    """Centered moving average; the window shrinks at the series edges."""
    v = np.asarray(speed, dtype=np.float64)
    if window <= 1 or v.size == 0:
        return v.copy()
    half = window // 2
    csum = np.concatenate([[0.0], np.cumsum(v)])
    i = np.arange(v.size)
    lo = np.maximum(0, i - half)
    hi = np.minimum(v.size, i + half + 1)
    return (csum[hi] - csum[lo]) / (hi - lo)


def log_dimensionless_jerk(speed: np.ndarray, delta_t_s: float) -> float:
    """LDLJ of a speed profile: ``-ln((T^3 / v_peak^2) * sum (dv/dt)^2 * dt)``.

    ``dv/dt`` uses central differences (one-sided at the boundaries) and
    ``T`` is the series duration.  Invariant under positive scaling of the
    speed; more negative means jerkier.
    """
    v = np.asarray(speed, dtype=np.float64)
    if v.size < 3:
        raise ValueError("speed series too short (need >= 3 samples)")
    v_peak = float(np.max(np.abs(v)))
    if v_peak == 0.0:
        raise ValueError("no motion")
    dv = np.gradient(v, delta_t_s)
    duration = (v.size - 1) * delta_t_s
    cost = (duration**3 / v_peak**2) * float(np.sum(dv * dv)) * delta_t_s
    return -math.log(cost)


# Zero-padding exponent for the SPARC spectrum: nfft = 2**(ceil(log2 n) + 4).
_SPARC_PAD_LEVEL = 4


def sparc(
    speed: np.ndarray,
    sample_rate_hz: float,
    cutoff_hz: float = 10.0,
    amplitude_threshold: float = 0.05,
) -> float:
    """Spectral arc length of a speed profile; closer to zero is smoother.

    The magnitude spectrum (zero-padded FFT) is normalized by its value at
    zero frequency, restricted to [0, cutoff_hz], then trimmed at the last
    frequency whose normalized magnitude still reaches
    ``amplitude_threshold``.  The result is the negative arc length of that
    normalized spectral curve, with the frequency axis scaled to unit span.
    """
    v = np.asarray(speed, dtype=np.float64)
    if v.size < 8:
        raise ValueError("speed series too short (need >= 8 samples)")
    if not np.any(v != 0.0):
        raise ValueError("no motion")
    nfft = 2 ** (math.ceil(math.log2(v.size)) + _SPARC_PAD_LEVEL)
    magnitude = np.abs(np.fft.rfft(v, nfft))
    if magnitude[0] == 0.0:
        raise ValueError("no motion")
    freq = np.arange(magnitude.size) * (sample_rate_hz / nfft)
    in_band = freq <= cutoff_hz
    f_sel = freq[in_band]
    m_sel = magnitude[in_band] / magnitude[0]
    above = np.nonzero(m_sel >= amplitude_threshold)[0]
    last = above[-1]
    f_sel = f_sel[: last + 1]
    m_sel = m_sel[: last + 1]
    if f_sel.size < 2:
        return 0.0
    f_span = f_sel[-1] - f_sel[0]
    arc = np.sqrt((np.diff(f_sel) / f_span) ** 2 + np.diff(m_sel) ** 2)
    return -float(np.sum(arc))


# ---------------------------------------------------------------------------
# per-session feature table

@dataclass(frozen=True)
class FeatureRecord:
    """Everything extracted at one fused grid instant."""

    t_us: int
    texture: TextureFeatures | None
    hist: HistogramStats | None
    omega: np.ndarray | None  # (3,) rad/s; None on the first grid row
    speed: float | None


def compute_feature_table(
    session: Session, fused: Sequence, cfg: GlcmConfig
) -> list[FeatureRecord]:
    """Texture + histogram per grid instant, motion per grid step.

    Frame features are computed once per distinct frame and shared by all
    grid instants referencing it; large sessions compute them in a process
    pool, with identical results.  Instants without an associated frame get
    None texture/histogram.
    """
    if not fused:
        return []
    motion = None
    if len(fused) >= 2:
        delta = fused[1].t_us - fused[0].t_us
        motion = angular_velocity(fused, delta)
    distinct = sorted({s.frame_idx for s in fused if s.frame_idx is not None})
    per_frame = dict(zip(distinct, _distinct_frame_features(session.frames, distinct, cfg)))
    records: list[FeatureRecord] = []
    for k, sample in enumerate(fused):
        tex = hist = None
        if sample.frame_idx is not None:
            tex, hist = per_frame[sample.frame_idx]
        if k == 0 or motion is None:
            omega, speed = None, None
        else:
            omega = motion.omega[k - 1]
            speed = float(motion.speed[k - 1])
        records.append(FeatureRecord(sample.t_us, tex, hist, omega, speed))
    return records


# Below this many pixels across a session's distinct frames the features
# are computed serially.  Pool start-up and teardown cost about 80 ms on two
# cores and break even near 5 Mpx; the margin above that keeps short
# sessions, whose saving would be within noise, off the pool.
_POOL_MIN_PIXELS = 1 << 24
# Each worker takes about this many chunks of frames, so that a slow chunk
# near the end leaves little idle time on the other workers.
_CHUNKS_PER_WORKER = 8

# Set in each pool worker by _init_worker: (frames, cfg) inherited by fork.
_worker_job: tuple[Sequence[Frame], GlcmConfig] | None = None


def _pool_workers(frames: Sequence[Frame], indices: Sequence[int]) -> int:
    """How many worker processes to use for ``frames[indices]``; <= 1 means serial."""
    pixels = sum(frames[i].width * frames[i].height for i in indices)
    if (
        pixels < _POOL_MIN_PIXELS
        or "fork" not in multiprocessing.get_all_start_methods()
        or not hasattr(os, "sched_getaffinity")
        # A daemonic process may not have children.
        or multiprocessing.current_process().daemon
        # fork copies only the calling thread; a lock another thread holds
        # would stay held in the child for good.
        or threading.active_count() > 1
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), len(indices))


def _distinct_frame_features(
    frames: Sequence[Frame], indices: Sequence[int], cfg: GlcmConfig
) -> list[tuple[TextureFeatures, HistogramStats]]:
    """``frame_features(frames[i], cfg)`` for each i in ``indices``, in order.

    Large sessions are spread over a fork process pool, one worker per CPU
    this process may run on.  The workers inherit ``frames`` and ``cfg``
    through the fork and decode on-disk frames themselves without caching
    them, so the caller never holds the decoded session.  A worker that dies
    raises ``concurrent.futures.BrokenExecutor`` here.
    """
    workers = _pool_workers(frames, indices)
    if workers <= 1:
        return [frame_features(frames[i], cfg) for i in indices]
    chunksize = max(1, len(indices) // (workers * _CHUNKS_PER_WORKER))
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(frames, cfg),
    ) as pool:
        return list(pool.map(_worker_frame_features, indices, chunksize=chunksize))


def _init_worker(frames: Sequence[Frame], cfg: GlcmConfig) -> None:
    global _worker_job
    _worker_job = (frames, cfg)


def _worker_frame_features(i: int) -> tuple[TextureFeatures, HistogramStats]:
    frames, cfg = _worker_job
    return frame_features(frames[i].read_pixels(), cfg)


def write_features_csv(dest, records: Iterable[FeatureRecord]) -> None:
    """Write the feature table as CSV; absent values are empty fields."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            write_features_csv(fh, records)
        return
    dest.write(FEATURES_HEADER + "\n")
    for r in records:
        tex = ["", "", ""]
        hist = ["", "", ""]
        if r.texture is not None:
            tex = [repr(r.texture.asm), repr(r.texture.energy), repr(r.texture.homogeneity)]
        if r.hist is not None:
            hist = [repr(r.hist.mean), repr(r.hist.variance), repr(r.hist.entropy)]
        if r.omega is None:
            motion = ["", "", "", ""]
        else:
            motion = [repr(float(c)) for c in r.omega] + [repr(r.speed)]
        dest.write(",".join([str(r.t_us), *tex, *hist, *motion]) + "\n")
