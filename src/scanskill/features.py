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

import ctypes
import functools
import math
import multiprocessing
import os
import threading
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .core import check_int, check_real, is_int, q_geodesic_angle, q_inverse, q_multiply
from .ingest import Frame, Poses, Session, _read, _uint8_pixels, _write_csv

if TYPE_CHECKING:
    from .fusion import FusedGrid

__all__ = [
    "FeatureTable",
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
    "write_plot_csv",
]

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
        if not is_int(self.levels) or self.levels not in ALLOWED_LEVELS:
            raise ValueError(f"levels must be one of {ALLOWED_LEVELS}, got {self.levels!r}")
        if not isinstance(self.offsets, (list, tuple)) or not all(
            _is_int_seq(pair, 2) for pair in self.offsets
        ):
            raise ValueError(f"offsets must be (dx, dy) integer pairs, got {self.offsets!r}")
        offsets = tuple(map(tuple, self.offsets))
        if not offsets:
            raise ValueError("offsets must be non-empty")
        if (0, 0) in offsets:
            raise ValueError("offset (0, 0) is not a displacement")
        object.__setattr__(self, "offsets", offsets)
        if not isinstance(self.symmetric, bool):
            raise ValueError(f"symmetric must be a bool, got {self.symmetric!r}")
        if self.roi is not None:
            if not _is_int_seq(self.roi, 4):
                raise ValueError(f"roi must be None or (x, y, w, h) integers, got {self.roi!r}")
            x, y, w, h = self.roi
            if w <= 0 or h <= 0 or x < 0 or y < 0:
                raise ValueError("roi must be (x, y, w, h) with positive size")
            object.__setattr__(self, "roi", tuple(self.roi))


def _is_int_seq(value, n: int) -> bool:
    """True for a list or tuple of ``n`` integers."""
    return isinstance(value, (list, tuple)) and len(value) == n and all(map(is_int, value))


class TextureFeatures(NamedTuple):
    """Texture of one normalized co-occurrence matrix P.

    ``asm`` is the angular second moment ``sum P^2``, feature f1 of
    Haralick, Shanmugam & Dinstein, "Textural features for image
    classification" (IEEE Trans. SMC 3(6), 1973).  ``energy`` is
    ``sqrt(asm)``: Haralick et al. define no energy, and later usage varies
    (some libraries call f1 itself energy).  ``homogeneity`` is
    ``sum P/(1+(i-j)^2)``, their f5, the inverse difference moment.
    """

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

    def __post_init__(self) -> None:
        check_int("speed_smoothing_window", self.speed_smoothing_window)
        for name in ("sparc_cutoff_hz", "sparc_amplitude_threshold"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if not self.sparc_cutoff_hz > 0:
            raise ValueError("sparc_cutoff_hz must be > 0")
        if not 0 < self.sparc_amplitude_threshold <= 1:
            raise ValueError("sparc_amplitude_threshold must be in (0, 1]")


# ---------------------------------------------------------------------------
# texture

def _pixels_of(frame: Frame | np.ndarray, roi: tuple[int, int, int, int] | None) -> np.ndarray:
    """The uint8 pixels of ``frame`` in its (x, y, w, h) ``roi``, all of them when None."""
    px = frame.pixels if isinstance(frame, Frame) else _uint8_pixels(frame)
    if roi is None:
        return px
    x, y, w, h = roi
    if x < 0 or y < 0 or w <= 0 or h <= 0 or y + h > px.shape[0] or x + w > px.shape[1]:
        raise ValueError(f"roi out of bounds: {roi} in a {px.shape[1]}x{px.shape[0]} frame")
    return px[y : y + h, x : x + w]


def quantize(
    frame: Frame | np.ndarray, levels: int, roi: tuple[int, int, int, int] | None = None
) -> np.ndarray:
    """Map 8-bit pixels to ``floor(p * levels / 256)`` over the ROI (or all)."""
    if levels not in ALLOWED_LEVELS:
        raise ValueError(f"levels must be one of {ALLOWED_LEVELS}")
    # All allowed level counts are powers of two: floor(p*L/256) == p >> shift.
    return _pixels_of(frame, roi) >> (9 - levels.bit_length())


def _pair_region(shape: tuple[int, int], offset: tuple[int, int]) -> tuple[int, int, int, int]:
    """Bounds (y0, y1, x0, x1) of the pixels whose ``offset`` partner is inside ``shape``."""
    dx, dy = offset
    h, w = shape
    y0, y1 = max(0, -dy), h - max(0, dy)
    x0, x1 = max(0, -dx), w - max(0, dx)
    if y1 <= y0 or x1 <= x0:
        raise ValueError(
            f"empty co-occurrence: offset {offset} leaves no pixel pair in a {w}x{h} image"
        )
    return y0, y1, x0, x1


def _pair_counts(q: np.ndarray, offset: tuple[int, int], levels: int) -> np.ndarray:
    """Counts of the pairs ``(q[y][x], q[y+dy][x+dx])``, int64 (levels, levels).

    ``q`` holds values in ``[0, levels)``.  The pair codes ``a * levels + b``
    are built in the narrowest unsigned type that holds them, uint16 at most
    for any allowed level count, which moves a quarter of the bytes ``intp``
    codes would.
    """
    y0, y1, x0, x1 = _pair_region(q.shape, offset)
    dx, dy = offset
    codes = q[y0:y1, x0:x1].astype(np.min_scalar_type(levels * levels - 1))
    codes *= levels
    np.add(codes, q[y0 + dy : y1 + dy, x0 + dx : x1 + dx], out=codes, casting="unsafe")
    return np.bincount(codes.ravel(), minlength=levels * levels).reshape(levels, levels)


def glcm_counts(img: np.ndarray, levels: int, offset: tuple[int, int]) -> np.ndarray:
    """Raw (asymmetric) co-occurrence counts for one offset, int64 (L, L)."""
    img = np.asarray(img).astype(np.int32)
    if img.size and (img.min() < 0 or img.max() >= levels):
        raise ValueError(f"image values must lie in [0, {levels})")
    return _pair_counts(img, offset, levels)


def _normalize(counts: np.ndarray, symmetric: bool) -> np.ndarray:
    """Counts (..., L, L) as co-occurrence matrices that each sum to 1."""
    if symmetric:
        counts = counts + np.swapaxes(counts, -1, -2)
    return counts / counts.sum(axis=(-2, -1), keepdims=True)


def glcm(
    img: np.ndarray, levels: int, offset: tuple[int, int], symmetric: bool = True
) -> np.ndarray:
    """Normalized co-occurrence matrix P (sums to 1) for one offset."""
    return _normalize(glcm_counts(img, levels, offset), symmetric)


# Bounded, as texture_features takes a matrix of any size; the allowed levels fit.
@functools.lru_cache(maxsize=len(ALLOWED_LEVELS))
def _homogeneity_weights(levels: int) -> np.ndarray:
    idx = np.arange(levels)
    weights = 1.0 / (1.0 + (idx[:, None] - idx[None, :]) ** 2)
    weights.flags.writeable = False  # one array for every caller
    return weights


def texture_features(P: np.ndarray) -> TextureFeatures:
    """ASM, energy, homogeneity of one normalized co-occurrence matrix.

    As defined by Haralick et al. (1973); see :class:`TextureFeatures`.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("co-occurrence matrix must be square")
    total = float(P.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"unnormalized co-occurrence matrix (sum {total})")
    asm = float(np.sum(P * P))
    homogeneity = float(np.sum(P * _homogeneity_weights(P.shape[0])))
    return TextureFeatures(asm=asm, energy=math.sqrt(asm), homogeneity=homogeneity)


def histogram_stats(frame: Frame | np.ndarray, roi=None) -> HistogramStats:
    """Intensity distribution over the same region texture uses."""
    px = _pixels_of(frame, roi)
    if px.size == 0:
        raise ValueError("empty frame")
    return _histogram(np.bincount(px.ravel(), minlength=256), px.size)


def _histogram(counts: np.ndarray, n: int) -> HistogramStats:
    """Statistics of a 256-bin intensity count over ``n`` pixels."""
    bins = counts / n
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
    averaging.  The results equal those of :func:`quantize`, :func:`glcm`,
    :func:`texture_features` and :func:`histogram_stats` bit for bit,
    whether the compiled kernel or numpy counts the pairs.
    """
    px = _pixels_of(frame, cfg.roi)
    # From 2^32 pixels on, a uint32 table of the kernel could overflow.
    kernel = _kernel() if px.size < 1 << 32 else None
    counts, hist_counts = (
        _numpy_counts(px, cfg) if kernel is None else _compiled_counts(kernel, px, cfg)
    )
    P = _normalize(counts, cfg.symmetric).reshape(len(counts), -1)
    # Each row sum reduces one matrix as np.sum does in texture_features, and
    # Python's sum adds the offsets in order: the composition's exact result.
    asm = sum(np.sum(P * P, axis=1).tolist()) / len(P)
    weights = _homogeneity_weights(cfg.levels).reshape(-1)
    homogeneity = sum(np.sum(P * weights, axis=1).tolist()) / len(P)
    texture = TextureFeatures(asm=asm, energy=math.sqrt(asm), homogeneity=homogeneity)
    return texture, _histogram(hist_counts, px.size)


def _numpy_counts(px: np.ndarray, cfg: GlcmConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (n_offsets, L, L) co-occurrence counts and 256-bin histogram of ``px``."""
    q = quantize(px, cfg.levels)
    counts = np.stack([_pair_counts(q, offset, cfg.levels) for offset in cfg.offsets])
    return counts, np.bincount(px.ravel(), minlength=256)


def _compiled_counts(
    kernel: ctypes.CDLL, px: np.ndarray, cfg: GlcmConfig
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_numpy_counts` through the compiled kernel."""
    # The regions keep every pixel and its partner inside px, so every
    # index and byte offset the kernel forms lies within px.
    regions = [_pair_region(px.shape, offset) for offset in cfg.offsets]
    if px.strides[1] != 1:
        px = np.ascontiguousarray(px)
    stride = px.strides[0]
    counts = np.empty((len(cfg.offsets), cfg.levels, cfg.levels), np.int64)
    for out, (dx, dy), (y0, y1, x0, x1) in zip(counts, cfg.offsets, regions):
        start = px.ctypes.data + y0 * stride + x0
        kernel.pair_counts(start, stride, y1 - y0, x1 - x0, dy * stride + dx, cfg.levels,
                           out.ctypes.data)
    hist = np.empty(256, np.int64)
    kernel.histogram(px.ctypes.data, stride, *px.shape, hist.ctypes.data)
    return counts, hist


_KERNEL_SOURCE = Path(__file__).with_name("_glcm.c")
_KERNEL_FLAGS = ("-O2", "-shared", "-fPIC")


@functools.cache
def _kernel() -> ctypes.CDLL | None:
    """The counting kernel in ``_glcm.c``, compiled on first use; None if it cannot be.

    The library is cached per user, under ``$XDG_CACHE_HOME/scanskill`` or
    ``~/.cache/scanskill``, in a file named by the source's length and a
    CRC-32 of the source and compiler flags.
    """
    try:
        code = _KERNEL_SOURCE.read_bytes()
        key = zlib.crc32(code + " ".join(_KERNEL_FLAGS).encode())
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache", "scanskill")
        path = cache / f"_glcm-{len(code)}-{key:08x}.so"
        if not path.exists():
            _compile_kernel(path)
        kernel = ctypes.CDLL(str(path))
    except (OSError, RuntimeError):  # no cc, a failed compile, an unwritable cache or home
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    kernel.pair_counts.argtypes = [ptr, size, size, size, size, ctypes.c_int, ptr]
    kernel.pair_counts.restype = None
    kernel.histogram.argtypes = [ptr, size, size, size, ptr]
    kernel.histogram.restype = None
    return kernel


def _compile_kernel(path: Path) -> None:
    """Build ``_glcm.c`` into ``path``; concurrent builds each replace it whole."""
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        built = os.path.join(tmp, path.name)
        cc = subprocess.run(
            ["cc", *_KERNEL_FLAGS, "-o", built, str(_KERNEL_SOURCE)], capture_output=True
        )
        if cc.returncode:
            raise OSError(f"cc failed on {_KERNEL_SOURCE}: {cc.stderr.decode(errors='replace')}")
        os.replace(built, path)


# ---------------------------------------------------------------------------
# motion

def angular_velocity(fused: FusedGrid | Poses, delta_t_us: int) -> MotionSeries:
    """Body-frame angular velocity between consecutive grid poses, from the
    ``t_us`` and ``q`` columns of a fused grid (or of a pose stream).

    ``omega_k = 2 * log(q_k^-1 ⊗ q_{k+1}) / dt`` with the quaternion log
    mapping a rotation of angle theta about unit axis n to (theta/2)·n.
    Inputs must be hemisphere-aligned and on a uniform grid.
    """
    t, q = fused.t_us, fused.q
    if len(t) < 2:
        raise ValueError("need at least 2 fused samples")
    if np.any(np.diff(t) != delta_t_us):
        raise ValueError("non-uniform grid")
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


def path_length(fused: FusedGrid | Poses) -> float:
    """Total geodesic angle swept along the ``q`` column, in radians."""
    q = fused.q
    if len(q) < 2:
        raise ValueError("need at least 2 samples")
    return float(np.sum(q_geodesic_angle(q[:-1], q[1:])))


def smooth_speed(
    speed: np.ndarray, window: int = SmoothnessConfig.speed_smoothing_window
) -> np.ndarray:
    """Centered moving average of ``window`` samples; it shrinks at the series edges.

    Sample k averages ``(window - 1) // 2`` samples before it and
    ``window // 2`` after, so an even window reaches one sample further ahead.
    """
    v = np.asarray(speed, dtype=np.float64)
    if window <= 1 or v.size == 0:
        return v.copy()
    csum = np.concatenate([[0.0], np.cumsum(v)])
    i = np.arange(v.size)
    lo = np.maximum(0, i - (window - 1) // 2)
    hi = np.minimum(v.size, i + window // 2 + 1)
    return (csum[hi] - csum[lo]) / (hi - lo)


def log_dimensionless_jerk(speed: np.ndarray, delta_t_s: float) -> float:
    """LDLJ of a speed profile: ``-ln((T^3 / v_peak^2) * sum (d²v/dt²)^2 * dt)``.

    ``d²v/dt²``, the jerk of the speed profile, is ``np.gradient`` applied
    twice (central differences, one-sided at the boundaries), and ``T`` is
    the series duration, as in Balasubramanian, Melendez-Calderon & Burdet
    (IEEE TBME 59(8), 2012) and Balasubramanian et al. (JNER 12:112, 2015).
    ``T = (n - 1)·dt``: the movement runs from the first speed sample to the
    last, and n samples on a uniform grid span n - 1 steps, so ``n·dt``
    would count a step past the last sample that no speed was recorded in.
    Invariant under positive scaling of the speed and, up to the
    discretisation, of the duration; more negative means jerkier.  Raises
    ValueError when ``v_peak^2`` or the cost leaves floating-point range.
    """
    v = np.asarray(speed, dtype=np.float64)
    if v.size < 3:
        raise ValueError("speed series too short (need >= 3 samples)")
    v_peak = float(np.max(np.abs(v)))
    if v_peak == 0.0:
        raise ValueError("no motion")
    if v_peak**2 == 0.0:
        raise ValueError(f"peak speed {v_peak!r} squared underflows")
    jerk = np.gradient(np.gradient(v, delta_t_s), delta_t_s)
    duration = (v.size - 1) * delta_t_s
    cost = (duration**3 / v_peak**2) * float(np.sum(jerk * jerk)) * delta_t_s
    if not 0.0 < cost < math.inf:
        raise ValueError(f"jerk cost {cost!r} is not a finite positive number")
    return -math.log(cost)


# Zero-padding exponent for the SPARC spectrum: nfft = 2**(ceil(log2 n) + 4).
_SPARC_PAD_LEVEL = 4


def sparc(
    speed: np.ndarray,
    sample_rate_hz: float,
    cutoff_hz: float = SmoothnessConfig.sparc_cutoff_hz,
    amplitude_threshold: float = SmoothnessConfig.sparc_amplitude_threshold,
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
class FeatureTable:
    """The per-session feature series: one field per ``features.csv`` column, in order.

    Row k is fused grid instant k.  The texture and histogram columns are
    NaN where that instant has no frame; ``omega`` and ``speed`` are NaN on
    row 0, which no grid step leads into.
    """

    t_us: np.ndarray  # (n,) int64
    asm: np.ndarray  # (n,) float64, as are all but omega
    energy: np.ndarray
    homogeneity: np.ndarray
    hist_mean: np.ndarray
    hist_var: np.ndarray
    hist_entropy: np.ndarray
    omega: np.ndarray  # (n, 3) rad/s, body frame
    speed: np.ndarray  # rad/s

    def __len__(self) -> int:
        return len(self.t_us)


# The per-frame columns of FeatureTable, asm to hist_entropy: NaN at an instant with no frame.
FRAME_COLUMNS = tuple(f.name for f in fields(FeatureTable)[1:-2])
# The features.csv header: FeatureTable's fields, omega as one column per axis.
FEATURES_HEADER = ",".join(
    "omega_x,omega_y,omega_z" if f.name == "omega" else f.name for f in fields(FeatureTable)
)


def compute_feature_table(session: Session, fused: FusedGrid, cfg: GlcmConfig) -> FeatureTable:
    """Texture + histogram per grid instant, motion per grid step.

    Frame features are computed once per pixel source of
    ``session.frames`` that a grid instant reads, and shared by every grid
    instant whose frame reads it.  The sources are visited in index order,
    and a run of sources whose pixels are equal, byte for byte, to the one
    before is featurised once, so a still probe costs one GLCM per run;
    every source is still decoded or rendered, and each process holds at
    most two sources' pixels at a time.  Large sessions compute the
    features in a process pool, with identical results.
    """
    n, t_us = len(fused), fused.t_us
    has_frame = fused.frame_idx >= 0
    source = session.frames.source[fused.frame_idx[has_frame]]
    used, inverse = np.unique(source, return_inverse=True)
    rows = _distinct_frame_features(session.frames.sources, used.tolist(), cfg)
    per_source = np.array(rows).reshape(-1, len(FRAME_COLUMNS))
    frame_columns = np.full((len(FRAME_COLUMNS), n), np.nan)
    frame_columns[:, has_frame] = per_source[inverse].T
    omega, speed = np.full((n, 3), np.nan), np.full(n, np.nan)
    if n >= 2:
        motion = angular_velocity(fused, int(t_us[1] - t_us[0]))
        omega[1:], speed[1:] = motion.omega, motion.speed
    return FeatureTable(t_us, *frame_columns, omega, speed)


# Below this many pixels across a session's distinct pixel sources the
# features are computed serially.  On two cores, with the compiled kernel
# counting, the pool breaks even at about 9 to 12 Mpx, both for 320x240
# frames in memory and for 640x480 frames decoded from disk; the margin above
# that keeps short sessions, whose saving would be within noise, off the pool.
_POOL_MIN_PIXELS = 1 << 24
# Each worker takes about this many chunks of frames, so that a slow chunk
# near the end leaves little idle time on the other workers.
_CHUNKS_PER_WORKER = 8

# Set in each pool worker by _init_worker: (sources, cfg) inherited by fork.
_worker_job: tuple[Sequence, GlcmConfig] | None = None


def _pool_workers(sources: Sequence, indices: Sequence[int]) -> int:
    """How many worker processes to use for ``sources[indices]``; <= 1 means serial."""
    pixels = sum(math.prod(sources[i].shape) for i in indices)
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


def _frame_rows(
    sources: Sequence, indices: Sequence[int], cfg: GlcmConfig
) -> list[tuple[float, ...]]:
    """``_frame_row`` of the pixels of each ``sources[i]``, in the order of ``indices``.

    Every source is decoded or rendered; one whose pixels equal the previous
    one's reuses that row instead of calling :func:`frame_features` again.
    At most two sources' pixels are held at a time, the current and the
    previous one.
    """
    rows: list[tuple[float, ...]] = []
    previous = None
    for i in indices:
        pixels = _read(sources[i])
        if previous is None or not np.array_equal(pixels, previous):
            row = _frame_row(pixels, cfg)
        rows.append(row)
        previous = pixels
    return rows


def _frame_row(pixels: np.ndarray, cfg: GlcmConfig) -> tuple[float, ...]:
    """The six ``FeatureTable`` frame columns, asm to hist_entropy, of one frame.

    Only these floats outlive the call.  Each frame's histogram bins and
    GLCM temporaries are freed before the next frame is decoded, so no small
    per-frame array is left between the frame-sized blocks on the heap,
    where it would keep the allocator from reusing them.
    """
    tex, hist = frame_features(pixels, cfg)
    return (*tex, hist.mean, hist.variance, hist.entropy)


def _distinct_frame_features(
    sources: Sequence, indices: Sequence[int], cfg: GlcmConfig
) -> list[tuple[float, ...]]:
    """``_frame_rows(sources, indices, cfg)``, serially or in a process pool.

    Large sessions are spread over a fork process pool, one worker per CPU
    this process may run on, each taking contiguous chunks of ``indices``
    (a run of equal sources cut by a chunk boundary is featurised once per
    chunk).  The workers inherit ``sources`` and ``cfg`` through the fork
    and decode files, or render phantoms, themselves, so the caller never
    holds the session's pixels.  A worker that dies raises
    ``concurrent.futures.BrokenExecutor`` here.
    """
    workers = _pool_workers(sources, indices)
    if workers <= 1:
        return _frame_rows(sources, indices, cfg)
    _kernel()  # loaded, or built, once here; the workers inherit it through the fork
    chunksize = max(1, len(indices) // (workers * _CHUNKS_PER_WORKER))
    chunks = [indices[k : k + chunksize] for k in range(0, len(indices), chunksize)]
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(sources, cfg),
    ) as pool:
        return [row for rows in pool.map(_worker_frame_rows, chunks) for row in rows]


def _init_worker(sources: Sequence, cfg: GlcmConfig) -> None:
    global _worker_job
    _worker_job = (sources, cfg)


def _worker_frame_rows(indices: Sequence[int]) -> list[tuple[float, ...]]:
    sources, cfg = _worker_job
    return _frame_rows(sources, indices, cfg)


def write_features_csv(path: str | Path, table: FeatureTable) -> None:
    """Write the feature table as CSV; NaN (absent) values are empty fields."""
    values = np.column_stack([getattr(table, f.name) for f in fields(table)[1:]]).tolist()
    _write_csv(path, FEATURES_HEADER, ([t, *row] for t, row in zip(table.t_us.tolist(), values)))


def write_plot_csv(path: str | Path, fused: FusedGrid, table: FeatureTable) -> None:
    """Write ``plot.csv``: ``t_us,series,value`` rows of each ``FRAME_COLUMNS`` column of
    ``table``, then of ``qw``..``qz`` of ``fused``, its grid; a NaN value has no row."""
    series = {name: getattr(table, name) for name in FRAME_COLUMNS}
    series.update(zip(("qw", "qx", "qy", "qz"), fused.q.T))
    t_us = table.t_us.tolist()
    rows = (
        (t, name, value)
        for name, column in series.items()
        for t, value in zip(t_us, column.tolist())
        if value == value
    )
    _write_csv(path, "t_us,series,value", rows)
