"""Read, validate, and persist recorded sessions.

On-disk layout of one session directory::

    manifest.json        session identity + nominal rates
    pose.csv             header ``t_us,w,x,y,z``; one IMU orientation per line
    frames/index.csv     header ``t_us,file``; paths relative to session root
    frames/NNNNNN.pgm    binary PGM (P5, maxval 255), zero-padded 6 digits

``pose.csv`` quaternions are Hamilton scalar-first (see
:mod:`scanskill.core`); adapters for sensors using other conventions must
convert before writing this format.

In memory both streams are read-only columns: :class:`Poses` of times and
quaternions, :class:`Frames` of times and pixel source indices.  A source is
one PGM file (its header parsed once, at load), one held pixel array or one
synthetic phantom, shared by every frame that reads it.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .core import INT64_MAX, SessionMeta, q_normalize

__all__ = [
    "Frame",
    "Frames",
    "PgmFile",
    "PoseSample",
    "Poses",
    "Session",
    "ValidationFinding",
    "ValidationReport",
    "load_session",
    "read_frame_index",
    "read_manifest",
    "read_pgm",
    "read_pose_csv",
    "validate_session",
    "write_manifest",
    "write_pgm",
    "write_pose_csv",
    "write_session",
]

POSE_HEADER = "t_us,w,x,y,z"
FRAME_INDEX_HEADER = "t_us,file"

_MANIFEST_KEYS = tuple(f.name for f in fields(SessionMeta))
# Extension key written by the synthetic-session generator; tolerated on read.
_MANIFEST_EXTRA_KEYS = ("synthetic_profile",)

# Largest |norm - 1| a Poses accepts in a quaternion.
_QUAT_NORM_TOL = 1e-3
# Validation thresholds.
_SPAN_MISMATCH_FRAC = 0.10
_GAP_PERIODS = 5


@dataclass(frozen=True)
class PoseSample:
    """One timestamped IMU orientation."""

    t_us: int
    q: np.ndarray  # shape (4,), [w, x, y, z]


def _uint8_pixels(pixels) -> np.ndarray:
    """``pixels`` as uint8; a plain cast would wrap 300 to 44 and truncate floats silently."""
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8:
        if pixels.dtype.kind not in "iu" or np.any((pixels < 0) | (pixels > 255)):
            raise ValueError("pixels must be uint8 or integers in [0, 255]")
        pixels = pixels.astype(np.uint8)
    return pixels


def _read(source) -> np.ndarray:
    """A pixel source's (height, width) uint8 pixels: a held array itself, else read now."""
    return source if isinstance(source, np.ndarray) else source.read()


@dataclass(frozen=True, slots=True, eq=False)
class Frame:
    """One frame of a :class:`Frames`.  ``pixels`` is its (height, width) uint8
    array: a held array as it is, else decoded or rendered on each access."""

    t_us: int
    _source: object

    width = property(lambda self: self._source.shape[1])
    height = property(lambda self: self._source.shape[0])
    pixels = property(lambda self: _read(self._source))


class PgmFile(NamedTuple):
    """A PGM file as a pixel source; :meth:`read` decodes it with one read and
    raises if the header is not the one seen at load or the raster is short."""

    path: Path
    shape: tuple[int, int]  # (height, width)
    header: bytes

    def read(self) -> np.ndarray:
        n, size = len(self.header), self.shape[0] * self.shape[1]
        with open(self.path, "rb") as fh:
            data = fh.read(n + size)
        if not data.startswith(self.header):
            raise ValueError(f"frame geometry changed: {self.path}")
        if len(data) < n + size:
            raise ValueError(f"truncated raster in {self.path}")
        return np.frombuffer(data, dtype=np.uint8, offset=n).reshape(self.shape)


@dataclass(frozen=True, eq=False)
class Frames:
    """A frame stream as read-only columns over shared pixel sources.

    ``t_us`` (m,) int64 strictly increases, else ValueError names the first
    offending index.  ``source`` (m,) int64 indexes ``sources``, one per
    distinct pixel data: a held 2-D array (cast to uint8), a :class:`PgmFile`
    or a synthetic phantom.  Indexing and iteration give :class:`Frame` views.
    """

    t_us: np.ndarray
    source: np.ndarray
    sources: tuple

    def __post_init__(self) -> None:
        t = np.array(self.t_us, dtype=np.int64)
        source = np.array(self.source, dtype=np.int64)
        sources = tuple(s if hasattr(s, "read") else _uint8_pixels(s) for s in self.sources)
        if t.ndim != 1 or source.shape != t.shape or any(len(s.shape) != 2 for s in sources):
            raise ValueError("frames need t_us (m,), source (m,) and 2-D sources")
        if source.size and not 0 <= source.min() <= source.max() < len(sources):
            raise ValueError(f"frame source index outside 0..{len(sources) - 1}")
        _check_advancing("frame", t)
        t.flags.writeable = source.flags.writeable = False
        for name, value in (("t_us", t), ("source", source), ("sources", sources)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.t_us)

    def __getitem__(self, i: int) -> Frame:
        return Frame(int(self.t_us[i]), self.sources[self.source[i]])

    def __iter__(self) -> Iterator[Frame]:
        return map(Frame, self.t_us.tolist(), map(self.sources.__getitem__, self.source.tolist()))


@dataclass(frozen=True, eq=False)
class Poses:
    """A pose stream as read-only columns: ``t_us`` (n,) int64, ``q`` (n, 4) float64.

    Construction copies both and checks what fusion and every metric assume:
    ``t_us`` strictly increases and each quaternion's norm is within 1e-3 of 1,
    else ValueError names the first offending index.  ``len`` and iteration
    give :class:`PoseSample` views, for callers taking one at a time.
    """

    t_us: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.t_us, dtype=np.int64)
        q = np.array(self.q, dtype=np.float64)
        if t.ndim != 1 or q.shape != (len(t), 4):
            raise ValueError(f"poses need t_us (n,) and q (n, 4), got {t.shape} and {q.shape}")
        _check_advancing("pose", t)
        # hypot, unlike a sum of squares, neither overflows nor warns for a
        # finite q; a NaN norm fails the test below too.
        norms = np.hypot.reduce(q, axis=1)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _QUAT_NORM_TOL))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"pose {i} has norm {norms[i]:.6f} (deviation > {_QUAT_NORM_TOL})")
        t.flags.writeable = q.flags.writeable = False
        object.__setattr__(self, "t_us", t)
        object.__setattr__(self, "q", q)

    def __len__(self) -> int:
        return len(self.t_us)

    def __iter__(self) -> Iterator[PoseSample]:
        return map(PoseSample, self.t_us.tolist(), self.q)


@dataclass(frozen=True)
class Session:
    """A full recorded session: metadata plus both sensor streams.

    Each stream holds its own invariants (see :class:`Poses` and
    :class:`Frames`); either may be empty.
    """

    meta: SessionMeta
    poses: Poses
    frames: Frames
    synthetic_profile: dict | None = None

    def __post_init__(self) -> None:
        for name, kind in (("poses", Poses), ("frames", Frames)):
            if not isinstance(value := getattr(self, name), kind):
                raise TypeError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _check_advancing(name: str, t: np.ndarray) -> None:
    """Raise ValueError at the first ``t_us`` that does not advance past the one before."""
    back = np.flatnonzero(t[1:] <= t[:-1])
    if back.size:
        i = int(back[0]) + 1
        raise ValueError(
            f"{name} stream: t_us {t[i]} at index {i} does not advance past {t[i - 1]}"
        )


# ---------------------------------------------------------------------------
# pose.csv and frames/index.csv

def _rows(path: str | Path, header: str, n_fields: int):
    """Yield ``(lineno, t_us, other_fields)`` for each data line of a session CSV.

    The grammar ``pose.csv`` and ``frames/index.csv`` share: ``header``, blank lines
    skipped, ``n_fields`` fields, an integer ``t_us`` in ``[0, INT64_MAX]`` first that
    strictly increases.  Raises ValueError naming the 1-based line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().rstrip("\r\n") != header:
            raise ValueError(f"bad header line 1: expected '{header}'")
        prev_t = None
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_fields:
                raise ValueError(
                    f"malformed line {lineno}: expected {n_fields} fields, got {len(parts)}"
                )
            try:
                t = int(parts[0])
            except ValueError as exc:
                raise ValueError(f"malformed line {lineno}: {exc}") from None
            if not 0 <= t <= INT64_MAX:
                raise ValueError(f"malformed line {lineno}: t_us {t} outside 0..{INT64_MAX}")
            if prev_t is not None and t <= prev_t:
                raise ValueError(f"timestamp regression at line {lineno}")
            prev_t = t
            yield lineno, t, parts[1:]


def _write_csv(path: str | Path, header: str, rows: Iterable[Iterable]) -> None:
    """Write ``header`` and ``rows`` as UTF-8 CSV with ``\\n`` line ends: every output CSV.

    A ``None`` or NaN field is empty, any other is its ``str``, which for a Python
    float is its shortest round-trip ``repr``; so pass plain values (``.tolist()``).
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("" if v is None or v != v else str(v) for v in row) + "\n")


def read_pose_csv(path: str | Path) -> Poses:
    """Parse a ``pose.csv`` file into an ordered pose stream.

    Quaternions are normalized on read (sensor quantization tolerated), and
    every finite row but all zeros keeps its direction.  Raises ValueError
    with a 1-based line number on malformed lines (including non-finite
    quaternion components) and on timestamp regressions; an empty file
    raises ``"no samples"``.
    """
    times: list[int] = []
    quats: list[list[float]] = []
    for lineno, t, parts in _rows(path, POSE_HEADER, 5):
        try:
            comps = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"malformed line {lineno}: {exc}") from None
        w, x, y, z = comps
        # Checked row by row to keep errors in file order.  A finite row whose sum
        # of squares is not a finite normal float is first scaled by its largest
        # |component|, as math.hypot does, so that normalizing keeps its direction.
        if not sys.float_info.min <= w * w + x * x + y * y + z * z < math.inf:
            if not all(map(math.isfinite, comps)):
                raise ValueError(f"malformed line {lineno}: non-finite quaternion component")
            if not any(comps):
                raise ValueError(f"line {lineno}: degenerate quaternion")
            scale = max(map(abs, comps))
            comps = [c / scale for c in comps]
        times.append(t)
        quats.append(comps)
    if not times:
        raise ValueError("no samples")
    return Poses(np.array(times, dtype=np.int64), q_normalize(np.array(quats)))


def write_pose_csv(path: str | Path, poses: Poses) -> None:
    rows = ([t, *q] for t, q in zip(poses.t_us.tolist(), poses.q.tolist()))
    _write_csv(path, POSE_HEADER, rows)


# ---------------------------------------------------------------------------
# PGM frames

def read_pgm(path: str | Path) -> tuple[int, int, np.ndarray]:
    """Read a binary PGM (P5, maxval 255). Returns (width, height, pixels)."""
    pgm = _read_pgm_header(path)
    return pgm.shape[1], pgm.shape[0], pgm.read()


def _read_pgm_header(path) -> PgmFile:
    """Parse and check the P5 header of the file at ``path``, as a :class:`PgmFile`.

    The header is read byte by byte, so ``#`` comments of any length are
    accepted and the raster is never read.  A file shorter than the raster
    the header claims raises ValueError.
    """
    with open(path, "rb") as fh:
        fields: list[bytes] = []
        token = bytearray()
        while len(fields) < 4:
            c = fh.read(1)
            if c and not c.isspace() and not (c == b"#" and not token):
                token += c
                continue
            # A token ends at one whitespace byte; after maxval that byte is the
            # single separator before the raster.
            if token:
                fields.append(bytes(token))
                token.clear()
                if len(fields) == 1 and fields[0] != b"P5":
                    raise ValueError(f"unsupported PGM magic {fields[0]!r} in {path}")
            elif not c:
                raise ValueError(f"truncated PGM header in {path}")
            elif c == b"#":
                fh.readline()  # comment runs to the end of the line
        for f in fields[1:]:
            # ASCII digits only: int() also takes "+255" and "1_0", and its errors name no file.
            if not (f.isdigit() and len(f) <= 19):
                raise ValueError(f"bad PGM header field {f[:20]!r} in {path}")
        width, height, maxval = (int(f) for f in fields[1:])
        if maxval != 255:
            raise ValueError(f"unsupported depth (maxval {maxval}) in {path}")
        if width <= 0 or height <= 0:
            raise ValueError(f"bad dimensions {width}x{height} in {path}")
        # Checked before any read: a header may claim more than any buffer can hold.
        n = fh.tell()
        if width * height > os.fstat(fh.fileno()).st_size - n:
            raise ValueError(f"truncated raster in {path}")
        fh.seek(0)
        return PgmFile(path, (height, width), fh.read(n))


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    """Write a (height, width) uint8 array as binary PGM (P5, maxval 255)."""
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_frame_index(session_dir: str | Path) -> Frames:
    """Read ``frames/index.csv`` and validate the header of every PGM it names.

    Each distinct file is one :class:`PgmFile` source, its header parsed here
    once; pixel data stays on disk (lazy).  A file too short for the raster
    its header claims raises ``"truncated raster in …"``, and a mid-session
    change of dimensions ``"frame geometry changed"``.
    """
    session_dir = Path(session_dir)
    index_path = session_dir / "frames" / "index.csv"
    if not index_path.is_file():
        raise ValueError(f"missing frame index {index_path}")
    times: list[int] = []
    source: list[int] = []
    files: dict[str, int] = {}  # str(path), normalised and quick to hash -> source index
    sources: list[PgmFile] = []
    for lineno, t, (rel,) in _rows(index_path, FRAME_INDEX_HEADER, 2):
        # Lexical check, so no syscall per frame: stay inside the session.
        if rel.startswith("/") or ".." in rel.split("/"):
            raise ValueError(f"line {lineno}: frame path {rel} leaves the session")
        path = session_dir / rel
        k = files.get(str(path))
        if k is None:
            if not path.is_file():
                raise ValueError(f"missing frame file {rel}")
            sources.append(_read_pgm_header(path))
            if sources[-1].shape != sources[0].shape:
                raise ValueError("frame geometry changed")
            k = files[str(path)] = len(sources) - 1
        times.append(t)
        source.append(k)
    return Frames(times, source, tuple(sources))


# ---------------------------------------------------------------------------
# manifest.json

def write_manifest(
    session_dir: str | Path,
    meta: SessionMeta,
    synthetic_profile: dict | None = None,
) -> None:
    doc = asdict(meta)
    if synthetic_profile is not None:
        doc["synthetic_profile"] = synthetic_profile
    path = Path(session_dir) / "manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_manifest(session_dir: str | Path) -> tuple[SessionMeta, dict | None]:
    """Read ``manifest.json``; returns (meta, synthetic_profile-or-None)."""
    path = Path(session_dir) / "manifest.json"
    if not path.is_file():
        raise ValueError(f"missing manifest {path}")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"manifest {path} must hold a JSON object")
    unknown = set(doc) - set(_MANIFEST_KEYS) - set(_MANIFEST_EXTRA_KEYS)
    if unknown:
        raise ValueError(f"unknown manifest key(s): {', '.join(map(repr, sorted(unknown)))}")
    missing = set(_MANIFEST_KEYS) - set(doc)
    if missing:
        raise ValueError(f"missing manifest key(s): {', '.join(sorted(missing))}")
    meta = SessionMeta(**{key: doc[key] for key in _MANIFEST_KEYS})
    return meta, doc.get("synthetic_profile")


# ---------------------------------------------------------------------------
# whole-session I/O

def write_session(session_dir: str | Path, session: Session) -> None:
    """Persist a session in the documented directory layout."""
    session_dir = Path(session_dir)
    frames_dir = session_dir / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(session_dir, session.meta, session.synthetic_profile)
    write_pose_csv(session_dir / "pose.csv", session.poses)
    rows = [(t, f"frames/{i:06d}.pgm") for i, t in enumerate(session.frames.t_us.tolist())]
    for frame, (_, rel) in zip(session.frames, rows):
        write_pgm(session_dir / rel, frame.pixels)
    _write_csv(frames_dir / "index.csv", FRAME_INDEX_HEADER, rows)


def load_session(session_dir: str | Path) -> Session:
    """Load a persisted session; frame pixels are read lazily."""
    session_dir = Path(session_dir)
    meta, profile = read_manifest(session_dir)
    pose_path = session_dir / "pose.csv"
    if not pose_path.is_file():
        raise ValueError(f"missing pose stream {pose_path}")
    poses = read_pose_csv(pose_path)
    frames = read_frame_index(session_dir)
    return Session(meta=meta, poses=poses, frames=frames, synthetic_profile=profile)


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class ValidationFinding:
    kind: str
    message: str


@dataclass
class ValidationReport:
    findings: list[ValidationFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, kind: str, message: str) -> None:
        self.findings.append(ValidationFinding(kind, message))


def validate_session(session: Session) -> ValidationReport:
    """Check stream sanity; returns findings, never raises.

    Findings cover: empty streams, pose/frame span mismatch beyond 10% of
    the shorter span, and sampling gaps wider than 5 nominal periods.
    Timestamp order and quaternion norms are not findings: every
    :class:`Session` already holds them.
    """
    report = ValidationReport()
    pose_t, frame_t = session.poses.t_us, session.frames.t_us

    if pose_t.size == 0:
        report.add("empty_stream", "empty stream: poses")
    if frame_t.size == 0:
        report.add("empty_stream", "empty stream: frames")

    if pose_t.size >= 2 and frame_t.size >= 2:
        span_p = int(pose_t[-1] - pose_t[0])
        span_f = int(frame_t[-1] - frame_t[0])
        # Both spans are positive: a Session's times strictly increase.
        if abs(span_p - span_f) > _SPAN_MISMATCH_FRAC * min(span_p, span_f):
            report.add(
                "span_mismatch",
                f"pose span {span_p} us vs frame span {span_f} us "
                f"differ by more than {_SPAN_MISMATCH_FRAC:.0%} of the shorter",
            )

    _check_gaps(report, "pose", pose_t, session.meta.pose_rate_hz)
    _check_gaps(report, "frame", frame_t, session.meta.frame_rate_hz)
    return report


def _check_gaps(report: ValidationReport, name: str, t: np.ndarray, rate_hz: float) -> None:
    if t.size < 2:
        return
    period_us = 1e6 / rate_hz
    diffs = np.diff(t)
    bad = np.nonzero(diffs > _GAP_PERIODS * period_us)[0]
    for i in bad:
        report.add(
            "gap",
            f"gap in {name} stream: {int(diffs[i])} us between t_us {int(t[i])} "
            f"and {int(t[i + 1])} (nominal period {period_us:.0f} us)",
        )
