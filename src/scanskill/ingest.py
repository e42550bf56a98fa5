"""Read, validate, and persist recorded sessions.

On-disk layout of one session directory::

    manifest.json        session identity + nominal rates
    pose.csv             header ``t_us,w,x,y,z``; one IMU orientation per line
    frames/index.csv     header ``t_us,file``; paths relative to session root
    frames/NNNNNN.pgm    binary PGM (P5, maxval 255), zero-padded 6 digits

``pose.csv`` quaternions are Hamilton scalar-first (see
:mod:`scanskill.core`); adapters for sensors using other conventions must
convert before writing this format.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .core import INT64_MAX, SessionMeta, q_normalize

__all__ = [
    "Frame",
    "PoseSample",
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
    "write_session",
]

POSE_HEADER = "t_us,w,x,y,z"
FRAME_INDEX_HEADER = "t_us,file"

_MANIFEST_KEYS = tuple(f.name for f in fields(SessionMeta))
# Extension key written by the synthetic-session generator; tolerated on read.
_MANIFEST_EXTRA_KEYS = ("synthetic_profile",)

# Validation thresholds.
_QUAT_NORM_TOL = 1e-3
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


class Frame:
    """One timestamped 8-bit grayscale ultrasound frame.

    ``pixels`` is a ``(height, width)`` uint8 array.  A frame referenced
    from disk decodes its file on every access and keeps nothing, as does a
    synthetic frame (``scanskill.synth``), which renders on every access, so
    a caller visiting each frame once holds one frame's pixels at a time.

    ``source`` is equal for two frames only when they are sure to read the
    same pixels: one file, one held array, or one synthetic field and contrast.
    """

    __slots__ = ("t_us", "width", "height", "_pixels", "_path")

    def __init__(
        self,
        t_us: int,
        width: int,
        height: int,
        pixels: np.ndarray | None = None,
        path: Path | None = None,
    ) -> None:
        if pixels is None and path is None:
            raise ValueError("frame needs pixel data or a backing file")
        if pixels is not None:
            pixels = _uint8_pixels(pixels)
            if pixels.shape != (height, width):
                raise ValueError("pixel buffer does not match frame geometry")
        self.t_us = t_us
        self.width = width
        self.height = height
        self._pixels = pixels
        self._path = path

    @property
    def pixels(self) -> np.ndarray:
        if self._pixels is not None:
            return self._pixels
        w, h, data = read_pgm(self._path)
        if (w, h) != (self.width, self.height):
            raise ValueError(f"frame geometry changed: {self._path}")
        return data

    @property
    def source(self) -> tuple:
        """The held array (alive while the frame is, so its id is unique), else the file."""
        return ("path", self._path) if self._pixels is None else ("array", id(self._pixels))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Frame(t_us={self.t_us}, {self.width}x{self.height})"


@dataclass
class Session:
    """A full recorded session: metadata plus both sensor streams."""

    meta: SessionMeta
    poses: list[PoseSample]
    frames: list[Frame]
    synthetic_profile: dict | None = None


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


def read_pose_csv(path: str | Path) -> list[PoseSample]:
    """Parse a ``pose.csv`` file into ordered pose samples.

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
    return [PoseSample(t, q) for t, q in zip(times, q_normalize(np.array(quats)))]


def write_pose_csv(path: str | Path, poses: Iterable[PoseSample]) -> None:
    _write_csv(path, POSE_HEADER, ([p.t_us, *p.q.tolist()] for p in poses))


# ---------------------------------------------------------------------------
# PGM frames

def read_pgm(path: str | Path) -> tuple[int, int, np.ndarray]:
    """Read a binary PGM (P5, maxval 255). Returns (width, height, pixels)."""
    with open(path, "rb") as fh:
        width, height = _read_pgm_header(fh, path)
        raster = fh.read(width * height)
    return width, height, np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def _read_pgm_header(fh: IO[bytes], path) -> tuple[int, int]:
    """Parse a P5 header, leaving ``fh`` at the first raster byte.

    Returns (width, height).  The header is read byte by byte, so ``#``
    comments of any length are accepted and the raster is never read.  A
    file shorter than the raster the header claims raises ValueError.
    """
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
    width, height, maxval = (int(f) for f in fields[1:])
    if maxval != 255:
        raise ValueError(f"unsupported depth (maxval {maxval}) in {path}")
    if width <= 0 or height <= 0:
        raise ValueError(f"bad dimensions {width}x{height} in {path}")
    # Checked before any read: a header may claim more than any buffer can hold.
    if width * height > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"truncated raster in {path}")
    return width, height


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    """Write a (height, width) uint8 array as binary PGM (P5, maxval 255)."""
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_frame_index(session_dir: str | Path) -> list[Frame]:
    """Read ``frames/index.csv`` and validate every referenced PGM header.

    Pixel data stays on disk (lazy); a file too short for the raster its
    header claims raises ``"truncated raster in …"`` here.  Dimensions must
    be constant across the session; a mid-session change raises
    ``"frame geometry changed"``.
    """
    session_dir = Path(session_dir)
    index_path = session_dir / "frames" / "index.csv"
    if not index_path.is_file():
        raise ValueError(f"missing frame index {index_path}")
    frames: list[Frame] = []
    geometry: tuple[int, int] | None = None
    for lineno, t, (rel,) in _rows(index_path, FRAME_INDEX_HEADER, 2):
        # Lexical check, so no syscall per frame: stay inside the session.
        if rel.startswith("/") or ".." in rel.split("/"):
            raise ValueError(f"line {lineno}: frame path {rel} leaves the session")
        path = session_dir / rel
        if not path.is_file():
            raise ValueError(f"missing frame file {rel}")
        with open(path, "rb") as pgm:
            width, height = _read_pgm_header(pgm, path)
        if geometry is None:
            geometry = (width, height)
        elif geometry != (width, height):
            raise ValueError("frame geometry changed")
        frames.append(Frame(t, width, height, path=path))
    return frames


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
    rows = [(frame.t_us, f"frames/{i:06d}.pgm") for i, frame in enumerate(session.frames)]
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

    Findings cover: empty streams, timestamp regressions, quaternion norms
    off by more than 1e-3, pose/frame span mismatch beyond 10% of the
    shorter span, and sampling gaps wider than 5 nominal periods.
    """
    report = ValidationReport()
    pose_t = np.array([p.t_us for p in session.poses], dtype=np.int64)
    frame_t = np.array([f.t_us for f in session.frames], dtype=np.int64)

    if pose_t.size == 0:
        report.add("empty_stream", "empty stream: poses")
    if frame_t.size == 0:
        report.add("empty_stream", "empty stream: frames")

    _check_monotonic(report, "pose", pose_t)
    _check_monotonic(report, "frame", frame_t)

    if session.poses:
        norms = np.linalg.norm(np.stack([p.q for p in session.poses]), axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > _QUAT_NORM_TOL)[0]
        for i in bad:
            report.add(
                "non_unit_quaternion",
                f"pose {i} has norm {norms[i]:.6f} (deviation > {_QUAT_NORM_TOL})",
            )

    if pose_t.size >= 2 and frame_t.size >= 2:
        span_p = int(pose_t[-1] - pose_t[0])
        span_f = int(frame_t[-1] - frame_t[0])
        shorter = min(span_p, span_f)
        if shorter > 0 and abs(span_p - span_f) > _SPAN_MISMATCH_FRAC * shorter:
            report.add(
                "span_mismatch",
                f"pose span {span_p} us vs frame span {span_f} us "
                f"differ by more than {_SPAN_MISMATCH_FRAC:.0%} of the shorter",
            )

    _check_gaps(report, "pose", pose_t, session.meta.pose_rate_hz)
    _check_gaps(report, "frame", frame_t, session.meta.frame_rate_hz)
    return report


def _check_monotonic(report: ValidationReport, name: str, t: np.ndarray) -> None:
    if t.size < 2:
        return
    bad = np.nonzero(np.diff(t) <= 0)[0]
    for i in bad:
        report.add(
            "timestamp_regression",
            f"{name} stream: t_us {int(t[i + 1])} at index {int(i + 1)} "
            f"does not advance past {int(t[i])}",
        )


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
