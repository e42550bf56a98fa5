"""Read, validate, and persist recorded sessions.

On-disk layout of one session directory::

    manifest.json        session identity + nominal rates
    pose.csv             header ``t_us,w,x,y,z``; one IMU orientation per line
    frames/index.csv     header ``t_us,file``; paths relative to session root
    frames/NNNNNN.pgm    binary PGM (P5, maxval 255), zero-padded 6 digits

``pose.csv`` quaternions are Hamilton scalar-first (see
:mod:`scanskill.core`); adapters for sensors using other conventions must
convert before writing this format.  Frame pixel data is loaded lazily and
cached on first access; a load is idempotent, so concurrent access to a
loaded Session is safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .core import SessionMeta, q_normalize

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

_MANIFEST_KEYS = ("session_id", "participant_role", "trial", "pose_rate_hz", "frame_rate_hz")
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


class Frame:
    """One timestamped 8-bit grayscale ultrasound frame.

    ``pixels`` is a ``(height, width)`` uint8 array.  For frames referenced
    from disk it is read on first access and cached; the cached value never
    changes afterwards.
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
            pixels = np.asarray(pixels, dtype=np.uint8)
            if pixels.shape != (height, width):
                raise ValueError("pixel buffer does not match frame geometry")
        self.t_us = t_us
        self.width = width
        self.height = height
        self._pixels = pixels
        self._path = path

    @property
    def pixels(self) -> np.ndarray:
        if self._pixels is None:
            self._pixels = self.read_pixels()
        return self._pixels

    def read_pixels(self) -> np.ndarray:
        """The pixels, decoded from the backing file unless already cached.

        Unlike :attr:`pixels` this never caches, so a caller visiting each
        frame once holds one decoded frame at a time.
        """
        if self._pixels is not None:
            return self._pixels
        w, h, data = read_pgm(self._path)
        if (w, h) != (self.width, self.height):
            raise ValueError(f"frame geometry changed: {self._path}")
        return data

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
# pose.csv

def read_pose_csv(source: IO[str] | str | Path) -> list[PoseSample]:
    """Parse a ``pose.csv`` stream or file into ordered pose samples.

    Quaternions are normalized on read (sensor quantization tolerated).
    Raises ValueError with a 1-based line number on malformed lines
    (including non-finite quaternion components) and on timestamp
    regressions; an empty file raises ``"no samples"``.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_pose_csv(fh)
    header = source.readline().rstrip("\r\n")
    if header != POSE_HEADER:
        raise ValueError(f"bad header line 1: expected '{POSE_HEADER}'")
    samples: list[PoseSample] = []
    prev_t = None
    for lineno, raw in enumerate(source, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"malformed line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            t = int(parts[0])
            comps = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"malformed line {lineno}: {exc}") from None
        if not all(map(math.isfinite, comps)):
            raise ValueError(f"malformed line {lineno}: non-finite quaternion component")
        if prev_t is not None and t <= prev_t:
            raise ValueError(f"timestamp regression at line {lineno}")
        prev_t = t
        try:
            q = q_normalize(np.array(comps))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        samples.append(PoseSample(t, q))
    if not samples:
        raise ValueError("no samples")
    return samples


def write_pose_csv(dest: IO[str] | str | Path, poses: Iterable[PoseSample]) -> None:
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            write_pose_csv(fh, poses)
        return
    dest.write(POSE_HEADER + "\n")
    for p in poses:
        w, x, y, z = (repr(float(v)) for v in p.q)
        dest.write(f"{p.t_us},{w},{x},{y},{z}\n")


# ---------------------------------------------------------------------------
# PGM frames

def read_pgm(path: str | Path) -> tuple[int, int, np.ndarray]:
    """Read a binary PGM (P5, maxval 255). Returns (width, height, pixels)."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _pgm_token(data, 0, path)
    if magic != b"P5":
        raise ValueError(f"unsupported PGM magic {magic!r} in {path}")
    fields = []
    for _ in range(3):
        tok, pos = _pgm_token(data, pos, path)
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"unsupported depth (maxval {maxval}) in {path}")
    if width <= 0 or height <= 0:
        raise ValueError(f"bad dimensions {width}x{height} in {path}")
    # A single whitespace byte separates the header from the raster.
    raster = data[pos + 1 : pos + 1 + width * height]
    if len(raster) != width * height:
        raise ValueError(f"truncated raster in {path}")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return width, height, pixels


def _pgm_token(data: bytes, pos: int, path) -> tuple[bytes, int]:
    # Skip whitespace and '#' comment lines, then read one token.
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise ValueError(f"truncated PGM header in {path}")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    """Write a (height, width) uint8 array as binary PGM (P5, maxval 255)."""
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_frame_index(session_dir: str | Path) -> list[Frame]:
    """Read ``frames/index.csv`` and validate every referenced PGM header.

    Pixel data stays on disk (lazy).  Dimensions must be constant across
    the session; a mid-session change raises ``"frame geometry changed"``.
    """
    session_dir = Path(session_dir)
    index_path = session_dir / "frames" / "index.csv"
    if not index_path.is_file():
        raise ValueError(f"missing frame index {index_path}")
    frames: list[Frame] = []
    geometry: tuple[int, int] | None = None
    prev_t = None
    with open(index_path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n")
        if header != FRAME_INDEX_HEADER:
            raise ValueError(f"bad header line 1: expected '{FRAME_INDEX_HEADER}'")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"malformed line {lineno}: expected 2 fields")
            try:
                t = int(parts[0])
            except ValueError as exc:
                raise ValueError(f"malformed line {lineno}: {exc}") from None
            if prev_t is not None and t <= prev_t:
                raise ValueError(f"timestamp regression at line {lineno}")
            prev_t = t
            rel = parts[1]
            path = session_dir / rel
            if not path.is_file():
                raise ValueError(f"missing frame file {rel}")
            width, height = _read_pgm_geometry(path)
            if geometry is None:
                geometry = (width, height)
            elif geometry != (width, height):
                raise ValueError("frame geometry changed")
            frames.append(Frame(t, width, height, path=path))
    return frames


def _read_pgm_geometry(path: Path) -> tuple[int, int]:
    # Header-only validation; does not touch the raster.
    with open(path, "rb") as fh:
        head = fh.read(512)
    magic, pos = _pgm_token(head, 0, path)
    if magic != b"P5":
        raise ValueError(f"unsupported PGM magic {magic!r} in {path}")
    width, pos = _pgm_token(head, pos, path)
    height, pos = _pgm_token(head, pos, path)
    maxval, pos = _pgm_token(head, pos, path)
    if int(maxval) != 255:
        raise ValueError(f"unsupported depth (maxval {int(maxval)}) in {path}")
    return int(width), int(height)


# ---------------------------------------------------------------------------
# manifest.json

def write_manifest(
    session_dir: str | Path,
    meta: SessionMeta,
    synthetic_profile: dict | None = None,
) -> None:
    doc: dict = {
        "session_id": meta.session_id,
        "participant_role": meta.participant_role,
        "trial": meta.trial,
        "pose_rate_hz": meta.pose_rate_hz,
        "frame_rate_hz": meta.frame_rate_hz,
    }
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
    unknown = set(doc) - set(_MANIFEST_KEYS) - set(_MANIFEST_EXTRA_KEYS)
    if unknown:
        raise ValueError(f"unknown manifest key(s): {', '.join(sorted(unknown))}")
    missing = set(_MANIFEST_KEYS) - set(doc)
    if missing:
        raise ValueError(f"missing manifest key(s): {', '.join(sorted(missing))}")
    meta = SessionMeta(
        session_id=str(doc["session_id"]),
        participant_role=doc["participant_role"],
        trial=int(doc["trial"]),
        pose_rate_hz=float(doc["pose_rate_hz"]),
        frame_rate_hz=float(doc["frame_rate_hz"]),
    )
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
    with open(frames_dir / "index.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(FRAME_INDEX_HEADER + "\n")
        for i, frame in enumerate(session.frames):
            rel = f"frames/{i:06d}.pgm"
            write_pgm(session_dir / rel, frame.pixels)
            fh.write(f"{frame.t_us},{rel}\n")


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
