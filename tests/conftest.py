import dataclasses
import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import scanskill

from scanskill import features
from scanskill.core import SessionMeta
from scanskill.fusion import hemisphere_align
from scanskill.ingest import Frame, Frames, PoseSample, Poses, Session, load_session
from scanskill.synth import build_session, expert_profile, extend_with_idle, gen_session

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled GLCM kernel into this test run's cache, not the user's.

    Subprocesses inherit the setting.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


def python_env(**extra: str) -> dict[str, str]:
    """This process's environment, updated with ``extra``, for a fresh
    interpreter that imports this checkout's scanskill."""
    src = str(Path(scanskill.__file__).resolve().parent.parent)
    pythonpath = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def run_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's scanskill, with
    the ``env`` variables set.

    The timeout turns a hang into a test failure.
    """
    return subprocess.run(
        [sys.executable, *args], env=python_env(**env), capture_output=True, text=True,
        timeout=120,
    )


# Runs `python ARGS` on one CPU in a child of this small interpreter and
# prints the child's exit code and peak RSS in KiB.  The child's ru_maxrss
# also counts the memory of the process it was started from, which is why
# the test process does not start it directly.
_PEAK_RSS = """
import os, subprocess, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
proc = subprocess.Popen([sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_kib(*args: str) -> int:
    """Peak RSS in KiB of ``python *args`` run on one CPU; it must exit 0.

    One CPU keeps ``scanskill`` commands on the serial feature path.  Needs
    ``os.sched_setaffinity``.
    """
    proc = run_python("-c", _PEAK_RSS, *args)
    code, peak = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return peak


def random_unit_quat(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.standard_normal(4)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return v / n


@st.composite
def unit_quaternions(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_unit_quat(np.random.default_rng(seed))


def constant_frame(t_us: int, width: int = 8, height: int = 8, value: int = 100) -> Frame:
    """A frame at ``t_us`` over a held array of ``value``."""
    return Frame(t_us, np.full((height, width), value, dtype=np.uint8))


def pose_columns(poses: list[PoseSample] | Poses) -> Poses:
    """``poses`` as a :class:`Poses`; one passes through as it is."""
    if isinstance(poses, Poses):
        return poses
    return Poses(
        np.array([p.t_us for p in poses], dtype=np.int64),
        np.reshape([p.q for p in poses], (-1, 4)),
    )


def frame_columns(frames: list[Frame] | Frames) -> Frames:
    """``frames`` as a :class:`Frames`, each frame its own source; one passes through as it is."""
    if isinstance(frames, Frames):
        return frames
    return Frames([f.t_us for f in frames], range(len(frames)), tuple(f.pixels for f in frames))


def make_session(
    poses: list[PoseSample] | Poses,
    frames: list[Frame] | Frames,
    pose_rate_hz: float = 100.0,
    frame_rate_hz: float = 25.0,
    session_id: str = "test",
    role: str = "unknown",
) -> Session:
    meta = SessionMeta(
        session_id=session_id,
        participant_role=role,
        trial=1,
        pose_rate_hz=pose_rate_hz,
        frame_rate_hz=frame_rate_hz,
    )
    return Session(meta=meta, poses=pose_columns(poses), frames=frame_columns(frames))


def smooth_pose_walk(rng: np.random.Generator, times_us: list[int]) -> list[PoseSample]:
    """Random-walk orientation stream: small random step per sample."""
    from scanskill.core import q_from_axis_angle, q_multiply, q_normalize

    q = random_unit_quat(rng)
    quats = []
    for _ in times_us:
        quats.append(q)
        axis = rng.standard_normal(3)
        step = q_from_axis_angle(axis, rng.uniform(0.0, 0.15))
        q = q_normalize(q_multiply(q, step))
    return [PoseSample(int(t), q) for t, q in zip(times_us, hemisphere_align(np.array(quats)))]


def fuse_poses(poses: list[PoseSample] | Poses, cfg):
    """``fuse_streams`` over frames that span ``poses``.

    The grid is then the pose grid anchored at the first pose and running to
    the last, with no extrapolation.
    """
    from scanskill.fusion import fuse_streams

    poses = pose_columns(poses)
    frames = [constant_frame(int(t)) for t in sorted({poses.t_us[0], poses.t_us[-1]})]
    return fuse_streams(make_session(poses, frames), cfg)


def random_stream_times(
    rng: np.random.Generator, n: int, start_us: int, mean_period_us: int
) -> list[int]:
    """Strictly increasing jittered timestamps."""
    gaps = rng.integers(mean_period_us // 2, mean_period_us * 3 // 2 + 1, size=n - 1)
    return [int(t) for t in np.concatenate([[start_us], start_us + np.cumsum(gaps)])]


SHARED_SOURCE_SESSIONS = ("idle-tail", "equal-contrast", "repeated-pgm")


def shared_source_session(kind: str, tmp_path: Path) -> Session:
    """A small synthetic session in which several frames read one pixel source.

    ``idle-tail``: an ``extend_with_idle`` tail repeats the last frame;
    ``equal-contrast``: phantom frames far off target share one contrast;
    ``repeated-pgm``: on disk, every odd row of ``frames/index.csv`` names
    the PGM of the row before it.
    """
    profile = expert_profile(6, frame_width=48, frame_height=36, n_samples_range=(400, 500))
    if kind == "idle-tail":
        return extend_with_idle(build_session(profile), 2.0)
    if kind == "equal-contrast":
        return build_session(profile)
    gen_session(profile, tmp_path / "s")
    index = tmp_path / "s" / "frames" / "index.csv"
    header, *rows = index.read_text().splitlines()
    files = [row.split(",")[1] for row in rows]
    rows = [f"{row.split(',')[0]},{files[k - k % 2]}" for k, row in enumerate(rows)]
    index.write_text("\n".join([header, *rows]) + "\n")
    return load_session(tmp_path / "s")


def repeated_frames_session(tmp_path: Path) -> Path:
    """The directory of a small session on disk whose consecutive PGMs repeat.

    As while a probe is held still, ``frames/index.csv`` holds runs of 1, 2,
    3, 5 and 8 rows (cycling) whose PGMs are byte-identical copies of the
    run's first one, each under its own file name.  The second frame of the
    first 8-row run then differs from its neighbours in a single pixel.
    """
    profile = expert_profile(6, frame_width=48, frame_height=36, n_samples_range=(400, 500))
    root = tmp_path / "s"
    gen_session(profile, root)
    rows = (root / "frames" / "index.csv").read_text().splitlines()[1:]
    files = [root / row.split(",")[1] for row in rows]
    start, lengths = 0, itertools.cycle((1, 2, 3, 5, 8))
    while start < len(files):
        length = next(lengths)
        for copy in files[start + 1 : start + length]:
            shutil.copyfile(files[start], copy)
        start += length
    odd = bytearray(files[12].read_bytes())
    odd[-1] ^= 1
    files[12].write_bytes(bytes(odd))
    return root


def assert_same_table(a, b) -> None:
    """Every column of two feature tables is bitwise equal, NaN where NaN."""
    assert len(a) == len(b)
    for column in dataclasses.fields(a):
        assert np.array_equal(getattr(a, column.name), getattr(b, column.name), equal_nan=True)


def abandons_delta(prev: np.ndarray, cur: np.ndarray, levels: int) -> bool:
    """Whether ``count_delta`` gives up on the regions ``prev`` then ``cur``, of one shape.

    It does when more pixels change level than its budget, the region's size
    over ``features._DELTA_SHARE`` rounded down, or when after any row from
    the 8th on more did than the rows scanned so far's share of that budget.
    """
    shift = 9 - levels.bit_length()
    scanned = np.cumsum(np.count_nonzero(prev >> shift != cur >> shift, axis=1))
    rows = np.arange(1, len(scanned) + 1)
    budget = prev.size // features._DELTA_SHARE
    return bool(scanned[-1] > budget or np.any(scanned[7:] * len(prev) > budget * rows[7:]))


def full_count_regions(regions: list[np.ndarray], levels: int, starts=(0,)) -> list[np.ndarray]:
    """The regions, in order, that ``features._frame_rows`` counts in full when it
    takes ``regions`` in chunks that begin at the positions ``starts``.

    Those are the chunk starts, each region whose shape differs from the one
    before, and each other region that differs from the one before and on
    which the delta gives up, or that differs at all where the kernel is
    missing.
    """
    compiled = features._kernel() is not None
    return [
        px for k, px in enumerate(regions)
        if k in starts or px.shape != regions[k - 1].shape
        or (not np.array_equal(px, regions[k - 1])
            and (not compiled or abandons_delta(regions[k - 1], px, levels)))
    ]


def log_frame_rows(monkeypatch, reads: list, full: list) -> None:
    """Append each pixel source ``features._frame_rows`` reads to ``reads`` and a
    copy of each region it counts in full to ``full``.

    Pool workers forked later log too when the lists are a manager's.
    """
    read, frame_counts = features._read, features._frame_counts

    def logged_read(source):
        reads.append(source)
        return read(source)

    def logged_frame_counts(px, cfg, kernel):
        full.append(px.copy())
        return frame_counts(px, cfg, kernel)

    monkeypatch.setattr(features, "_read", logged_read)
    monkeypatch.setattr(features, "_frame_counts", logged_frame_counts)


def assert_same_regions(a: list[np.ndarray], b: list[np.ndarray]) -> None:
    assert len(a) == len(b)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def assert_rows_equal_frame_features(table, session: Session, fused, cfg) -> None:
    """Each frame column of ``table`` equals ``frame_features`` of its grid
    instant's frame exactly, and is NaN at an instant with no frame."""
    oracle = {}
    for k, i in enumerate(fused.frame_idx.tolist()):
        row = tuple(getattr(table, name)[k] for name in features.FRAME_COLUMNS)
        if i < 0:
            assert all(map(np.isnan, row))
            continue
        if i not in oracle:
            tex, hist = features.frame_features(session.frames[i], cfg)
            oracle[i] = (*tex, hist.mean, hist.variance, hist.entropy)
        assert row == oracle[i]


def private_copies(session: Session) -> Session:
    """``session`` with every frame its own source, a held copy of its pixels."""
    frames = frame_columns([Frame(f.t_us, f.pixels.copy()) for f in session.frames])
    return Session(session.meta, session.poses, frames, session.synthetic_profile)


def random_session(rng: np.random.Generator, n_poses: int = 60, n_frames: int = 20) -> Session:
    pose_times = random_stream_times(rng, n_poses, int(rng.integers(0, 5_000)), 10_000)
    frame_times = random_stream_times(rng, n_frames, int(rng.integers(0, 5_000)), 40_000)
    poses = smooth_pose_walk(rng, pose_times)
    frames = [constant_frame(t, value=int(rng.integers(0, 256))) for t in frame_times]
    return make_session(poses, frames)


@pytest.fixture(scope="session")
def tiny_expert_session():
    """Small, fast synthetic session shared by read-only tests."""
    from scanskill.synth import build_session, expert_profile

    return build_session(expert_profile(5, frame_width=64, frame_height=48))
