"""Per-frame features computed in the fork process pool match the serial path.

The pool engages only above ``features._POOL_MIN_PIXELS`` pixels of distinct
pixel sources; most of these tests lower that constant so small sessions
take the pooled path.
"""

import math
import multiprocessing
import os
import shutil

import numpy as np
import pytest

from scanskill import features, ingest
from scanskill.cli import main
from scanskill.features import GlcmConfig, compute_feature_table, frame_features
from scanskill.fusion import ResampleConfig, fuse_streams
from scanskill.ingest import Frames, PoseSample, load_session
from scanskill.synth import build_session, novice_profile

from conftest import (
    IDENTITY,
    SHARED_SOURCE_SESSIONS,
    assert_same_table,
    make_session,
    repeated_frames_session,
    run_python,
    shared_source_session,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="the feature pool needs fork and at least two CPUs",
)

CONFIGS = [
    GlcmConfig(levels=8),
    GlcmConfig(levels=16),
    GlcmConfig(),
    GlcmConfig(levels=64),
    GlcmConfig(roi=(4, 4, 32, 24)),
    GlcmConfig(offsets=((2, 0), (0, 3), (-2, 2)), symmetric=False),
]
FLAGS = [
    ["--levels", "8"],
    ["--levels", "16"],
    [],
    ["--levels", "64"],
    ["--roi", "4,4,32,24"],
    ["--offsets", "2,0;0,3;-2,2"],
]


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pool") / "s"
    assert main(["synth", "--profile", "expert", "--seed", "2", "--out", str(out),
                 "--frame-size", "48x36"]) == 0
    return out


def _table(session_dir, cfg):
    session = load_session(session_dir)
    table = compute_feature_table(session, fuse_streams(session, ResampleConfig()), cfg)
    return session, table


def _frame_features(session_dir, cfg):
    sources = load_session(session_dir).frames.sources
    return features._distinct_frame_features(sources, range(len(sources)), cfg)


def _assert_same_frame_features(a, b):
    assert len(a) == len(b)
    for row_a, row_b in zip(a, b):
        assert len(row_a) == 6 and row_a == row_b


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"L{c.levels}-{c.roi}-{len(c.offsets)}")
def test_pooled_records_equal_serial(session_dir, monkeypatch, cfg):
    serial_frames = _frame_features(session_dir, cfg)
    tex, hist = frame_features(load_session(session_dir).frames[0], cfg)
    assert serial_frames[0] == (*tex, hist.mean, hist.variance, hist.entropy)
    _, serial = _table(session_dir, cfg)
    monkeypatch.setattr(features, "_POOL_MIN_PIXELS", 0)
    _assert_same_frame_features(serial_frames, _frame_features(session_dir, cfg))
    session, pooled = _table(session_dir, cfg)
    assert_same_table(serial, pooled)
    assert np.count_nonzero(~np.isnan(pooled.asm)) > 100
    # The workers decoded the frames; the caller's session holds no pixels.
    assert not any(isinstance(s, np.ndarray) for s in session.frames.sources)


def test_pooled_in_memory_synthetic_session_equals_serial(monkeypatch):
    session = build_session(novice_profile(3, frame_width=48, frame_height=36,
                                           n_samples_range=(800, 900)))
    fused = fuse_streams(session, ResampleConfig())
    serial = compute_feature_table(session, fused, GlcmConfig())
    monkeypatch.setattr(features, "_POOL_MIN_PIXELS", 0)
    sources = session.frames.sources
    assert features._pool_workers(sources, range(len(sources))) > 1
    assert_same_table(serial, compute_feature_table(session, fused, GlcmConfig()))
    # The workers rendered the frames; the caller's session holds no pixels.
    assert not any(isinstance(s, np.ndarray) for s in sources)


@pytest.mark.parametrize("kind", SHARED_SOURCE_SESSIONS)
def test_pooled_shared_source_session_equals_serial(kind, tmp_path, monkeypatch):
    session = shared_source_session(kind, tmp_path)
    fused = fuse_streams(session, ResampleConfig())
    serial = compute_feature_table(session, fused, GlcmConfig())
    monkeypatch.setattr(features, "_POOL_MIN_PIXELS", 0)
    assert_same_table(serial, compute_feature_table(session, fused, GlcmConfig()))


def test_workers_inherit_the_kernel(session_dir, tmp_path, monkeypatch):
    serial = _frame_features(session_dir, GlcmConfig())
    monkeypatch.setattr(features, "_POOL_MIN_PIXELS", 0)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # empty: the kernel is built again
    builds = multiprocessing.get_context("fork").Value("i", 0)
    real = features._compile_kernel

    def counted(path):
        with builds.get_lock():
            builds.value += 1
        real(path)

    monkeypatch.setattr(features, "_compile_kernel", counted)
    features._kernel.cache_clear()
    try:
        _assert_same_frame_features(serial, _frame_features(session_dir, GlcmConfig()))
    finally:
        features._kernel.cache_clear()
    # Built, or tried, once before the fork and in no worker.
    assert builds.value == 1


def test_pooled_numpy_counts_equal_compiled(session_dir, monkeypatch):
    monkeypatch.setattr(features, "_POOL_MIN_PIXELS", 0)
    compiled = _frame_features(session_dir, GlcmConfig())
    monkeypatch.setattr(features, "_kernel", lambda: None)
    _assert_same_frame_features(compiled, _frame_features(session_dir, GlcmConfig()))


def test_shared_array_session_stays_serial(monkeypatch):
    width, height, n_frames = 320, 240, 2000
    pixels = np.random.default_rng(0).integers(0, 256, (height, width), dtype=np.uint8)
    frames = Frames(40_000 * np.arange(n_frames), np.zeros(n_frames), (pixels,))
    poses = [PoseSample(k * 10_000, IDENTITY) for k in range(4 * n_frames - 3)]
    session = make_session(poses, frames)
    # Counted per frame, the session would go to the pool.
    assert features._pool_workers([pixels] * n_frames, range(n_frames)) > 1
    seen = []
    real = features._pool_workers

    def pool_workers(sources, indices):
        seen.append(sum(math.prod(sources[i].shape) for i in indices))
        return real(sources, indices)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(features, "_pool_workers", pool_workers)
    monkeypatch.setattr(features, "ProcessPoolExecutor", no_pool)
    table = compute_feature_table(session, fuse_streams(session, ResampleConfig()), GlcmConfig())
    assert seen == [width * height]
    assert np.count_nonzero(table.asm == table.asm[0]) == len(table)


@pytest.mark.parametrize("flags", FLAGS, ids=lambda f: "-".join(f) or "default")
def test_pooled_cli_outputs_byte_identical(session_dir, tmp_path, monkeypatch, flags):
    for command in ("features", "report"):
        assert main([command, "--session", str(session_dir), "--out",
                     str(tmp_path / "serial"), *flags]) == 0
    monkeypatch.setattr(features, "_POOL_MIN_PIXELS", 0)
    for command in ("features", "report"):
        assert main([command, "--session", str(session_dir), "--out",
                     str(tmp_path / "pooled"), *flags]) == 0
    for name in ("features.csv", "report.json"):
        assert (tmp_path / "pooled" / name).read_bytes() == (
            tmp_path / "serial" / name).read_bytes()


def test_truncated_frame_in_pool_is_pipeline_error(session_dir, tmp_path, monkeypatch, capsys):
    # A short raster is caught when the session loads; a file truncated
    # after that makes the worker decoding it raise, and the error reaches
    # the caller and the CLI's exit code.
    monkeypatch.setattr(features, "_POOL_MIN_PIXELS", 0)
    broken = tmp_path / "broken"
    shutil.copytree(session_dir, broken)
    pgm = broken / "frames" / "000040.pgm"
    data = pgm.read_bytes()

    def load_then_truncate(path):
        pgm.write_bytes(data)
        session = load_session(path)
        pgm.write_bytes(data[:-10])
        return session

    session = load_then_truncate(broken)
    sources = session.frames.sources
    assert features._pool_workers(sources, range(len(sources))) > 1
    with pytest.raises(ValueError, match="^truncated raster in .*000040.pgm$"):
        compute_feature_table(session, fuse_streams(session, ResampleConfig()), GlcmConfig())
    monkeypatch.setattr(ingest, "load_session", load_then_truncate)
    capsys.readouterr()
    assert main(["report", "--session", str(broken), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: truncated raster")


def test_pooled_runs_of_equal_frames(tmp_path, monkeypatch):
    root = repeated_frames_session(tmp_path)
    for command in ("features", "report"):
        assert main([command, "--session", str(root), "--out", str(tmp_path / "serial")]) == 0
    session = load_session(root)
    fused = fuse_streams(session, ResampleConfig())
    serial = compute_feature_table(session, fused, GlcmConfig())
    monkeypatch.setattr(features, "_POOL_MIN_PIXELS", 0)
    used = sorted({s.frame_idx for s in fused if s.frame_idx is not None})
    # One file per frame: the source indices are the frame indices.
    assert session.frames.source.tolist() == list(range(len(session.frames)))
    workers = features._pool_workers(session.frames.sources, used)
    assert workers > 1
    # The chunks each worker takes; a run cut by a chunk boundary restarts.
    chunksize = max(1, len(used) // (workers * features._CHUNKS_PER_WORKER))
    repeats = [np.array_equal(session.frames[i].pixels, session.frames[j].pixels)
               for i, j in zip(used, used[1:])]
    assert any(repeats[k - 1] for k in range(chunksize, len(used), chunksize))
    runs = sum(k % chunksize == 0 or not repeats[k - 1] for k in range(len(used)))
    calls = multiprocessing.get_context("fork").Value("i", 0)
    real = features.frame_features

    def counted(px, cfg):
        with calls.get_lock():
            calls.value += 1
        return real(px, cfg)

    monkeypatch.setattr(features, "frame_features", counted)
    assert_same_table(serial, compute_feature_table(session, fused, GlcmConfig()))
    assert calls.value == runs
    for command in ("features", "report"):
        assert main([command, "--session", str(root), "--out", str(tmp_path / "pooled")]) == 0
    for name in ("features.csv", "report.json"):
        assert (tmp_path / "pooled" / name).read_bytes() == (
            tmp_path / "serial" / name).read_bytes()


_DYING_WORKER = """
import os, sys
from concurrent.futures import BrokenExecutor
from scanskill import features
from scanskill.cli import main
from scanskill.fusion import ResampleConfig, fuse_streams
from scanskill.ingest import load_session

features._POOL_MIN_PIXELS = 0
features.frame_features = lambda frame, cfg: os._exit(7)
session = load_session(sys.argv[1])
fused = fuse_streams(session, ResampleConfig())
try:
    features.compute_feature_table(session, fused, features.GlcmConfig())
except BrokenExecutor:
    print("raised")
sys.exit(main(["report", "--session", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_dying_worker_raises_and_cli_exits_3(session_dir, tmp_path):
    proc = run_python("-c", _DYING_WORKER, str(session_dir), str(tmp_path / "out"))
    assert proc.stdout.strip() == "raised"
    assert proc.returncode == 3
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
