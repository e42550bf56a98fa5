"""Per-frame features computed in the fork process pool match the serial path.

The pool engages only above ``features._POOL_MIN_PIXELS``; these tests lower
that constant so small sessions take the pooled path.
"""

import multiprocessing
import os
import shutil

import numpy as np
import pytest

from scanskill import features
from scanskill.cli import main
from scanskill.features import GlcmConfig, compute_feature_table
from scanskill.fusion import ResampleConfig, fuse_streams
from scanskill.ingest import load_session

from conftest import run_python

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


def _assert_same_records(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.t_us == rb.t_us and ra.texture == rb.texture and ra.speed == rb.speed
        assert (ra.hist is None) == (rb.hist is None)
        if ra.hist is not None:
            assert (ra.hist.mean, ra.hist.variance, ra.hist.entropy) == (
                rb.hist.mean, rb.hist.variance, rb.hist.entropy)
            assert np.array_equal(ra.hist.bins, rb.hist.bins)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"L{c.levels}-{c.roi}-{len(c.offsets)}")
def test_pooled_records_equal_serial(session_dir, monkeypatch, cfg):
    _, serial = _table(session_dir, cfg)
    monkeypatch.setattr(features, "_POOL_MIN_PIXELS", 0)
    session, pooled = _table(session_dir, cfg)
    _assert_same_records(serial, pooled)
    assert sum(r.texture is not None for r in pooled) > 100
    # The workers decoded the frames; the caller's session holds none of them.
    assert all(f._pixels is None for f in session.frames)


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
    monkeypatch.setattr(features, "_POOL_MIN_PIXELS", 0)
    broken = tmp_path / "broken"
    shutil.copytree(session_dir, broken)
    pgm = broken / "frames" / "000040.pgm"
    pgm.write_bytes(pgm.read_bytes()[:-10])
    capsys.readouterr()
    assert main(["report", "--session", str(broken), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: truncated raster")


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
