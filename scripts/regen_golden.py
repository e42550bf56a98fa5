#!/usr/bin/env python3
"""Regenerate ``tests/golden.json``, the digests of every file the CLI writes.

Synthesises an expert and a novice session at 64x48 and runs ``validate``,
``fuse``, ``features``, ``report`` and ``export-plot`` on each, in process
through ``scanskill.cli.main``.  The file holds a sha256 of each file
written, ``validate``'s stdout and exit code, ``report.json`` in full, and
what it was made with: the numpy version, the platform, numpy's enabled CPU
dispatch targets and the OpenBLAS core.  ``tests/test_golden.py``
recomputes the same document and compares; a change that alters outputs on
purpose regenerates the file and says which digests changed and why.  Before
it writes, the script prints each changed leaf of the document to stderr.

Example:
    PYTHONPATH=src python scripts/regen_golden.py
"""

import contextlib
import ctypes
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from scanskill.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden.json"
SESSIONS = (("expert", 0), ("novice", 0))
FRAME_SIZE = "64x48"
# The session files `synth` writes, besides the frames, which get one digest.
SYNTH_FILES = ("manifest.json", "pose.csv", "frames/index.csv")
# The file each pipeline command writes into the session directory.
COMMAND_OUTPUTS = {
    "fuse": "fused.csv",
    "features": "features.csv",
    "report": "report.json",
    "export-plot": "plot.csv",
}


def environment() -> dict:
    """What the digests depend on besides the code: the numpy build, the
    platform, and the CPU code paths numpy and its OpenBLAS picked at run time."""
    return {
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.machine()}",
        "numpy_cpu_dispatch": _numpy_cpu_dispatch(),
        "openblas_core": _openblas_core(),
    }


def _numpy_cpu_dispatch() -> dict:
    """Whether each of numpy's run-time dispatch targets is enabled on this CPU;
    ``NPY_DISABLE_CPU_FEATURES`` turns some off."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return {name: bool(umath.__cpu_features__.get(name)) for name in umath.__cpu_dispatch__}


# The core-name query of OpenBLAS, under the prefixes and suffixes that wheels build it with.
_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename")


def _openblas_core() -> str | None:
    """The kernel set the OpenBLAS bundled with numpy picked at load (``OPENBLAS_CORETYPE``
    overrides it), or None where numpy bundles no OpenBLAS that can say."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        # Already loaded by numpy, so this is the same handle and the same pick.
        blas = ctypes.CDLL(str(lib))
        for symbol in _CORENAME_SYMBOLS:
            if hasattr(blas, symbol):
                corename = getattr(blas, symbol)
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def golden_document(workdir: Path) -> dict:
    """Run every command on the golden sessions under ``workdir`` and digest the outputs."""
    sessions = {}
    for profile, seed in SESSIONS:
        session = workdir / f"{profile}-{seed:04d}"
        _run("synth", "--profile", profile, "--seed", str(seed), "--out", str(session),
             "--frame-size", FRAME_SIZE)
        frames = hashlib.sha256()
        for path in sorted((session / "frames").glob("*.pgm")):
            frames.update(path.name.encode() + b"\0" + path.read_bytes())
        entry = {"synth": {name: _sha256(session / name) for name in SYNTH_FILES}}
        entry["synth"]["frames/*.pgm"] = frames.hexdigest()
        code, stdout = _run("validate", "--session", str(session), check=False)
        entry["validate"] = {"exit": code, "stdout": stdout}
        for command, name in COMMAND_OUTPUTS.items():
            _run(command, "--session", str(session))
            entry[command] = {name: _sha256(session / name)}
        entry["report.json"] = json.loads((session / "report.json").read_text(encoding="utf-8"))
        sessions[session.name] = entry
    return {**environment(), "sessions": sessions}


def _run(*argv: str, check: bool = True) -> tuple[int, str]:
    """``cli_main(argv)`` with its stdout captured and its stderr dropped."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(list(argv))
    if check and code != 0:
        raise RuntimeError(f"scanskill {argv[0]} exited {code}: {stderr.getvalue().strip()}")
    return code, stdout.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def differences(golden, actual, path: str = "") -> list[str]:
    """The leaf paths at which two JSON documents differ."""
    if isinstance(golden, dict) and isinstance(actual, dict):
        return [
            diff
            for key in sorted(golden.keys() | actual.keys())
            for diff in differences(golden.get(key), actual.get(key), f"{path}/{key}")
        ]
    return [] if golden == actual else [f"{path}: golden {golden!r}, now {actual!r}"]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        doc = golden_document(Path(tmp))
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for diff in differences(old, doc):
        print(f"changed {diff}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
