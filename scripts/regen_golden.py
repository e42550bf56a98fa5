#!/usr/bin/env python3
"""Regenerate ``tests/golden.json``, the digests of every file the CLI writes.

Synthesises an expert and a novice session at 64x48 and runs ``validate``,
``fuse``, ``features``, ``report`` and ``export-plot`` on each, in process
through ``scanskill.cli.main``.  The file holds a sha256 of each file
written, ``validate``'s stdout and exit code, ``report.json`` in full, and
the numpy version and platform it was made with.  ``tests/test_golden.py``
recomputes the same document and compares; a change that alters outputs on
purpose regenerates the file and says which digests changed and why.

Example:
    PYTHONPATH=src python scripts/regen_golden.py
"""

import contextlib
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
    """What the digests depend on besides the code: the numpy build and the platform."""
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        doc = golden_document(Path(tmp))
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
