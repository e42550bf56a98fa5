"""Every file the CLI writes, for one expert and one novice session, against ``golden.json``."""

import importlib.util
import json
from pathlib import Path

import pytest

from scanskill.synth import gen_session, novice_profile

from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent


def _regen_module():
    spec = importlib.util.spec_from_file_location("regen_golden", ROOT / "scripts" / "regen_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_golden(tmp_path):
    regen = _regen_module()
    golden = json.loads(regen.GOLDEN.read_text(encoding="utf-8"))
    actual = regen.golden_document(tmp_path)
    differences = regen.differences(golden["sessions"], actual["sessions"])
    environment = [
        f"{key} is {value!r}, golden.json was made with {golden.get(key)!r}"
        for key, value in regen.environment().items()
        if golden.get(key) != value
    ]
    assert not differences, "\n".join(
        ["outputs differ from tests/golden.json:", *differences]
        + (["the environment differs too, which may explain it:", *environment]
           if environment else [])
        + ["if the change is meant, run scripts/regen_golden.py and say why in CHANGES.md"]
    )


# Runs fuse, features, report and export-plot on the session in argv[1], writing into
# argv[2], through scanskill.cli.main.
_PIPELINE_COMMANDS = """
import sys
from scanskill.cli import main
session, out = sys.argv[1:]
for command in ("fuse", "features", "report", "export-plot"):
    assert main([command, "--session", session, "--out", out]) == 0, command
"""


def _cpu_paths() -> list:
    """Environment switches that move numpy or its OpenBLAS onto another CPU code path.

    numpy's AVX2 loops run, as on a CPU without AVX-512, when its AVX-512 targets
    are disabled; only where it dispatches them, as it will not disable one it lacks.
    """
    paths = [pytest.param({"OPENBLAS_CORETYPE": "Prescott"}, id="openblas-prescott")]
    dispatch = _regen_module()._numpy_cpu_dispatch()
    if dispatch.get("X86_V4"):
        avx512 = [name for name in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if dispatch.get(name)]
        paths.append(pytest.param({"NPY_DISABLE_CPU_FEATURES": ",".join(avx512)},
                                  id="numpy-avx2"))
    return paths


@pytest.fixture(scope="module")
def cpu_path_session(tmp_path_factory):
    """A 64x48 novice session, and the pipeline's outputs on it by default."""
    root = tmp_path_factory.mktemp("cpu-path")
    gen_session(novice_profile(0, frame_width=64, frame_height=48), root / "s")
    proc = run_python("-c", _PIPELINE_COMMANDS, str(root / "s"), str(root / "default"))
    assert proc.returncode == 0, proc.stderr
    return root


@pytest.mark.parametrize("switch", _cpu_paths())
def test_pipeline_outputs_do_not_depend_on_the_cpu_path(cpu_path_session, switch):
    root = cpu_path_session
    out = root / "-".join(switch.values()).replace(",", "-")
    proc = run_python("-c", _PIPELINE_COMMANDS, str(root / "s"), str(out), **switch)
    assert proc.returncode == 0, proc.stderr
    names = ("fused.csv", "features.csv", "report.json", "plot.csv")
    differ = [name for name in names
              if (out / name).read_bytes() != (root / "default" / name).read_bytes()]
    assert not differ, f"{differ} differ from a default run under {switch}"
