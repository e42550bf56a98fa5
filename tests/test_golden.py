"""Every file the CLI writes, for one expert and one novice session, against ``golden.json``."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _regen_module():
    spec = importlib.util.spec_from_file_location("regen_golden", ROOT / "scripts" / "regen_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _differences(golden, actual, path: str = "") -> list[str]:
    """The leaf paths at which two JSON documents differ."""
    if isinstance(golden, dict) and isinstance(actual, dict):
        return [
            diff
            for key in sorted(golden.keys() | actual.keys())
            for diff in _differences(golden.get(key), actual.get(key), f"{path}/{key}")
        ]
    return [] if golden == actual else [f"{path}: golden {golden!r}, now {actual!r}"]


def test_outputs_match_golden(tmp_path):
    regen = _regen_module()
    golden = json.loads(regen.GOLDEN.read_text(encoding="utf-8"))
    actual = regen.golden_document(tmp_path)
    differences = _differences(golden["sessions"], actual["sessions"])
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
