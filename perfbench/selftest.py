#!/usr/bin/env python3
"""Self-test of the benchmark at 64x48 frames, one short run per workload and mode.

    python3 perfbench/selftest.py

It checks that:

- every metric that BENCHMARK.json names is printed, with its unit, and no other;
- the current program passes every output check (``failed`` is 0);
- a corrupted output makes ``failed`` nonzero, so ``error_rate`` is nonzero;
- in a directory that holds only BENCHMARK.json and ``perfbench/``, run.py
  exits nonzero without printing a result.

Exits 0 when all hold, 1 otherwise, listing each problem on stderr.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def last_json(done: subprocess.CompletedProcess):
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main() -> int:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list[str] = []

    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "1", "--seconds", "1", "--selftest"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            done = run(*base, "--trace", str(trace))
            result = last_json(done)
            if result is None:
                problems.append(f"{label}: no result (exit {done.returncode}): "
                                f"{done.stderr.strip()[-500:]}")
                continue
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[n for n in got if n in want and got[n] != want[n]]}")
            for name, metric in result["metrics"].items():
                value = metric.get("value")
                if isinstance(value, bool) or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{label}: {name} = {value!r} is not a finite number")
                elif kind == "end_to_end" and value <= 0:
                    problems.append(f"{label}: {name} = {value} is not positive")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")

        done = run(*base, "--trace", "0", "--corrupt")
        result = last_json(done)
        if result is None or result["failed"] == 0 or result["correct"]:
            problems.append(f"{workload} --corrupt: corrupted outputs were not caught: {result}")

    bare = WORK / f"selftest-bare-{os.getpid()}"
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in (ROOT / "perfbench").glob("*.py"):
            shutil.copy2(path, bare / "perfbench")
        done = run("--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[:200]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
