#!/usr/bin/env python3
"""scanskill benchmark: three workloads driven through the program's public surface.

    python3 perfbench/run.py --workload report-640 --seed 1 --seconds 15 --trace 0

Workloads (see WHY below for the reason each exists):

- ``report-640``: ``scanskill report`` on one 640x480 novice session on disk.
- ``synth-fuse-320``: ``scanskill synth`` -> ``validate`` -> ``fuse`` -> three
  ``compare`` calls, at 320x240.
- ``batch-320``: ``scripts/run_expert_novice.py`` at 320x240.

Load is one closed-loop client: one command at a time, each in a fresh
interpreter, the next started when the last has exited.  Operations repeat
until ``--seconds`` have passed and at least ``MIN_OPS`` have run.  Every command's output is checked; a
nonzero exit or a failed check counts as a failed operation.

Set-up (inputs and expected outputs) runs in a child before the timed
region, ``SETUP_REPEATS`` times with ``--trace 0``.  With ``--trace 1`` the
timed commands are replaced by the traced in-process replay of
``perfbench/inproc.py``, which prints the per-layer metrics.

End-to-end metrics (``--trace 0``), each a median over the run's operations:

- ``setup_s``: one set-up, median of ``SETUP_REPEATS``.
- ``wall_s``: one operation: the ``report`` call, the synth..compare
  sequence, or the script.
- ``realtime_x``: fused-grid seconds processed per wall second of an
  operation (as in ``scripts/bench_throughput.py``).
- ``peak_rss_mib``: highest ``ru_maxrss`` of any child in the timed region,
  from each child's own ``os.wait4`` rusage.
- ``cold_start_s``: one ``scanskill compare`` call on two small reports; every
  operation makes the same three calls.

``failed``/``attempted`` is the error rate.  The last line of standard output
is the result object; the line before it holds provenance (machine,
versions, every sample).  This file uses the standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
INPROC = Path(__file__).resolve().parent / "inproc.py"
SCRIPT = ROOT / "scripts" / "run_expert_novice.py"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 3
# A run makes at least this many operations, however long they take, so
# that its medians never rest on one or two samples.
MIN_OPS = 3
# Every child is killed once the run is this old, so the run ends within 180 s.
RUN_LIMIT_S = 170.0
# The documented grid-sample ranges of the synthetic profiles.
SAMPLE_RANGES = {"expert": (1600, 2500), "novice": (5000, 10000)}

# Why each workload exists; the same sentences as in BENCHMARK.json.
WHY = {
    "report-640": "scanskill report on a 20 s 640x480 novice session on disk: PGM decode plus "
                  "GLCM beyond L2, RSS set by resident frames",
    "synth-fuse-320": "synth, validate, fuse and compare CLI calls at 320x240: write path, pose "
                      "parsing, fusion and start-up with no GLCM",
    "batch-320": "run_expert_novice.py on 4 in-memory 320x240 sessions (1 calibration, 1 "
                 "evaluation seed): synth render, GLCM and calibrate/classify",
}
GEOMETRY = {"report-640": (640, 480), "synth-fuse-320": (320, 240), "batch-320": (320, 240)}
SELFTEST_GEOMETRY = (64, 48)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "realtime_x": "x",
    "peak_rss_mib": "MiB",
    "cold_start_s": "s",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "ingest.read_pose_csv_s": "s",
    "ingest.read_frame_index_s": "s",
    "ingest.poses_parsed": "count",
    "ingest.decode_s": "s",
    "ingest.frames_decoded": "count",
    "ingest.decode_mib_per_s": "MiB/s",
    "ingest.resident_frame_mib": "MiB",
    "ingest.write_session_s": "s",
    "ingest.validate_s": "s",
    "synth.trajectory_s": "s",
    "synth.render_us_per_frame": "us",
    "synth.build_session_s": "s",
    "fusion.fuse_s": "s",
    "fusion.us_per_grid_sample": "us",
    "fusion.grid_samples": "count",
    "fusion.frameless_frac": "fraction",
    "fusion.write_fused_csv_s": "s",
    "fusion.streaming_us_per_sample": "us",
    "features.frame_features_us_per_frame": "us",
    "features.histogram_us_per_frame": "us",
    "features.glcm_us_per_frame": "us",
    "features.distinct_frames": "count",
    "features.frame_reuse": "ratio",
    "features.feature_table_s": "s",
    "features.motion_s": "s",
    "features.smoothness_s": "s",
    "skill.build_report_s": "s",
    "skill.report_overhead_s": "s",
    "skill.report_write_s": "s",
    "skill.calibrate_classify_s": "s",
    "trace.overhead_frac": "fraction",
}


class Child(NamedTuple):
    code: int
    wall_s: float
    rss_mib: float
    stdout: str
    stderr: str


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, broken set-up)."""


def child_env() -> dict:
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = nproc
    env["NO_COLOR"] = "1"
    return env


def spawn(argv: list, env: dict, deadline: float) -> Child:
    """Run one child to completion, or kill it at ``deadline``; wall time and its own peak RSS."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], env=env, cwd=ROOT, stdout=out, stderr=err)
        killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"))


def cli(*args) -> list:
    """A ``scanskill`` console-script call in a fresh interpreter."""
    code = "import sys; from scanskill.cli import entry; sys.argv[0] = 'scanskill'; entry()"
    return [sys.executable, "-c", code, *args]


class Bench:
    """One benchmark run: its work directory, child environment and operation counts."""

    def __init__(self, work: Path, corrupt: bool) -> None:
        self.work = work
        self.corrupt = corrupt
        self.env = child_env()
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mib = 0.0
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.work / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def op(self, argv: list, check) -> Child:
        """Run one operation and check it; ``check(child)`` returns an error or None."""
        child = spawn(argv, self.env, self.deadline)
        self.attempted += 1
        self.peak_rss_mib = max(self.peak_rss_mib, child.rss_mib)
        if child.code != 0:
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            problem = f"exit {child.code}: {tail[0]}"
        else:
            problem = check(child)
        if problem:
            self.failures.append(f"{argv[3] if len(argv) > 3 else argv[1]}: {problem}")
        return child

    def maybe_corrupt(self, path: Path) -> None:
        # Self-test hook: damage an output so that its check must fail.
        if self.corrupt:
            with open(path, "ab") as fh:
                fh.write(b"corrupted\n")

    def compare_all(self, plan: dict) -> list[float]:
        """``scanskill compare`` on each pair of small reports; their wall times."""
        walls = []
        for path_a, path_b, expected in plan["compare_pairs"]:

            def check(child: Child) -> str | None:
                text = child.stdout.replace("quicker", "slower") if self.corrupt else child.stdout
                try:
                    doc = json.loads(text)
                except json.JSONDecodeError:
                    return "compare output is not JSON"
                wrong = [k for k, v in expected.items() if doc.get(k) != v]
                return f"compare fields differ: {wrong}" if wrong else None

            child = self.op(cli("compare", plan["dir"] / path_a, plan["dir"] / path_b), check)
            walls.append(child.wall_s)
        return walls


# ---------------------------------------------------------------------------
# workloads: each runs one operation and returns its samples

def _same_tree(a: Path, b: Path) -> str | None:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return f"file lists differ ({len(files_a)} vs {len(files_b)} files)"
    for rel in files_a:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            return f"{rel} differs"
    return None


def op_report(bench: Bench, plan: dict) -> dict:
    out = bench.fresh_dir("report")
    expected = (plan["dir"] / plan["expected_report"]).read_bytes()

    def check(child: Child) -> str | None:
        path = out / "report.json"
        bench.maybe_corrupt(path)
        return None if path.read_bytes() == expected else "report.json differs from reference"

    report = bench.op(cli("report", "--session", plan["dir"] / plan["session_dir"], "--out", out),
                      check)
    shutil.rmtree(out)
    return {"wall_s": report.wall_s, "realtime_x": plan["grid_s"] / report.wall_s,
            "cold_start_s": bench.compare_all(plan)}


def op_synth_fuse(bench: Bench, plan: dict) -> dict:
    it = bench.fresh_dir("iter")
    session, fused = it / "session", it / "fused"
    w, h = plan["frame_size"]

    def check_synth(child: Child) -> str | None:
        return _same_tree(session, plan["dir"] / plan["ref_session"])

    def check_validate(child: Child) -> str | None:
        return f"findings: {child.stdout.strip()[:200]}" if child.stdout.strip() else None

    def check_fuse(child: Child) -> str | None:
        path = fused / "fused.csv"
        bench.maybe_corrupt(path)
        with open(path, "r", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        return None if rows == plan["fused_rows"] else f"fused.csv has {rows} rows"

    children = [
        bench.op(cli("synth", "--profile", "novice", "--seed", plan["cli_seed"],
                     "--frame-size", f"{w}x{h}", "--out", session), check_synth),
        bench.op(cli("validate", "--session", session), check_validate),
        bench.op(cli("fuse", "--session", session, "--out", fused), check_fuse),
    ]
    probes = bench.compare_all(plan)
    shutil.rmtree(it)
    wall = sum(c.wall_s for c in children) + sum(probes)
    return {"wall_s": wall, "realtime_x": plan["grid_s"] / wall, "cold_start_s": probes}


_ROW = re.compile(r"^\s*(\d+)\s+(expert|novice)\s+(\d+)\s")
_SEED_LINE = re.compile(r"^seed (\d+): quicker=(\S+)\s+smoother=(\S+)")


def op_batch(bench: Bench, plan: dict) -> dict:
    w, h = plan["frame_size"]
    expected = {(s["seed"], s["kind"]): s["n_samples"]
                for s in plan["sessions"] if s["role"] == "evaluation"}

    def check(child: Child) -> str | None:
        text = child.stdout.replace("quicker=expert", "quicker=novice") if bench.corrupt \
            else child.stdout
        lines = text.splitlines()
        rows = {}
        for line in lines:
            m = _ROW.match(line)
            if m:
                rows[int(m[1]), m[2]] = int(m[3])
        if set(rows) != set(expected):
            return f"sessions {sorted(rows)} != {sorted(expected)}"
        for (seed, kind), n in rows.items():
            lo, hi = SAMPLE_RANGES[kind]
            if not lo <= n <= hi or n != expected[seed, kind]:
                return f"{kind} seed {seed}: n_samples {n}"
        verdicts = {int(m[1]): (m[2], m[3]) for m in map(_SEED_LINE.match, lines) if m}
        for seed in plan["eval_seeds"]:
            want = f"expert-{seed:04d}"
            if verdicts.get(seed) != (want, want):
                return f"seed {seed}: expert not quicker and smoother: {verdicts.get(seed)}"
        return None

    lo, hi = plan["calibration_seeds"]
    script = bench.op([sys.executable, SCRIPT, "--seeds", *plan["eval_seeds"],
                       "--frame-size", f"{w}x{h}", "--calibration-seeds", lo, hi], check)
    return {"wall_s": script.wall_s, "realtime_x": plan["grid_s"] / script.wall_s,
            "cold_start_s": bench.compare_all(plan)}


OPS = {"report-640": op_report, "synth-fuse-320": op_synth_fuse, "batch-320": op_batch}


# ---------------------------------------------------------------------------
# provenance

def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(args, plan: dict) -> dict:
    cpu = re.search(r"^model name\s*:\s*(.+)$", _read("/proc/cpuinfo"), re.M)
    caches = {}
    for index in range(4):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = _read(f"{base}/level").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{base}/size").strip()
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or commit
    return {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu[1].strip() if cpu else "unknown",
        "caches": caches,
        "versions": plan["versions"],
        "load": "one closed-loop client, one command at a time",
    }


# ---------------------------------------------------------------------------

def set_up(bench: Bench, args, frame_size, repeats: int) -> tuple[dict, list[float]]:
    """Run set-up ``repeats`` times; returns the last plan and every wall time.

    The plan's paths are made absolute under the kept set-up directory.
    """
    walls, plans = [], []
    for i in range(repeats):
        out = bench.work / f"setup-{i}"
        child = spawn([sys.executable, INPROC, "setup", "--workload", args.workload,
                       "--seed", args.seed, "--dir", out,
                       "--frame-size", f"{frame_size[0]}x{frame_size[1]}"],
                      bench.env, bench.deadline)
        if child.code != 0:
            raise BenchError(f"set-up failed (exit {child.code}):\n{child.stderr}")
        walls.append(child.wall_s)
        with open(out / "plan.json", "r", encoding="utf-8") as fh:
            plans.append(json.load(fh))
        if i:
            shutil.rmtree(bench.work / f"setup-{i - 1}")
    # Same workload and seed must give the same inputs every time.
    if any(p != plans[0] for p in plans):
        raise BenchError("set-up is not deterministic for this seed")
    plan = plans[-1]
    plan["dir"] = out
    return plan, walls


def measure(bench: Bench, plan: dict, args) -> tuple[dict, dict]:
    samples: dict[str, list[float]] = {"wall_s": [], "realtime_x": [], "cold_start_s": []}
    deadline = time.perf_counter() + args.seconds
    while len(samples["wall_s"]) < MIN_OPS or time.perf_counter() < deadline:
        result = OPS[args.workload](bench, plan)
        samples["wall_s"].append(result["wall_s"])
        samples["realtime_x"].append(result["realtime_x"])
        samples["cold_start_s"].extend(result["cold_start_s"])
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mib"] = bench.peak_rss_mib
    return metrics, samples


def trace(bench: Bench, plan: dict, args) -> tuple[dict, dict]:
    child = spawn([sys.executable, INPROC, "replay", "--plan", plan["dir"] / "plan.json",
                   "--out", bench.fresh_dir("replay"), "--seconds", args.seconds],
                  bench.env, bench.deadline)
    if child.code != 0:
        raise BenchError(f"traced replay failed (exit {child.code}):\n{child.stderr}")
    doc = json.loads(child.stdout.strip().splitlines()[-1])
    bench.attempted += doc["attempted"]
    bench.failures += doc["failed"]
    return doc["metrics"], {"samples": doc["samples"], "trace_self_s": doc["trace_self_s"]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(OPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help=f"use {SELFTEST_GEOMETRY[0]}x{SELFTEST_GEOMETRY[1]} frames (self-test)")
    p.add_argument("--corrupt", action="store_true",
                   help="damage every checked output before checking it (self-test)")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")

    needed = (ROOT / "src" / "scanskill" / "cli.py", SCRIPT)
    missing = [path for path in needed if not path.is_file()]
    if missing:
        print(f"error: program sources not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    frame_size = SELFTEST_GEOMETRY if args.selftest else GEOMETRY[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(work, args.corrupt)
    try:
        plan, setup_walls = set_up(bench, args, frame_size, 1 if args.trace else SETUP_REPEATS)
        if args.trace:
            metrics, extra = trace(bench, plan, args)
            units = PER_LAYER_UNITS
        else:
            metrics, samples = measure(bench, plan, args)
            metrics["setup_s"] = statistics.median(setup_walls)
            extra = {"samples": dict(samples, setup_s=setup_walls)}
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed = len(bench.failures)
    record = provenance(args, plan)
    record.update(extra, error_rate=failed / bench.attempted, failures=bench.failures[:20])
    print(json.dumps({"provenance": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
