#!/usr/bin/env python3
"""In-process half of the benchmark: workload set-up and the traced replay.

``run.py`` starts this file in a child interpreter whose ``PYTHONPATH`` is the
checkout's ``src``, so the parent never imports numpy and its memory never
mixes with the program's.

    python3 perfbench/inproc.py setup  --workload W --seed N --dir D --frame-size WxH
    python3 perfbench/inproc.py replay --plan D/plan.json --out D2 --seconds S

``setup`` writes the workload's inputs and expected outputs under ``D`` and a
``plan.json`` that describes them, with paths relative to ``D``.  ``replay``
regenerates the workload's sessions and runs them through the public
functions of each module, with a span around every call, then prints one
JSON object with the per-layer metrics.  Spans live in this file only; the
program is not instrumented.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

import scanskill
from scanskill.features import (
    GlcmConfig,
    SmoothnessConfig,
    angular_velocity,
    compute_feature_table,
    frame_features,
    histogram_stats,
    log_dimensionless_jerk,
    path_length,
    smooth_speed,
    sparc,
)
from scanskill.fusion import ResampleConfig, StreamingFuser, fuse_streams, write_fused_csv
from scanskill.ingest import (
    Session,
    read_frame_index,
    read_manifest,
    read_pose_csv,
    validate_session,
    write_session,
)
from scanskill.skill import (
    build_report,
    calibrate_thresholds,
    classify,
    compare,
    report_document,
    report_from_document,
)
from scanskill.synth import (
    build_session,
    expert_profile,
    gen_phantom_frame,
    gen_session,
    gen_trajectory,
    novice_profile,
)

# report-640 uses one novice session of fixed length, so every seed costs the
# same: 2001 grid samples = 20 s of data = 501 frames at 25 fps.
REPORT_SAMPLES = 2001
# synth-fuse-320 and batch-320 call the CLI and the script, which draw the
# session length from the seed.  Set-up draws a fixed pool of seeds from the
# workload seed and keeps those whose sessions are nearest these lengths, so
# that neither run time, peak RSS nor set-up time follows the seed.  The
# batch script holds a seed's expert and novice sessions at once, so its
# peak RSS follows their sum.
SEED_POOL = 32
SYNTH_NOVICE_TARGET = 6000
BATCH_PAIR_TARGET = 8000
# The two small reports that `compare` runs on.
SMALL_SAMPLES = {"expert": 401, "novice": 1201}
SMALL_GEOMETRY = (64, 48)
# The per-frame spans see every k-th distinct frame; feature_table and
# build_report still see every frame.
FRAME_SAMPLE_STRIDE = 4
CLI_IMPORT_REPEATS = 3
OVERHEAD_PAIRS = 10

PROFILES = {"expert": expert_profile, "novice": novice_profile}


def _write_json(path: Path, doc) -> None:
    # Same bytes as `scanskill report` writes.
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _profile(spec: dict):
    overrides = {"frame_width": spec["frame_size"][0], "frame_height": spec["frame_size"][1]}
    if spec["fixed_length"]:
        overrides["n_samples_range"] = (spec["n_samples"], spec["n_samples"])
    return PROFILES[spec["kind"]](spec["seed"], **overrides)


def _trajectory_length(kind: str, seed: int) -> int:
    return len(gen_trajectory(PROFILES[kind](seed)))


def _grid_seconds(n_samples: int) -> float:
    return (n_samples - 1) * ResampleConfig().delta_t_us / 1e6


# ---------------------------------------------------------------------------
# set-up

def _small_reports(seed: int, out: Path) -> dict:
    """Two small report.json files plus the expected `compare` results."""
    (out / "small").mkdir(parents=True, exist_ok=True)
    paths, reports, specs = {}, {}, []
    for kind, n in SMALL_SAMPLES.items():
        spec = {"kind": kind, "seed": seed, "frame_size": list(SMALL_GEOMETRY),
                "n_samples": n, "fixed_length": True, "role": "session"}
        specs.append(spec)
        report = build_report(build_session(_profile(spec)))
        doc = report_document(report, ResampleConfig(), GlcmConfig(), SmoothnessConfig())
        paths[kind] = f"small/{kind}.json"
        _write_json(out / paths[kind], doc)
        with open(out / paths[kind], "r", encoding="utf-8") as fh:
            reports[kind] = report_from_document(json.load(fh))
    pairs = []
    for a, b in (("expert", "novice"), ("novice", "expert"), ("novice", "novice")):
        result = compare(reports[a], reports[b])
        expected = {
            "a": result.a.session_id,
            "b": result.b.session_id,
            "deltas": result.deltas,
            "smoother": result.smoother,
            "quicker": result.quicker,
        }
        pairs.append([paths[a], paths[b], expected])
    return {"compare_pairs": pairs, "small_reports": paths, "small_sessions": specs}


def _setup_report(plan: dict, rng: random.Random, out: Path) -> None:
    seed = rng.randrange(1_000_000)
    spec = {"kind": "novice", "seed": seed, "frame_size": plan["frame_size"],
            "n_samples": REPORT_SAMPLES, "fixed_length": True, "role": "session"}
    session = gen_session(_profile(spec), out / "session")
    report = build_report(session)
    doc = report_document(report, ResampleConfig(), GlcmConfig(), SmoothnessConfig())
    _write_json(out / "expected_report.json", doc)
    plan.update(
        sessions=[spec],
        session_dir="session",
        expected_report="expected_report.json",
        grid_s=_grid_seconds(report.n_samples),
    )


def _seed_pool(rng: random.Random) -> list[int]:
    return rng.sample(range(1_000_000), SEED_POOL)


def _setup_synth_fuse(plan: dict, rng: random.Random, out: Path) -> None:
    lengths = {seed: _trajectory_length("novice", seed) for seed in _seed_pool(rng)}
    seed = min(lengths, key=lambda s: abs(lengths[s] - SYNTH_NOVICE_TARGET))
    spec = {"kind": "novice", "seed": seed, "frame_size": plan["frame_size"],
            "n_samples": lengths[seed], "fixed_length": False, "role": "session"}
    # The copy that every `scanskill synth` output must equal, byte for byte.
    session = gen_session(_profile(spec), out / "ref_session")
    fused = fuse_streams(session, ResampleConfig())
    plan.update(
        sessions=[spec],
        cli_seed=seed,
        ref_session="ref_session",
        fused_rows=len(fused),
        grid_s=_grid_seconds(len(fused)),
    )


def _setup_batch(plan: dict, rng: random.Random, out: Path) -> None:
    lengths = {seed: {kind: _trajectory_length(kind, seed) for kind in PROFILES}
               for seed in _seed_pool(rng)}
    by_fit = sorted(lengths, key=lambda s: abs(sum(lengths[s].values()) - BATCH_PAIR_TARGET))
    sessions = []
    for seed, role in zip(by_fit, ("calibration", "evaluation")):
        for kind, n in lengths[seed].items():
            sessions.append({"kind": kind, "seed": seed, "frame_size": plan["frame_size"],
                             "n_samples": n, "fixed_length": False, "role": role})
    plan.update(
        sessions=sessions,
        calibration_seeds=[by_fit[0], by_fit[0] + 1],
        eval_seeds=[by_fit[1]],
        grid_s=sum(_grid_seconds(s["n_samples"]) for s in sessions),
    )


SETUPS = {
    "report-640": _setup_report,
    "synth-fuse-320": _setup_synth_fuse,
    "batch-320": _setup_batch,
}


def setup(workload: str, seed: int, out: Path, frame_size: tuple[int, int]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    plan = {
        "workload": workload,
        "seed": seed,
        "frame_size": list(frame_size),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "scanskill": scanskill.__version__,
        },
    }
    plan.update(_small_reports(rng.randrange(1_000_000), out))
    SETUPS[workload](plan, rng, out)
    _write_json(out / "plan.json", plan)


# ---------------------------------------------------------------------------
# tracing

class Tracer:
    """Spans and counters recorded around calls into the program.

    With ``enabled`` false every span and count is a no-op, which gives the
    untraced baseline for ``trace.overhead_frac``.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []  # [name, parent index, start, end, request id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: str | None = None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None, request])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def peak(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = max(self.counts[name], value)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = Counter()
        for i, (name, _, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)


# ---------------------------------------------------------------------------
# replay

def _stream_fuse(session: Session, cfg: ResampleConfig) -> list:
    fuser = StreamingFuser(cfg)
    events = [(p.t_us, 0, p) for p in session.poses] + [(f.t_us, 1, None) for f in session.frames]
    events.sort(key=lambda e: (e[0], e[1]))
    out = []
    for t_us, is_frame, pose in events:
        out += fuser.push_frame(t_us) if is_frame else fuser.push_pose(pose)
    return out + fuser.finish()


def _same_fused(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        x.t_us == y.t_us
        and x.frame_idx == y.frame_idx
        and x.frame_staleness_us == y.frame_staleness_us
        and np.array_equal(x.q, y.q)
        for x, y in zip(a, b)
    )


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def _replay_session(tr: Tracer, spec: dict, out: Path, checks: Checks):
    fuse_cfg, glcm_cfg, smooth = ResampleConfig(), GlcmConfig(), SmoothnessConfig()
    profile = _profile(spec)
    width, height = spec["frame_size"]

    with tr.span("synth.trajectory"):
        poses = gen_trajectory(profile)
    with tr.span("synth.build_session"):
        built = build_session(profile)
    # Frames sit on every fourth pose at the default rates; render them again
    # from those poses to time the renderer alone.
    pose_at = {p.t_us: p.q for p in poses}
    frame_q = [pose_at[f.t_us] for f in built.frames if f.t_us in pose_at]
    target = profile.resolved_target()
    with tr.span("synth.render"):
        for q in frame_q:
            gen_phantom_frame(q, target, (width, height), profile.seed)
    tr.count("frames_rendered", len(frame_q))

    session_dir = out / "session"
    with tr.span("ingest.write_session"):
        write_session(session_dir, built)
    del built
    with tr.span("ingest.read_pose_csv"):
        poses = read_pose_csv(session_dir / "pose.csv")
    with tr.span("ingest.read_frame_index"):
        frames = read_frame_index(session_dir)
    meta, echo = read_manifest(session_dir)
    session = Session(meta=meta, poses=poses, frames=frames, synthetic_profile=echo)
    tr.count("poses_parsed", len(poses))
    with tr.span("ingest.validate"):
        findings = validate_session(session).findings
    checks.expect(not findings, f"{meta.session_id}: validate found {len(findings)} finding(s)")

    # Decode every frame up front so that decode and GLCM time separate.
    with tr.span("ingest.decode"):
        for frame in frames:
            frame.pixels
    tr.count("frames_decoded", len(frames))
    tr.count("decoded_bytes", len(frames) * width * height)

    with tr.span("fusion.fuse"):
        fused = fuse_streams(session, fuse_cfg)
    tr.count("grid_samples", len(fused))
    with_frame = [s.frame_idx for s in fused if s.frame_idx is not None]
    tr.count("grid_with_frame", len(with_frame))
    with tr.span("fusion.write_fused_csv"):
        write_fused_csv(out / "fused.csv", fused)
    with tr.span("fusion.streaming"):
        streamed = _stream_fuse(session, fuse_cfg)
    checks.expect(_same_fused(streamed, fused),
                  f"{meta.session_id}: StreamingFuser != fuse_streams")

    distinct = sorted(set(with_frame))
    tr.count("distinct_frames", len(distinct))
    sample = [frames[i] for i in distinct[::FRAME_SAMPLE_STRIDE]]
    tr.count("frames_sampled", len(sample))
    with tr.span("features.frame_features"):
        for frame in sample:
            frame_features(frame, glcm_cfg)
    with tr.span("features.histogram"):
        for frame in sample:
            histogram_stats(frame)
    with tr.span("features.feature_table"):
        table = compute_feature_table(session, fused, glcm_cfg)
    checks.expect(len(table) == len(fused), f"{meta.session_id}: feature table length")
    with tr.span("features.motion"):
        motion = angular_velocity(fused, fuse_cfg.delta_t_us)
        path_length(fused)
    with tr.span("features.smoothness"):
        speed = smooth_speed(motion.speed, smooth.speed_smoothing_window)
        sparc(speed, 1e6 / fuse_cfg.delta_t_us, smooth.sparc_cutoff_hz,
              smooth.sparc_amplitude_threshold)
        log_dimensionless_jerk(speed, fuse_cfg.delta_t_us / 1e6)

    with tr.span("skill.build_report"):
        report = build_report(session, fuse_cfg, glcm_cfg, smooth)
    checks.expect(report.n_samples == spec["n_samples"], f"{meta.session_id}: n_samples")
    with tr.span("skill.report_write"):
        _write_json(out / "report.json", report_document(report, fuse_cfg, glcm_cfg, smooth))
    # Frames the session still holds decoded after the report: Frame caches
    # its pixels in `_pixels`.
    cached = sum(1 for f in frames if getattr(f, "_pixels", None) is not None)
    tr.peak("resident_frame_bytes", cached * width * height)
    shutil.rmtree(session_dir)
    return report


def replay(sessions: list, fallback_calibration: list, tr: Tracer, out: Path,
           checks: Checks) -> list:
    """Replay every session, then calibrate and classify; returns (spec, report, dir).

    Calibration uses the sessions with role "calibration" when both classes
    are there, as the batch script does, and ``fallback_calibration``
    (kind, report) pairs otherwise.
    """
    done = []
    with tr.span("replay", request=out.name):
        for i, spec in enumerate(sessions):
            session_out = out / f"s{i}"
            with tr.span("session", request=f"{spec['kind']}-{spec['seed']}"):
                report = _replay_session(tr, spec, session_out, checks)
            done.append((spec, report, session_out))

        calibration = [(s["kind"], r) for s, r, _ in done if s["role"] == "calibration"]
        evaluation = [r for s, r, _ in done if s["role"] != "calibration"]
        if {kind for kind, _ in calibration} != {"expert", "novice"}:
            calibration = fallback_calibration
        with tr.span("skill.calibrate_classify"):
            thresholds = calibrate_thresholds(
                [r for k, r in calibration if k == "expert"],
                [r for k, r in calibration if k == "novice"],
            )
            for r in evaluation:
                classify(r, thresholds)
    return done


def check_workload(plan: dict, setup_dir: Path, done: list, checks: Checks) -> None:
    """The workload's own output checks, on the replay's outputs."""
    if "expected_report" in plan:
        same = (done[0][2] / "report.json").read_bytes() == \
            (setup_dir / plan["expected_report"]).read_bytes()
        checks.expect(same, "report.json differs from the set-up reference")
    if "fused_rows" in plan:
        with open(done[0][2] / "fused.csv", "r", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        checks.expect(rows == plan["fused_rows"], "fused.csv row count")
    evaluation = {s["kind"]: r for s, r, _ in done if s["role"] == "evaluation"}
    if evaluation:
        result = compare(evaluation["expert"], evaluation["novice"])
        expert_id = evaluation["expert"].session_id
        checks.expect(result.quicker == expert_id and result.smoother == expert_id,
                      "expert not quicker and smoother than novice")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    t = tr.self_times()
    c = tr.counts
    us = 1e6
    frame_features_us = t["features.frame_features"] / c["frames_sampled"] * us
    histogram_us = t["features.histogram"] / c["frames_sampled"] * us
    report_parts = (t["fusion.fuse"] + t["features.feature_table"] + t["features.motion"]
                    + t["features.smoothness"])
    return {
        "ingest.read_pose_csv_s": t["ingest.read_pose_csv"],
        "ingest.read_frame_index_s": t["ingest.read_frame_index"],
        "ingest.poses_parsed": c["poses_parsed"],
        "ingest.decode_s": t["ingest.decode"],
        "ingest.frames_decoded": c["frames_decoded"],
        "ingest.decode_mib_per_s": c["decoded_bytes"] / 2**20 / t["ingest.decode"],
        "ingest.resident_frame_mib": c["resident_frame_bytes"] / 2**20,
        "ingest.write_session_s": t["ingest.write_session"],
        "ingest.validate_s": t["ingest.validate"],
        "synth.trajectory_s": t["synth.trajectory"],
        "synth.render_us_per_frame": t["synth.render"] / c["frames_rendered"] * us,
        "synth.build_session_s": t["synth.build_session"],
        "fusion.fuse_s": t["fusion.fuse"],
        "fusion.us_per_grid_sample": t["fusion.fuse"] / c["grid_samples"] * us,
        "fusion.grid_samples": c["grid_samples"],
        "fusion.frameless_frac": 1.0 - c["grid_with_frame"] / c["grid_samples"],
        "fusion.write_fused_csv_s": t["fusion.write_fused_csv"],
        "fusion.streaming_us_per_sample": t["fusion.streaming"] / c["grid_samples"] * us,
        "features.frame_features_us_per_frame": frame_features_us,
        "features.histogram_us_per_frame": histogram_us,
        "features.glcm_us_per_frame": frame_features_us - histogram_us,
        "features.distinct_frames": c["distinct_frames"],
        "features.frame_reuse": c["grid_with_frame"] / c["distinct_frames"],
        "features.feature_table_s": t["features.feature_table"],
        "features.motion_s": t["features.motion"],
        "features.smoothness_s": t["features.smoothness"],
        "skill.build_report_s": t["skill.build_report"],
        "skill.report_overhead_s": t["skill.build_report"] - report_parts,
        "skill.report_write_s": t["skill.report_write"],
        "skill.calibrate_classify_s": t["skill.calibrate_classify"],
    }


def cli_import_seconds() -> tuple[float, list[float], list[float]]:
    """Fresh-interpreter ``import scanskill.cli`` minus bare interpreter start."""
    def wall(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        return time.perf_counter() - t0

    bare, cli = [], []
    for _ in range(CLI_IMPORT_REPEATS):
        bare.append(wall("pass"))
        cli.append(wall("import scanskill.cli"))
    return statistics.median(cli) - statistics.median(bare), bare, cli


def run_replay(plan: dict, setup_dir: Path, out: Path, seconds: float) -> dict:
    """One traced replay for the per-layer metrics, then the tracing overhead.

    The overhead is the wall ratio of traced to untraced replays of the small
    expert session, in pairs whose order alternates, until ``seconds`` have
    passed since the start (at least OVERHEAD_PAIRS pairs).  The span count
    per session is fixed and that session does the least work per span, so
    the ratio bounds the overhead of the workload's own replay from above.
    """
    deadline = time.perf_counter() + seconds
    checks = Checks()
    small = []
    for kind, path in plan["small_reports"].items():
        with open(setup_dir / path, "r", encoding="utf-8") as fh:
            small.append((kind, report_from_document(json.load(fh))))

    tr = Tracer(True)
    done = replay(plan["sessions"], small, tr, out / "full", checks)
    check_workload(plan, setup_dir, done, checks)
    metrics = layer_metrics(tr)
    spans = {name: round(v, 6) for name, v in sorted(tr.self_times().items())}

    small_session = [plan["small_sessions"][0]]
    overhead = []
    while len(overhead) < OVERHEAD_PAIRS or time.perf_counter() < deadline:
        walls = {}
        order = (False, True) if len(overhead) % 2 == 0 else (True, False)
        for enabled in order:
            t0 = time.perf_counter()
            pair_out = out / f"pair{len(overhead)}-{int(enabled)}"
            replay(small_session, small, Tracer(enabled), pair_out, checks)
            walls[enabled] = time.perf_counter() - t0
        overhead.append(walls[True] / walls[False] - 1.0)

    import_s, bare, cli = cli_import_seconds()
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_frac"] = statistics.median(overhead)
    return {
        "metrics": metrics,
        "samples": {"trace.overhead_frac": overhead, "cli.bare_start_s": bare,
                    "cli.import_start_s": cli},
        "trace_self_s": spans,
        "attempted": checks.attempted,
        "failed": checks.failed,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--workload", required=True, choices=sorted(SETUPS))
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--dir", required=True)
    s.add_argument("--frame-size", required=True)
    r = sub.add_parser("replay")
    r.add_argument("--plan", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--seconds", type=float, required=True)
    args = p.parse_args()

    if args.cmd == "setup":
        w, h = (int(v) for v in args.frame_size.split("x"))
        setup(args.workload, args.seed, Path(args.dir), (w, h))
        return 0
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    setup_dir = Path(args.plan).parent
    print(json.dumps(run_replay(plan, setup_dir, Path(args.out), args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
