"""Command-line interface wiring the pipeline end to end.

Subcommands: ``synth``, ``validate``, ``fuse``, ``features``, ``report``,
``compare``, ``export-plot``.  Machine-readable output goes to files inside
the session directory (or ``--out``) or to stdout; diagnostics go to stderr
only, uncolored (``NO_COLOR`` is therefore trivially respected).

Exit codes: 0 success, 1 validation findings, 2 usage error, 3 pipeline
error.  Given identical inputs and flags, every command writes byte-identical
output files.

Numeric defaults follow the library modules; ``--config FILE`` loads a JSON
object overriding any of them, and explicit flags override the file.
Recognized config keys: delta_t_us, pose_policy, frame_policy,
max_frame_staleness_us, levels, offsets, symmetric, roi,
speed_smoothing_window, sparc_cutoff_hz, sparc_amplitude_threshold.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

from .features import GlcmConfig, SmoothnessConfig, compute_feature_table, write_features_csv
from .fusion import ResampleConfig, fuse_streams, write_fused_csv
from .ingest import load_session, validate_session
from .skill import build_report, compare, report_document, report_from_document
from .synth import ProfileConfig, gen_session

_CONFIG_KEYS = (
    "delta_t_us",
    "pose_policy",
    "frame_policy",
    "max_frame_staleness_us",
    "levels",
    "offsets",
    "symmetric",
    "roi",
    "speed_smoothing_window",
    "sparc_cutoff_hz",
    "sparc_amplitude_threshold",
)

# Series emitted by export-plot, in output order.
_PLOT_SERIES = (
    "asm",
    "energy",
    "homogeneity",
    "hist_mean",
    "hist_var",
    "hist_entropy",
    "qw",
    "qx",
    "qy",
    "qz",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scanskill", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_pipeline_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--session", required=True, help="session directory")
        p.add_argument("--out", help="output directory (default: the session directory)")
        p.add_argument("--config", help="JSON file overriding pipeline defaults")
        p.add_argument("--delta-t-us", type=int, help="fusion grid step in microseconds")
        p.add_argument("--max-staleness-us", type=int, help="maximum frame staleness")
        p.add_argument("--levels", type=int, help="GLCM quantization levels (8|16|32|64)")
        p.add_argument(
            "--offsets", type=_parse_offsets, help="GLCM offsets, e.g. '1,0;0,1;1,1;-1,1'"
        )
        p.add_argument(
            "--roi", type=_parse_roi, help="texture ROI as 'x,y,w,h' (default: full frame)"
        )

    p = sub.add_parser("synth", help="generate a synthetic session")
    p.add_argument("--profile", required=True, choices=("expert", "novice"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="session directory to create")
    p.add_argument("--pose-rate", type=float, default=100.0, help="pose rate in Hz")
    p.add_argument("--frame-rate", type=float, default=25.0, help="frame rate in Hz")
    p.add_argument(
        "--frame-size", type=_parse_frame_size, default=(640, 480), help="frame geometry WxH"
    )
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate", help="check a recorded session for findings")
    p.add_argument("--session", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fuse", help="resample both streams onto the fused grid")
    add_pipeline_flags(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("features", help="extract texture/histogram/motion features")
    add_pipeline_flags(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("report", help="build the per-session skill report")
    add_pipeline_flags(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("compare", help="compare two report.json files")
    p.add_argument("report_a", help="first report.json")
    p.add_argument("report_b", help="second report.json")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("export-plot", help="emit tidy long-format CSV for plotting")
    add_pipeline_flags(p)
    p.set_defaults(func=_cmd_export_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:  # console-script entry point
    sys.exit(main())


# ---------------------------------------------------------------------------
# configuration plumbing

def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    unknown = set(doc) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    return doc


def _parse_offsets(text: str) -> tuple[tuple[int, int], ...]:
    try:
        pairs = tuple(
            tuple(int(v) for v in chunk.split(",")) for chunk in text.split(";") if chunk
        )
    except ValueError:
        raise ValueError(f"bad offsets {text!r}; expected 'dx,dy;dx,dy;...'") from None
    if any(len(p) != 2 for p in pairs):
        raise ValueError(f"bad offsets {text!r}; expected 'dx,dy;dx,dy;...'")
    return pairs


def _parse_roi(text: str) -> tuple[int, int, int, int]:
    try:
        parts = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"bad roi {text!r}; expected 'x,y,w,h'") from None
    if len(parts) != 4:
        raise ValueError(f"bad roi {text!r}; expected 'x,y,w,h'")
    return parts


def _parse_frame_size(text: str) -> tuple[int, int]:
    try:
        width, height = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad frame size {text!r}; expected WxH") from None
    return width, height


def _pipeline_configs(args) -> tuple[ResampleConfig, GlcmConfig, SmoothnessConfig]:
    cfg = _load_config(args.config)

    def pick(flag, key, fallback):
        if flag is not None:
            return flag
        return cfg.get(key, fallback)

    fuse_cfg = ResampleConfig(
        delta_t_us=pick(args.delta_t_us, "delta_t_us", 10_000),
        pose_policy=cfg.get("pose_policy", "slerp"),
        frame_policy=cfg.get("frame_policy", "nearest"),
        max_frame_staleness_us=pick(args.max_staleness_us, "max_frame_staleness_us", 100_000),
    )
    offsets = args.offsets
    if offsets is None and "offsets" in cfg:
        offsets = tuple(tuple(int(v) for v in pair) for pair in cfg["offsets"])
    roi = args.roi
    if roi is None and cfg.get("roi") is not None:
        roi = tuple(int(v) for v in cfg["roi"])
    glcm_kwargs = {"roi": roi}
    if offsets is not None:
        glcm_kwargs["offsets"] = offsets
    glcm_cfg = GlcmConfig(
        levels=pick(args.levels, "levels", 32),
        symmetric=bool(cfg.get("symmetric", True)),
        **glcm_kwargs,
    )
    smoothness = SmoothnessConfig(
        speed_smoothing_window=int(cfg.get("speed_smoothing_window", 5)),
        sparc_cutoff_hz=float(cfg.get("sparc_cutoff_hz", 10.0)),
        sparc_amplitude_threshold=float(cfg.get("sparc_amplitude_threshold", 0.05)),
    )
    return fuse_cfg, glcm_cfg, smoothness


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(args.session)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args) -> int:
    width, height = args.frame_size
    profile = ProfileConfig(
        kind=args.profile,
        seed=args.seed,
        pose_rate_hz=args.pose_rate,
        frame_rate_hz=args.frame_rate,
        frame_width=width,
        frame_height=height,
    )
    gen_session(profile, args.out)
    print(f"wrote session {args.out}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    session = load_session(args.session)
    report = validate_session(session)
    for finding in report.findings:
        print(f"{finding.kind}: {finding.message}")
    return 0 if report.ok else 1


def _cmd_fuse(args) -> int:
    session = load_session(args.session)
    fuse_cfg, _, _ = _pipeline_configs(args)
    fused = fuse_streams(session, fuse_cfg)
    path = _out_dir(args) / "fused.csv"
    write_fused_csv(path, fused)
    print(f"wrote {path} ({len(fused)} samples)", file=sys.stderr)
    return 0


def _cmd_features(args) -> int:
    session = load_session(args.session)
    fuse_cfg, glcm_cfg, _ = _pipeline_configs(args)
    fused = fuse_streams(session, fuse_cfg)
    table = compute_feature_table(session, fused, glcm_cfg)
    path = _out_dir(args) / "features.csv"
    write_features_csv(path, table)
    print(f"wrote {path} ({len(table)} rows)", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    session = load_session(args.session)
    fuse_cfg, glcm_cfg, smoothness = _pipeline_configs(args)
    report = build_report(session, fuse_cfg, glcm_cfg, smoothness)
    doc = report_document(report, fuse_cfg, glcm_cfg, smoothness)
    path = _out_dir(args) / "report.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    reports = []
    for path in (args.report_a, args.report_b):
        with open(path, "r", encoding="utf-8") as fh:
            reports.append(report_from_document(json.load(fh)))
    result = compare(reports[0], reports[1])
    doc = {
        "a": result.a.session_id,
        "b": result.b.session_id,
        "deltas": result.deltas,
        "smoother": result.smoother,
        "quicker": result.quicker,
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_export_plot(args) -> int:
    session = load_session(args.session)
    fuse_cfg, glcm_cfg, _ = _pipeline_configs(args)
    fused = fuse_streams(session, fuse_cfg)
    table = compute_feature_table(session, fused, glcm_cfg)
    path = _out_dir(args) / "plot.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_us,series,value\n")
        hist_attr = {"hist_mean": "mean", "hist_var": "variance", "hist_entropy": "entropy"}
        for series in _PLOT_SERIES:
            if series.startswith("q"):
                component = "wxyz".index(series[1])
                for sample in fused:
                    fh.write(f"{sample.t_us},{series},{repr(float(sample.q[component]))}\n")
                continue
            for record in table:
                if series in hist_attr:
                    value = None if record.hist is None else getattr(record.hist, hist_attr[series])
                else:
                    value = None if record.texture is None else getattr(record.texture, series)
                if value is not None:
                    fh.write(f"{record.t_us},{series},{repr(value)}\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0
