"""Command-line interface wiring the pipeline end to end.

Subcommands: ``synth``, ``validate``, ``fuse``, ``features``, ``report``,
``compare``, ``export-plot``.  Machine-readable output goes to files inside
the session directory (or ``--out``) or to stdout; diagnostics go to stderr
only, uncolored (``NO_COLOR`` is therefore trivially respected).

Exit codes: 0 success, 1 validation findings, 2 usage error, 3 pipeline
error.  Given identical inputs and flags, every command writes byte-identical
output files.

``--config FILE`` loads a JSON object whose keys are the fields of
``ResampleConfig``, ``GlcmConfig`` and ``SmoothnessConfig``; explicit flags
override the file, and absent keys take the dataclass defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

from .skill import build_report, compare, report_document, report_from_document, write_report

# The pipeline modules (and with them numpy) are imported by the subcommands
# that run them, so that `compare` starts in a fraction of the time.
if TYPE_CHECKING:
    from .features import GlcmConfig, SmoothnessConfig
    from .fusion import ResampleConfig

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
        p.add_argument("--max-staleness-us", type=int, dest="max_frame_staleness_us",
                       help="maximum frame staleness")
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
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a spaced value starting with '-' ('--offsets -1,0;0,1')
    # for an option; the joined '--offsets=-1,0;0,1' form is unambiguous.
    while "--offsets" in argv[:-1]:
        i = argv.index("--offsets")
        argv[i : i + 2] = [f"--offsets={argv[i + 1]}"]
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
    except _pipeline_errors() as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


def _pipeline_errors() -> tuple[type[Exception], ...]:
    """The exceptions that end a command with exit 3 and one ``error:`` line.

    ``main`` calls this only once an exception reaches its handler, so the
    commands that never start a process pool do not import concurrent.futures.
    ``RecursionError`` is what ``json.load`` raises on deeply nested input,
    ``MemoryError`` what numpy raises for a frame too large to allocate.
    """
    from concurrent.futures import BrokenExecutor

    return (ValueError, OSError, KeyError, RecursionError, MemoryError, BrokenExecutor)


def entry() -> None:  # console-script entry point
    sys.exit(main())


# ---------------------------------------------------------------------------
# configuration plumbing

# argparse shows an ArgumentTypeError's own message; for any other error of a
# ``type`` function it prints only the function's name.

def _parse_offsets(text: str) -> tuple[tuple[int, int], ...]:
    error = argparse.ArgumentTypeError(f"bad offsets {text!r}; expected 'dx,dy;dx,dy;...'")
    try:
        pairs = tuple(
            tuple(int(v) for v in chunk.split(",")) for chunk in text.split(";") if chunk
        )
    except ValueError:
        raise error from None
    if any(len(p) != 2 for p in pairs):
        raise error
    return pairs


def _parse_roi(text: str) -> tuple[int, int, int, int]:
    error = argparse.ArgumentTypeError(f"bad roi {text!r}; expected 'x,y,w,h'")
    try:
        parts = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise error from None
    if len(parts) != 4:
        raise error
    return parts


def _parse_frame_size(text: str) -> tuple[int, int]:
    try:
        width, height = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad frame size {text!r}; expected WxH") from None
    return width, height


def _pipeline_configs(args) -> tuple[ResampleConfig, GlcmConfig, SmoothnessConfig]:
    """The three configs from ``--config``, with explicit flags merged over it.

    Each dataclass checks its own values; a key it does not declare takes
    its default.
    """
    from .features import GlcmConfig, SmoothnessConfig
    from .fusion import ResampleConfig

    classes = (ResampleConfig, GlcmConfig, SmoothnessConfig)
    known = {f.name for cls in classes for f in fields(cls)}
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        unknown = set(cfg) - known
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(map(repr, sorted(unknown)))}")
    cfg.update((k, v) for k, v in vars(args).items() if k in known and v is not None)
    return tuple(
        cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}) for cls in classes
    )


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(args.session)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args) -> int:
    from .synth import ProfileConfig, gen_session

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
    from .ingest import load_session, validate_session

    session = load_session(args.session)
    report = validate_session(session)
    for finding in report.findings:
        print(f"{finding.kind}: {finding.message}")
    return 0 if report.ok else 1


def _cmd_fuse(args) -> int:
    from .fusion import fuse_streams, write_fused_csv
    from .ingest import load_session

    session = load_session(args.session)
    fuse_cfg, _, _ = _pipeline_configs(args)
    fused = fuse_streams(session, fuse_cfg)
    path = _out_dir(args) / "fused.csv"
    write_fused_csv(path, fused)
    print(f"wrote {path} ({len(fused)} samples)", file=sys.stderr)
    return 0


def _cmd_features(args) -> int:
    from .features import compute_feature_table, write_features_csv
    from .fusion import fuse_streams
    from .ingest import load_session

    session = load_session(args.session)
    fuse_cfg, glcm_cfg, _ = _pipeline_configs(args)
    fused = fuse_streams(session, fuse_cfg)
    table = compute_feature_table(session, fused, glcm_cfg)
    path = _out_dir(args) / "features.csv"
    write_features_csv(path, table)
    print(f"wrote {path} ({len(table)} rows)", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    from .ingest import load_session

    session = load_session(args.session)
    fuse_cfg, glcm_cfg, smoothness = _pipeline_configs(args)
    report = build_report(session, fuse_cfg, glcm_cfg, smoothness)
    doc = report_document(report, fuse_cfg, glcm_cfg, smoothness)
    path = _out_dir(args) / "report.json"
    write_report(path, doc)
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
    # Two finite metrics can still differ by more than the largest float;
    # strict JSON has no Infinity, so such a delta is an error, found before
    # anything is printed.
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_export_plot(args) -> int:
    from .features import compute_feature_table
    from .fusion import fuse_streams
    from .ingest import _write_csv, load_session

    session = load_session(args.session)
    fuse_cfg, glcm_cfg, _ = _pipeline_configs(args)
    fused = fuse_streams(session, fuse_cfg)
    table = compute_feature_table(session, fused, glcm_cfg)
    t_us = table.t_us.tolist()
    q = {f"q{c}": [float(s.q[i]) for s in fused] for i, c in enumerate("wxyz")}
    rows = (
        (t, series, value)
        for series in _PLOT_SERIES
        for t, value in zip(t_us, q[series] if series in q else getattr(table, series).tolist())
        if value == value  # NaN: no frame at this instant
    )
    path = _out_dir(args) / "plot.csv"
    _write_csv(path, "t_us,series,value", rows)
    print(f"wrote {path}", file=sys.stderr)
    return 0
