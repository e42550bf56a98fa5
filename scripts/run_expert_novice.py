#!/usr/bin/env python3
"""Desk-scale expert/novice contrast experiment.

Generates paired synthetic sessions for a range of seeds, builds skill
reports, and prints a per-seed comparison plus batch summary.  With
``--outdir`` the sessions, reports, and plot-ready CSVs are also written so
the series can be inspected with any plotting tool; a session's report and
``plot.csv`` come from its one feature table.

Example:
    python scripts/run_expert_novice.py --seeds 0 1 2 --outdir runs/demo
"""

import argparse
import sys
from pathlib import Path

from scanskill.cli import _parse_frame_size
from scanskill.features import GlcmConfig, SmoothnessConfig, compute_feature_table, write_plot_csv
from scanskill.fusion import ResampleConfig, fuse_streams
from scanskill.skill import (
    build_report, calibrate_thresholds, classify, compare, report_document, report_from_table,
    write_report,
)
from scanskill.synth import build_session, expert_profile, gen_session, novice_profile


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(5)))
    p.add_argument("--frame-size", type=_parse_frame_size, default="320x240",
                   help="frame geometry WxH")
    p.add_argument("--outdir", help="write sessions, reports, and plot CSVs here")
    p.add_argument("--calibration-seeds", type=int, nargs=2, default=(100, 110),
                   metavar=("LO", "HI"), help="seed range for threshold calibration")
    return p.parse_args(argv)


def main() -> int:
    args = parse_args()
    width, height = args.frame_size
    geometry = dict(frame_width=width, frame_height=height)
    outdir = Path(args.outdir) if args.outdir else None
    fuse_cfg, glcm_cfg, smoothness = ResampleConfig(), GlcmConfig(), SmoothnessConfig()

    print(f"calibrating thresholds on seeds {args.calibration_seeds[0]}..{args.calibration_seeds[1] - 1}")
    cal_range = range(*args.calibration_seeds)
    cal_e = [build_report(build_session(expert_profile(s, **geometry))) for s in cal_range]
    cal_n = [build_report(build_session(novice_profile(s, **geometry))) for s in cal_range]
    thresholds = calibrate_thresholds(cal_e, cal_n)
    print(f"  max_expert_samples={thresholds.max_expert_samples}  "
          f"min_expert_sparc={thresholds.min_expert_sparc:.3f}\n")

    header = f"{'seed':>4}  {'kind':<7} {'samples':>7} {'dur_s':>7} {'path_rad':>8} " \
             f"{'sparc':>7} {'ldlj':>8} {'label':<13}"
    print(header)
    print("-" * len(header))
    rows = []
    for seed in args.seeds:
        for profile_fn in (expert_profile, novice_profile):
            profile = profile_fn(seed, **geometry)
            if outdir:
                sess_dir = outdir / f"{profile.kind}-{seed:04d}"
                session = gen_session(profile, sess_dir)
            else:
                session = build_session(profile)
            fused = fuse_streams(session, fuse_cfg)
            table = compute_feature_table(session, fused, glcm_cfg)
            report = report_from_table(session.meta.session_id, fused, table, fuse_cfg, smoothness)
            label = classify(report, thresholds)
            rows.append((seed, profile.kind, report, label))
            print(f"{seed:>4}  {profile.kind:<7} {report.n_samples:>7} "
                  f"{report.duration_s:>7.1f} {report.path_length_rad:>8.2f} "
                  f"{report.sparc:>7.3f} {report.ldlj:>8.2f} {label:<13}")
            if outdir:
                doc = report_document(report, fuse_cfg, glcm_cfg, smoothness)
                write_report(sess_dir / "report.json", doc)
                write_plot_csv(sess_dir / "plot.csv", fused, table)

    print()
    correct = sum(1 for _, kind, _, label in rows if label == f"{kind}_like")
    print(f"classification: {correct}/{len(rows)} sessions labelled correctly")
    for seed in args.seeds:
        expert_r = next(r for s, k, r, _ in rows if s == seed and k == "expert")
        novice_r = next(r for s, k, r, _ in rows if s == seed and k == "novice")
        c = compare(expert_r, novice_r)
        print(f"seed {seed}: quicker={c.quicker}  smoother={c.smoother}  "
              f"sparc delta={c.deltas['sparc']:+.3f}  samples delta={c.deltas['n_samples']:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
