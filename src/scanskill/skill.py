"""Aggregate fused and feature series into per-session skill reports.

A report reduces one session to the quantities that separate practiced from
unpracticed scanning: how many fused grid samples the search took, how far
the probe orientation travelled, how smooth the angular-speed profile was
(SPARC, LDLJ), and how stable the image texture stayed.  ``classify`` turns
a report into an expert-like / novice-like / indeterminate label against
calibrated thresholds; ``compare`` ranks two reports directly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .features import FeatureTable, GlcmConfig, SmoothnessConfig
    from .fusion import FusedSample, ResampleConfig
    from .ingest import Session

__all__ = [
    "ClassifierThresholds",
    "Comparison",
    "METRIC_ORDER",
    "SkillReport",
    "build_report",
    "calibrate_thresholds",
    "classify",
    "compare",
    "report_document",
    "report_from_table",
    "write_report",
]


@dataclass(frozen=True)
class SkillReport:
    session_id: str
    n_samples: int  # fused grid length; one sample = one grid instant
    duration_s: float
    delta_t_us: int
    path_length_rad: float
    ldlj: float | None
    sparc: float | None
    mean_asm: float | None
    mean_energy: float | None
    mean_homogeneity: float | None
    texture_stability: float | None  # std dev of homogeneity over time
    flags: tuple[str, ...] = ()


# The report's metrics in field order, the order of comparison and report output.
METRIC_ORDER = tuple(
    f.name for f in fields(SkillReport) if f.name not in ("session_id", "delta_t_us", "flags")
)


@dataclass(frozen=True)
class ClassifierThresholds:
    max_expert_samples: int
    min_expert_sparc: float


@dataclass(frozen=True)
class Comparison:
    a: SkillReport
    b: SkillReport
    deltas: dict  # metric -> a minus b (None when either side is absent)
    smoother: str  # session_id with greater sparc, or "tie"
    quicker: str  # session_id with fewer samples, or "tie"


def build_report(
    session: Session,
    fuse_cfg: ResampleConfig | None = None,
    glcm_cfg: GlcmConfig | None = None,
    smoothness: SmoothnessConfig | None = None,
) -> SkillReport:
    """Fuse, featurise and reduce one session: ``fuse_streams``, then
    ``compute_feature_table``, then :func:`report_from_table`.  Deterministic:
    identical session content and configs give identical report fields."""
    # Imported here so that reading and comparing reports needs no numpy.
    from .features import GlcmConfig, SmoothnessConfig, compute_feature_table
    from .fusion import ResampleConfig, fuse_streams

    fuse_cfg = fuse_cfg or ResampleConfig()
    fused = fuse_streams(session, fuse_cfg)
    table = compute_feature_table(session, fused, glcm_cfg or GlcmConfig())
    smoothness = smoothness or SmoothnessConfig()
    return report_from_table(session.meta.session_id, fused, table, fuse_cfg, smoothness)


def report_from_table(
    session_id: str,
    fused: Sequence[FusedSample],
    table: FeatureTable,
    fuse_cfg: ResampleConfig,
    smoothness: SmoothnessConfig,
) -> SkillReport:
    """Reduce a session's ``fuse_streams(session, fuse_cfg)`` and its feature table to a report.

    Smoothness metrics that cannot be computed (e.g. a motionless session)
    become None plus a flag instead of an error.
    """
    import numpy as np

    from .features import log_dimensionless_jerk, path_length, smooth_speed, sparc

    n = len(fused)
    duration_s = (n - 1) * fuse_cfg.delta_t_us / 1e6
    path = path_length(fused) if n >= 2 else 0.0

    flags: list[str] = []
    ldlj_val = sparc_val = None
    if n >= 2:
        speed = smooth_speed(table.speed[1:], smoothness.speed_smoothing_window)
        try:
            sparc_val = sparc(speed, 1e6 / fuse_cfg.delta_t_us, smoothness.sparc_cutoff_hz,
                              smoothness.sparc_amplitude_threshold)
        except ValueError as exc:
            flags.append(f"sparc: {exc}")
        try:
            ldlj_val = log_dimensionless_jerk(speed, fuse_cfg.delta_t_us / 1e6)
        except ValueError as exc:
            flags.append(f"ldlj: {exc}")
    else:
        flags.append("session too short for motion metrics")

    has_frame = ~np.isnan(table.homogeneity)
    mean_asm = mean_energy = mean_homogeneity = stability = None
    if has_frame.any():
        mean_asm = float(np.mean(table.asm[has_frame]))
        mean_energy = float(np.mean(table.energy[has_frame]))
        mean_homogeneity = float(np.mean(table.homogeneity[has_frame]))
        stability = float(np.std(table.homogeneity[has_frame]))
    else:
        flags.append("no frames within staleness window")

    return SkillReport(
        session_id=session_id,
        n_samples=n,
        duration_s=duration_s,
        delta_t_us=fuse_cfg.delta_t_us,
        path_length_rad=path,
        ldlj=ldlj_val,
        sparc=sparc_val,
        mean_asm=mean_asm,
        mean_energy=mean_energy,
        mean_homogeneity=mean_homogeneity,
        texture_stability=stability,
        flags=tuple(flags),
    )


def compare(a: SkillReport, b: SkillReport) -> Comparison:
    """Per-metric deltas (a - b) plus smoother/quicker designations."""
    if a.delta_t_us != b.delta_t_us:
        raise ValueError("incomparable grids")
    deltas = {}
    for metric in METRIC_ORDER:
        va, vb = getattr(a, metric), getattr(b, metric)
        deltas[metric] = None if va is None or vb is None else va - vb
    if a.sparc is None or b.sparc is None or a.sparc == b.sparc:
        smoother = "tie"
    else:
        smoother = a.session_id if a.sparc > b.sparc else b.session_id
    if a.n_samples == b.n_samples:
        quicker = "tie"
    else:
        quicker = a.session_id if a.n_samples < b.n_samples else b.session_id
    return Comparison(a=a, b=b, deltas=deltas, smoother=smoother, quicker=quicker)


def classify(report: SkillReport, thresholds: ClassifierThresholds) -> str:
    """Label a report expert_like / novice_like / indeterminate.

    expert_like needs both few samples and high SPARC; novice_like needs
    both strictly inverted; anything else (including missing SPARC) is
    indeterminate.
    """
    few_samples = report.n_samples <= thresholds.max_expert_samples
    smooth = report.sparc is not None and report.sparc >= thresholds.min_expert_sparc
    if few_samples and smooth:
        return "expert_like"
    many_samples = report.n_samples > thresholds.max_expert_samples
    jerky = report.sparc is not None and report.sparc < thresholds.min_expert_sparc
    if many_samples and jerky:
        return "novice_like"
    return "indeterminate"


def calibrate_thresholds(
    expert_reports: Iterable[SkillReport], novice_reports: Iterable[SkillReport]
) -> ClassifierThresholds:
    """Midpoints between the per-class extremes of calibration reports."""
    experts = list(expert_reports)
    novices = list(novice_reports)
    if not experts or not novices:
        raise ValueError("need calibration reports for both classes")
    if any(r.sparc is None for r in experts + novices):
        raise ValueError("calibration reports must have sparc values")
    max_e_n = max(r.n_samples for r in experts)
    min_n_n = min(r.n_samples for r in novices)
    min_e_s = min(r.sparc for r in experts)
    max_n_s = max(r.sparc for r in novices)
    return ClassifierThresholds(
        max_expert_samples=(max_e_n + min_n_n) // 2,
        min_expert_sparc=(min_e_s + max_n_s) / 2.0,
    )


def report_from_document(doc) -> SkillReport:
    """Rebuild a SkillReport from a parsed ``report.json`` document.

    ValueError unless the document and its ``config`` are objects, each
    metric is a finite number or null and the other fields have their types.
    """
    try:
        if not isinstance(doc, dict) or not isinstance(doc["config"], dict):
            raise ValueError("report document and its config must be JSON objects")
        values = {metric: doc[metric] for metric in METRIC_ORDER}
        session_id, delta_t_us = doc["session_id"], doc["config"]["delta_t_us"]
    except KeyError as exc:
        raise ValueError(f"report document missing key {exc}") from None
    for metric, value in values.items():
        # abs() <= max also rejects NaN, and compares huge ints exactly.
        if value is not None and not (
            type(value) in (int, float) and abs(value) <= sys.float_info.max
        ):
            raise ValueError(f"report {metric} must be a finite number or null, got {value!r}")
    flags = doc.get("flags", [])
    if type(session_id) is not str or type(flags) is not list or type(delta_t_us) is not int:
        raise ValueError("report session_id, flags or config.delta_t_us has the wrong type")
    return SkillReport(session_id=session_id, delta_t_us=delta_t_us, flags=tuple(flags), **values)


def report_document(
    report: SkillReport,
    fuse_cfg: ResampleConfig,
    glcm_cfg: GlcmConfig,
    smoothness: SmoothnessConfig,
) -> dict:
    """JSON-ready report with the producing configuration echoed in."""
    doc = {"session_id": report.session_id}
    for metric in METRIC_ORDER:
        doc[metric] = getattr(report, metric)
    doc["flags"] = list(report.flags)
    doc["config"] = {**_config_echo(fuse_cfg), "glcm": _config_echo(glcm_cfg),
                     **_config_echo(smoothness)}
    return doc


def write_report(path, doc: dict) -> None:
    """Write a :func:`report_document` as strict JSON; a non-finite metric raises ValueError."""
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _config_echo(cfg) -> dict:
    """A config dataclass's fields in declaration order, tuples as lists."""
    return {f.name: _as_json(getattr(cfg, f.name)) for f in fields(cfg)}


def _as_json(value):
    return [_as_json(v) for v in value] if isinstance(value, tuple) else value
