"""scanskill: fuse ultrasound-frame and IMU-quaternion streams onto a uniform
time grid, extract texture and pose features, and score scanning-skill
sessions — with a calibrated synthetic generator for desk-scale experiments.

The names below are loaded from their submodules on first use (PEP 562), so
``import scanskill`` alone loads neither numpy nor any pipeline module and a
command such as ``scanskill compare`` imports only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the names the package re-exports from it.
_SUBMODULE_EXPORTS = {
    "core": ("SessionMeta", "q_geodesic_angle", "q_inverse", "q_multiply", "q_normalize"),
    "features": (
        "FeatureTable", "GlcmConfig", "HistogramStats", "MotionSeries", "SmoothnessConfig",
        "TextureFeatures", "angular_velocity", "compute_feature_table", "frame_features",
        "glcm", "log_dimensionless_jerk", "path_length", "sparc", "texture_features",
    ),
    "fusion": (
        "FusedSample", "ResampleConfig", "StreamingFuser", "fuse_streams", "hemisphere_align",
        "slerp",
    ),
    "ingest": (
        "Frame", "PoseSample", "Session", "load_session", "read_pose_csv", "validate_session",
        "write_session",
    ),
    "skill": (
        "ClassifierThresholds", "SkillReport", "build_report", "calibrate_thresholds",
        "classify", "compare",
    ),
    "synth": ("ProfileConfig", "build_session", "expert_profile", "gen_session", "novice_profile"),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
