"""scanskill: fuse ultrasound-frame and IMU-quaternion streams onto a uniform
time grid, extract texture and pose features, and score scanning-skill
sessions — with a calibrated synthetic generator for desk-scale experiments.

Import each name from the module that defines it, e.g.
``from scanskill.skill import build_report``; each module's ``__all__``
lists its public names. ``import scanskill`` alone loads no submodule.
"""

__version__ = "0.1.0"
