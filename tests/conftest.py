import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import scanskill

from scanskill.core import SessionMeta
from scanskill.fusion import hemisphere_align
from scanskill.ingest import Frame, PoseSample, Session

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's scanskill.

    The timeout turns a hang into a test failure.
    """
    src = str(Path(scanskill.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def random_unit_quat(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.standard_normal(4)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return v / n


@st.composite
def unit_quaternions(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_unit_quat(np.random.default_rng(seed))


def constant_frame(t_us: int, width: int = 8, height: int = 8, value: int = 100) -> Frame:
    return Frame(t_us, width, height, pixels=np.full((height, width), value, dtype=np.uint8))


def make_session(
    poses: list[PoseSample],
    frames: list[Frame],
    pose_rate_hz: float = 100.0,
    frame_rate_hz: float = 25.0,
    session_id: str = "test",
    role: str = "unknown",
) -> Session:
    meta = SessionMeta(
        session_id=session_id,
        participant_role=role,
        trial=1,
        pose_rate_hz=pose_rate_hz,
        frame_rate_hz=frame_rate_hz,
    )
    return Session(meta=meta, poses=poses, frames=frames)


def smooth_pose_walk(rng: np.random.Generator, times_us: list[int]) -> list[PoseSample]:
    """Random-walk orientation stream: small random step per sample."""
    from scanskill.core import q_from_axis_angle, q_multiply, q_normalize

    q = random_unit_quat(rng)
    poses = []
    for t in times_us:
        poses.append(PoseSample(int(t), q))
        axis = rng.standard_normal(3)
        step = q_from_axis_angle(axis, rng.uniform(0.0, 0.15))
        q = q_normalize(q_multiply(q, step))
    return hemisphere_align(poses)


def random_stream_times(
    rng: np.random.Generator, n: int, start_us: int, mean_period_us: int
) -> list[int]:
    """Strictly increasing jittered timestamps."""
    gaps = rng.integers(mean_period_us // 2, mean_period_us * 3 // 2 + 1, size=n - 1)
    return [int(t) for t in np.concatenate([[start_us], start_us + np.cumsum(gaps)])]


def random_session(rng: np.random.Generator, n_poses: int = 60, n_frames: int = 20) -> Session:
    pose_times = random_stream_times(rng, n_poses, int(rng.integers(0, 5_000)), 10_000)
    frame_times = random_stream_times(rng, n_frames, int(rng.integers(0, 5_000)), 40_000)
    poses = smooth_pose_walk(rng, pose_times)
    frames = [constant_frame(t, value=int(rng.integers(0, 256))) for t in frame_times]
    return make_session(poses, frames)


@pytest.fixture(scope="session")
def tiny_expert_session():
    """Small, fast synthetic session shared by read-only tests."""
    from scanskill.synth import build_session, expert_profile

    return build_session(expert_profile(5, frame_width=64, frame_height=48))
