import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanskill.core import (
    SessionMeta,
    q_from_axis_angle,
    q_geodesic_angle,
    q_inverse,
    q_multiply,
    q_normalize,
)

from conftest import IDENTITY, unit_quaternions


class TestNormalize:
    def test_pure_scaling(self):
        np.testing.assert_allclose(q_normalize(np.array([2.0, 0, 0, 0])), IDENTITY)

    def test_axis_aligned(self):
        np.testing.assert_allclose(q_normalize(np.array([0.0, 3, 0, 0])), [0, 1, 0, 0])

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="degenerate quaternion"):
            q_normalize(np.zeros(4))

    def test_batch_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="degenerate quaternion"):
            q_normalize(np.array([[1.0, 0, 0, 0], [0.0, 0, 0, 0]]))

    @given(unit_quaternions())
    def test_idempotent(self, q):
        once = q_normalize(q * 3.7)
        twice = q_normalize(once)
        assert np.max(np.abs(twice - once)) <= 1e-12

    @given(unit_quaternions())
    def test_unit_output(self, q):
        out = q_normalize(q * 0.01)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9

    @given(st.lists(st.tuples(unit_quaternions(), st.sampled_from(
        ["unit", "near", "large", "small"]), st.integers(-8, 8)), min_size=1, max_size=12))
    def test_each_row_normalises_as_a_single_quaternion(self, rows):
        # Unit rows, rows whose squared norm is within 16 eps of 1 (either side
        # of the tolerance), and rows scaled by 1e3 or 1e-3.
        eps = np.finfo(np.float64).eps
        scale = {"unit": lambda k: 1.0, "near": lambda k: 1.0 + k * eps,
                 "large": lambda k: 1e3, "small": lambda k: 1e-3}
        q = np.array([row * scale[kind](k) for row, kind, k in rows])
        out = q_normalize(q)
        for batch_row, row in zip(out, q):
            assert batch_row.tobytes() == q_normalize(row).tobytes()


class TestMultiply:
    @given(unit_quaternions())
    def test_identity_element(self, q):
        np.testing.assert_allclose(q_multiply(IDENTITY, q), q, atol=1e-15)
        np.testing.assert_allclose(q_multiply(q, IDENTITY), q, atol=1e-15)

    def test_two_quarter_turns_about_z(self):
        # 90 deg + 90 deg about z is the half turn (0, 0, 0, 1).
        q45 = np.array([math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)])
        np.testing.assert_allclose(q_multiply(q45, q45), [0, 0, 0, 1], atol=1e-15)

    @given(unit_quaternions())
    def test_inverse_law(self, q):
        np.testing.assert_allclose(q_multiply(q, q_inverse(q)), IDENTITY, atol=1e-9)

    @given(unit_quaternions(), unit_quaternions(), unit_quaternions())
    def test_associative(self, a, b, c):
        left = q_multiply(q_multiply(a, b), c)
        right = q_multiply(a, q_multiply(b, c))
        assert np.max(np.abs(left - right)) <= 1e-9

    def test_batched(self):
        a = np.stack([IDENTITY, q_from_axis_angle([0, 0, 1], 0.5)])
        out = q_multiply(a, a)
        assert out.shape == (2, 4)
        np.testing.assert_allclose(out[0], IDENTITY)


class TestInverse:
    def test_identity_self_inverse(self):
        np.testing.assert_allclose(q_inverse(IDENTITY), IDENTITY)

    def test_conjugation(self):
        np.testing.assert_allclose(q_inverse(np.array([0.0, 1, 0, 0])), [0, -1, 0, 0])
        q = np.array([math.cos(math.pi / 6), 0, math.sin(math.pi / 6), 0])
        np.testing.assert_allclose(q_inverse(q), [q[0], 0, -q[2], 0])


class TestGeodesicAngle:
    @given(unit_quaternions())
    def test_coincident(self, q):
        assert q_geodesic_angle(q, q) <= 1e-12

    @given(unit_quaternions())
    def test_hemisphere_equivalence(self, q):
        assert q_geodesic_angle(q, -q) <= 1e-12

    def test_quarter_turn(self):
        target = q_from_axis_angle([0, 0, 1], math.pi / 2)
        assert abs(q_geodesic_angle(IDENTITY, target) - math.pi / 2) <= 1e-12

    @given(unit_quaternions(), unit_quaternions(), unit_quaternions())
    @settings(max_examples=50)
    def test_symmetric_and_left_invariant(self, a, b, g):
        angle = q_geodesic_angle(a, b)
        assert abs(angle - q_geodesic_angle(b, a)) <= 1e-9
        ga, gb = q_normalize(q_multiply(g, a)), q_normalize(q_multiply(g, b))
        assert abs(angle - q_geodesic_angle(ga, gb)) <= 1e-9

    @given(unit_quaternions(), unit_quaternions())
    def test_range(self, a, b):
        angle = q_geodesic_angle(a, b)
        assert 0.0 <= angle <= math.pi + 1e-12


class TestSessionMeta:
    def test_valid(self):
        meta = SessionMeta("s1", "expert", 1, 100.0, 25.0)
        assert meta.trial == 1

    def test_unknown_role(self):
        with pytest.raises(ValueError, match="unknown role"):
            SessionMeta("s1", "sonographer", 1, 100.0, 25.0)

    @pytest.mark.parametrize("pose_rate,frame_rate", [(0.0, 25.0), (100.0, -1.0)])
    def test_rates_positive(self, pose_rate, frame_rate):
        with pytest.raises(ValueError, match="rates must be positive"):
            SessionMeta("s1", "expert", 1, pose_rate, frame_rate)

    def test_trial_at_least_one(self):
        with pytest.raises(ValueError, match="trial"):
            SessionMeta("s1", "expert", 0, 100.0, 25.0)

    def test_trial_within_int64(self):
        assert SessionMeta("s1", "expert", 2**63 - 1, 100.0, 25.0).trial == 2**63 - 1
        with pytest.raises(ValueError, match=f"^trial must be <= {2**63 - 1}$"):
            SessionMeta("s1", "expert", 2**63, 100.0, 25.0)

    @pytest.mark.parametrize("fields", [
        (7, "expert", 1, 100.0, 25.0),
        ("s1", "expert", 1.0, 100.0, 25.0),
        ("s1", "expert", True, 100.0, 25.0),
        ("s1", "expert", 1, None, 25.0),
        ("s1", "expert", 1, 100.0, float("inf")),
    ])
    def test_mistyped_rejected(self, fields):
        with pytest.raises(ValueError, match="must be"):
            SessionMeta(*fields)

    def test_rates_stored_as_float(self):
        meta = SessionMeta("s1", "expert", 1, 100, 25)
        assert type(meta.pose_rate_hz) is float and type(meta.frame_rate_hz) is float


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 2 * math.pi))
@settings(max_examples=50)
def test_axis_angle_round_trip(seed, angle):
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    if np.linalg.norm(axis) < 1e-6:
        axis = np.array([1.0, 0, 0])
    q = q_from_axis_angle(axis, angle)
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-12
    wrapped = min(angle, 2 * math.pi - angle)
    assert abs(q_geodesic_angle(IDENTITY, q) - wrapped) <= 1e-9
