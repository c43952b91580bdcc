import re

import numpy as np
import pytest

from gyrotrack import so3
from gyrotrack.errors import NotSkewError, SingularMetricError
from gyrotrack.integrators import _snap_so3

from conftest import random_rotation, random_spd


class TestHatVee:
    def test_hat_zero(self):
        assert np.array_equal(so3.hat([0.0, 0.0, 0.0]), np.zeros((3, 3)))

    def test_hat_e1_convention(self):
        expected = np.array([[0.0, 0.0, 0.0],
                             [0.0, 0.0, -1.0],
                             [0.0, 1.0, 0.0]])
        assert np.array_equal(so3.hat([1.0, 0.0, 0.0]), expected)

    def test_hat_e3_sign_pin(self):
        # right-handed convention: +1 at row 2, column 1 (1-indexed)
        assert so3.hat([0.0, 0.0, 1.0])[1, 0] == 1.0

    def test_hat_acts_as_cross_product(self):
        v = np.array([1.0, 2.0, 3.0])
        w = np.array([4.0, 5.0, 6.0])
        assert np.array_equal(so3.hat(v) @ w, [-3.0, 6.0, -3.0])
        rng = np.random.default_rng(7)
        for _ in range(20):
            v, w = rng.normal(size=3), rng.normal(size=3)
            assert np.allclose(so3.hat(v) @ w, np.cross(v, w), atol=1e-14)

    def test_vee_roundtrip_exact(self):
        for v in ([1.0, 2.0, 3.0], [-0.8, -0.3, -0.5], [0.0, 0.0, 0.0]):
            out = so3.vee(so3.hat(v))
            assert np.array_equal(out, v)   # bit-level

    def test_vee_rejects_non_skew(self):
        m = np.eye(3) * 1e-6
        with pytest.raises(NotSkewError):
            so3.vee(m)

    def test_vee_tolerates_tiny_asymmetry(self):
        m = so3.hat([1.0, 2.0, 3.0])
        m[0, 1] += 1e-13
        so3.vee(m)   # within the 1e-12 budget

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (4, 4), (2, 3, 3)])
    def test_vee_rejects_all_but_one_3x3_matrix(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            so3.vee(np.zeros(shape))

    def test_cross3_matches_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.normal(size=3), rng.normal(size=3)
            assert np.array_equal(so3.cross3(a, b), np.cross(a, b))


class TestExpLog:
    def test_expm_zero(self):
        assert np.array_equal(so3.expm([0.0, 0.0, 0.0]), np.eye(3))

    def test_expm_quarter_turn(self):
        expected = np.array([[0.0, -1.0, 0.0],
                             [1.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0]])
        assert np.allclose(so3.expm([0.0, 0.0, np.pi / 2]), expected,
                           atol=1e-15)

    def test_expm_orthogonal_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            r = so3.expm(rng.normal(size=3) * rng.uniform(0.0, np.pi))
            assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-12

    def test_expm_inverse_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = rng.normal(size=3)
            v *= rng.uniform(0.0, np.pi) / np.linalg.norm(v)
            assert np.abs(so3.expm(v) @ so3.expm(-v) - np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("shape", [(2, 3), (1, 3), (4,), (), (3, 1)])
    def test_expm_rejects_all_but_one_3_vector(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            so3.expm(np.zeros(shape))

    def test_logm_identity(self):
        assert np.array_equal(so3.logm(np.eye(3)), np.zeros(3))

    def test_logm_roundtrip_small(self):
        v = np.array([0.1, 0.2, 0.3])
        assert np.abs(so3.logm(so3.expm(v)) - v).max() < 1e-10

    def test_logm_pi_branch(self):
        assert np.allclose(so3.logm(np.diag([1.0, -1.0, -1.0])),
                           [np.pi, 0.0, 0.0], atol=1e-12)

    def test_log_exp_identity_on_ball(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(200):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0.0, np.pi - 1e-6)
            v = angle * axis
            worst = max(worst, np.abs(so3.logm(so3.expm(v)) - v).max())
        assert worst < 2e-15   # 8.9e-16 measured

    def test_exp_log_roundtrip_near_pi(self):
        # the axis keeps its digits up to pi: 8.9e-16 measured, where an
        # axis from the skew part alone loses about 2.4e-16 / (pi - angle)
        rng = np.random.default_rng(19)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            v = (np.pi - 10 ** rng.uniform(-12, -3)) * axis
            r = so3.expm(v)
            w = so3.logm(r)
            assert np.linalg.norm(w) <= np.pi + 1e-12
            assert np.abs(w - v).max() < 2e-15
            assert np.abs(so3.expm(w) - r).max() < 2e-15

    def test_small_angle_branch(self):
        v = np.array([1e-10, -2e-10, 5e-11])
        assert np.abs(so3.logm(so3.expm(v)) - v).max() < 1e-18


def snap(m):
    """The integrator's drift repair, `_snap_so3`, on a 3x3 array."""
    return so3.from_components(_snap_so3(so3.components(m, 2)), (3, 3))


def defect(m):
    return np.linalg.norm(m.T @ m - np.eye(3))


class TestProject:
    def test_identity_fixed_point(self):
        assert np.array_equal(snap(np.eye(3)), np.eye(3))

    def test_repairs_small_perturbation(self):
        # R (1 + S) with S symmetric has polar factor R; one step lands
        # within 1e-11 of it (8.1e-12 measured, output defect 2.7e-11)
        rng = np.random.default_rng(23)
        r = random_rotation(rng)
        noise = rng.normal(size=(3, 3))
        noise = 1e-6 * (noise + noise.T)
        out = snap(r @ (np.eye(3) + noise))
        assert np.abs(out - r).max() < 1e-10
        assert defect(out) < 1e-9

    def test_output_orthogonality_budget(self):
        # with R^T R = 1 + E the step gives out^T out = 1 - 3/4 E^2 + 1/4 E^3,
        # so the Frobenius defect d becomes at most 3/4 d^2 + 1/4 d^3
        rng = np.random.default_rng(29)
        for _ in range(50):
            m = random_rotation(rng) + 1e-3 * rng.normal(size=(3, 3))
            d = defect(m)
            assert defect(snap(m)) <= 0.75 * d * d + 0.25 * d ** 3 + 1e-15

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        r = random_rotation(rng)
        assert np.abs(snap(r) - r).max() < 1e-14


class TestAdstarConnection:
    def test_connection_zero_inputs(self):
        i = random_spd(np.random.default_rng(37))
        assert np.array_equal(so3.connection_term(i, np.zeros(3), np.zeros(3)),
                              np.zeros(3))

    def test_connection_biinvariant_metric(self):
        a = np.array([0.4, -1.0, 0.2])
        assert np.allclose(so3.connection_term(np.eye(3), a, a), np.zeros(3),
                           atol=1e-15)

    def test_connection_geodesic_value(self):
        i = np.diag([1.0, 2.0, 3.0])
        a = np.array([1.0, 1.0, 1.0])
        assert np.allclose(so3.connection_term(i, a, a),
                           [1.0, -1.0, 1.0 / 3.0], atol=1e-15)

    def test_connection_geodesic_identity_random(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            i = random_spd(rng)
            a = rng.normal(size=3)
            expected = -np.linalg.solve(i, np.cross(i @ a, a))
            assert np.allclose(so3.connection_term(i, a, a), expected,
                               atol=1e-12)

    def test_connection_general_formula_random(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            i = random_spd(rng)
            a, b = rng.normal(size=3), rng.normal(size=3)
            torque = np.cross(i @ b, a) + np.cross(i @ a, b)
            expected = 0.5 * (np.cross(a, b) - np.linalg.solve(i, torque))
            assert np.allclose(so3.connection_term(i, a, b), expected,
                               atol=1e-12)

    def test_connection_singular_metric(self):
        with pytest.raises(SingularMetricError):
            so3.connection_term(np.zeros((3, 3)), np.ones(3), np.ones(3))


class TestHelpers:
    def test_rotation_angle_matches_log_norm(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            r = random_rotation(rng)
            assert abs(so3.rotation_angle(r)
                       - np.linalg.norm(so3.logm(r))) < 1e-12

    def test_geodesic_distance_symmetry(self):
        rng = np.random.default_rng(47)
        r1, r2 = random_rotation(rng), random_rotation(rng)
        assert abs(so3.geodesic_distance(r1, r2)
                   - so3.geodesic_distance(r2, r1)) < 1e-12

    def test_is_rotation(self):
        assert so3.is_rotation(np.eye(3))
        assert not so3.is_rotation(2.0 * np.eye(3))
        assert not so3.is_rotation(np.diag([1.0, 1.0, -1.0]))

    def test_non_3x3_array_is_no_rotation(self):
        for r in (np.eye(3)[0], np.eye(2), np.eye(3)[None], np.eye(3, 4)):
            assert so3.is_rotation(r) is False
