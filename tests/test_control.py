import numpy as np
import pytest

from gyrotrack import control, scenario, so3
from gyrotrack.errors import SingularMetricError

from conftest import random_rotation, random_spd


def _random_weights(rng):
    return random_spd(rng, distinct=True)


class TestNavigationFunction:
    def test_zero_at_identity(self):
        rng = np.random.default_rng(3)
        assert control.nav_psi(_random_weights(rng), np.eye(3)) == 0.0

    def test_trace_identity_for_z_rotation(self):
        for theta in (0.1, 0.7, 2.0, 3.0):
            psi = control.nav_psi(np.eye(3), so3.expm([0.0, 0.0, theta]))
            assert abs(psi - 2.0 * (1.0 - np.cos(theta))) < 1e-12

    def test_half_turn_arithmetic(self):
        psi = control.nav_psi(np.diag([1.0, 2.0, 3.0]),
                              np.diag([1.0, -1.0, -1.0]))
        assert abs(psi - 10.0) < 1e-12

    def test_nonnegative_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            psi = control.nav_psi(_random_weights(rng), random_rotation(rng))
            assert psi >= 0.0

    def test_dpsi_zero_at_identity(self):
        rng = np.random.default_rng(7)
        assert np.allclose(control.nav_dpsi(_random_weights(rng), np.eye(3)),
                           np.zeros(3), atol=1e-15)

    def test_dpsi_z_rotation_value(self):
        theta = 0.8
        out = control.nav_dpsi(np.eye(3), so3.expm([0.0, 0.0, theta]))
        assert np.allclose(out, [0.0, 0.0, 2.0 * np.sin(theta)], atol=1e-14)

    def test_dpsi_matches_central_differences(self):
        # scale pin: d/dt psi(E expm(t v)) = <nav_dpsi, v>
        rng = np.random.default_rng(11)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            p = _random_weights(rng)
            e = random_rotation(rng)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            fd = (control.nav_psi(p, e @ so3.expm(h * v))
                  - control.nav_psi(p, e @ so3.expm(-h * v))) / (2.0 * h)
            worst = max(worst, abs(fd - control.nav_dpsi(p, e) @ v))
        assert worst < 1e-6


class TestErrorState:
    def test_zero_error(self):
        rng = np.random.default_rng(13)
        r = random_rotation(rng)
        omega = rng.normal(size=3)
        e, eta = control.error_state(r, omega, r, omega)
        assert np.abs(e - np.eye(3)).max() < 1e-15
        assert np.array_equal(eta, np.zeros(3))

    def test_identity_plant(self):
        rng = np.random.default_rng(17)
        r_d = random_rotation(rng)
        omega, omega_d = rng.normal(size=3), rng.normal(size=3)
        e, eta = control.error_state(np.eye(3), omega, r_d, omega_d)
        assert np.array_equal(e, r_d)
        assert np.array_equal(eta, omega_d - omega)

    def test_error_velocity_reconstructs_error_curve(self, certified_zero_run):
        _, traj, _ = certified_zero_run
        h = traj.times[1] - traj.times[0]
        for k in (10, 500, 5000):
            e_k = traj.R_d[k] @ traj.R[k].T
            e_next = traj.R_d[k + 1] @ traj.R[k + 1].T
            eta = traj.R[k] @ (traj.Omega_d[k] - traj.Omega[k])
            assert np.abs(e_next - e_k @ so3.expm(h * eta)).max() < 5e-6

    def test_compatibility_symmetry(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            p = _random_weights(rng)
            g, h = random_rotation(rng), random_rotation(rng)
            assert abs(control.nav_psi(p, h @ np.linalg.inv(g))
                       - control.nav_psi(p, g @ np.linalg.inv(h))) < 1e-10


def xi_dot(i, p, e, eta, xi):
    """The integral-state rate: `error_field`'s last three slots."""
    field = control.error_field(i, p, scenario.benchmark_gains())
    _, rates = field(0.0, so3.components(e, 2),
                     [*so3.components(eta), *so3.components(xi)])
    assert all(type(x) is float for x in rates)
    return np.array(rates[3:])


class TestIntegralTransport:
    def test_stationary_minimum(self):
        i = random_spd(np.random.default_rng(23))
        out = xi_dot(i, np.eye(3), np.eye(3), np.zeros(3), np.zeros(3))
        assert np.allclose(out, np.zeros(3), atol=1e-15)

    def test_transport_term_vanishes_at_rest(self):
        rng = np.random.default_rng(29)
        i = random_spd(rng)
        p = _random_weights(rng)
        e = random_rotation(rng)
        xi = rng.normal(size=3)
        out = xi_dot(i, p, e, np.zeros(3), xi)
        dpsi = control.nav_dpsi(p, e)
        assert np.allclose(out, np.linalg.solve(i, dpsi), atol=1e-12)

    def test_singular_metric_rejected(self):
        with pytest.raises(SingularMetricError):
            xi_dot(np.zeros((3, 3)), np.eye(3), np.eye(3), np.ones(3),
                   np.ones(3))

    def test_covariant_transport_along_trajectory(self, certified_zero_run):
        # (xi(t+h) - xi(t))/h + conn(eta, xi) == grad psi up to O(h)
        cfg, traj, _ = certified_zero_run
        i = cfg.plant.params.body_inertia
        h = traj.times[1] - traj.times[0]
        for k in (100, 2000, 10000):
            e = traj.R_d[k] @ traj.R[k].T
            eta = traj.R[k] @ (traj.Omega_d[k] - traj.Omega[k])
            rate = (traj.xi_I[k + 1] - traj.xi_I[k]) / h
            cov = rate + so3.connection_term(i, eta, traj.xi_I[k])
            grad = np.linalg.solve(i, control.nav_dpsi(np.eye(3), e))
            assert np.abs(cov - grad).max() < 5e-3 * max(1.0, np.abs(grad).max())


class TestTrackingLaws:
    def test_equilibrium_command_is_zero(self):
        rng = np.random.default_rng(31)
        i = random_spd(rng)
        gains = control.gain_derive(2.0, 3.0, 0.5, 0.6, 2.0048)
        r = random_rotation(rng)
        u = control.control_uext(i, np.eye(3), gains, r, np.zeros(3), r,
                                 np.zeros(3), np.zeros(3), np.zeros(3))
        assert np.allclose(u, np.zeros(3), atol=1e-14)

    def test_uint_zero_cases(self):
        p = scenario.benchmark_plant().params
        assert np.array_equal(
            control.control_uint(p, np.zeros(3), np.zeros(3),
                                 np.array([1.0, 2.0, 3.0])), np.zeros(3))
        # K(Omega + OmegaR) parallel to Omega
        omega = np.array([1.0, 0.0, 0.0])
        omega_r = np.array([1.5, 0.0, 0.0])
        assert np.allclose(control.control_uint(p, np.zeros(3), omega, omega_r),
                           np.zeros(3), atol=1e-15)

    def test_uint_realizes_commanded_torque(self):
        # plant acceleration under converted rotor torque equals the
        # externally commanded one
        from gyrotrack.dynamics import rotor_accels
        rng = np.random.default_rng(37)
        p = scenario.benchmark_plant().params
        i = p.body_inertia
        for _ in range(50):
            omega, omega_r = rng.normal(size=3), rng.normal(size=3)
            u_acc = rng.normal(size=3)
            u_int = control.control_uint(p, i @ u_acc, omega, omega_r)
            d_omega, _ = rotor_accels(p, omega, omega_r, u_int)
            expected = np.linalg.solve(i, np.cross(i @ omega, omega)) + u_acc
            assert np.abs(d_omega - expected).max() < 1e-10

    def test_equivalence_of_actuations(self, equivalence_runs):
        # the module's central property: identical (R, Omega) histories
        _, (ti, _), (te, _) = equivalence_runs
        assert np.abs(ti.R - te.R).max() < 1e-6
        assert np.abs(ti.Omega - te.Omega).max() < 1e-6

    def test_internal_loop_conserves_momentum(self, certified_zero_run):
        _, _, metrics = certified_zero_run
        assert metrics.momentum_drift < 1e-6

    def test_invariance_of_reference(self):
        cfg = scenario.benchmark_config(program="sinusoid", duration=5.0)
        cfg = scenario.on_reference_variant(cfg)
        _, metrics = scenario.run_closed_loop(cfg)
        assert metrics.psi_e.max() < 1e-8

    def test_tracking_convergence_certified(self, certified_zero_run):
        _, traj, metrics = certified_zero_run
        tail = traj.times >= 25.0
        assert metrics.psi_e[tail].max() < 1e-2
        assert metrics.geo_err[tail].max() < 1e-1
        # eventually monotone decrease of the geodesic error
        assert np.diff(metrics.geo_err[-5000:]).max() < 1e-8


class TestHessianDiagnostics:
    def test_hessian_at_identity(self):
        rng = np.random.default_rng(41)
        p = _random_weights(rng)
        i = random_spd(rng)
        h = control.nav_hessian(p, i, np.eye(3))
        assert np.abs(h - (np.trace(p) * np.eye(3) - p)).max() < 1e-12

    def test_hessian_at_identity_is_the_closed_form_exactly(self):
        # dpsi(1) is zero for a symmetric P, so the Hessian at E = 1 is
        # the first term's closed form tr(P) 1 - P, bit for bit; P is
        # symmetrized so that it is symmetric exactly
        rng = np.random.default_rng(47)
        for _ in range(200):
            p = _random_weights(rng)
            p = 0.5 * (p + p.T)
            h = control.nav_hessian(p, random_spd(rng), np.eye(3))
            assert np.array_equal(h, np.trace(p) * np.eye(3) - p)

    def test_hessian_is_its_definition_over_the_basis(self):
        # Hess(e_v, e_w) = vee(PE hat(e_v) - (PE hat(e_v))^T) . e_w
        # - dpsi(E) . conn(e_v, e_w), symmetrized, entry by entry; the
        # closed form sums in another order, so within rounding
        rng = np.random.default_rng(53)
        basis = np.eye(3)
        for _ in range(20):
            p, i, e = _random_weights(rng), random_spd(rng), \
                random_rotation(rng)
            dpsi = control.nav_dpsi(p, e)
            h = np.array([[so3.skew_vee(p @ e @ so3.hat(v)) @ w
                           - dpsi @ so3.connection_term(i, v, w)
                           for w in basis] for v in basis])
            assert np.abs(control.nav_hessian(p, i, e)
                          - 0.5 * (h + h.T)).max() < 1e-13

    def test_hessian_matches_second_differences(self):
        # d^2/dt^2 psi(E expm(t v)) = Hess(v, v) + dpsi . conn(v, v)
        rng = np.random.default_rng(43)
        i = random_spd(rng)
        p = _random_weights(rng)
        step = 1e-4
        for _ in range(20):
            e = random_rotation(rng)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            fd2 = (control.nav_psi(p, e @ so3.expm(step * v))
                   - 2.0 * control.nav_psi(p, e)
                   + control.nav_psi(p, e @ so3.expm(-step * v))) / step ** 2
            dpsi = control.nav_dpsi(p, e)
            expected = fd2 - dpsi @ so3.connection_term(i, v, v)
            got = v @ control.nav_hessian(p, i, e) @ v
            assert abs(got - expected) < 1e-5

    def test_sampled_bounds_stay_below_formulas(self):
        # the oracle: both bounds sampled over the sublevel set
        # {psi(E) <= 1} at seed-0 rotations of uniform axis and angle
        i = scenario.BENCHMARK_PLANT_I
        p = np.eye(3)
        rng = np.random.default_rng(0)
        axes = rng.normal(size=(300, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = rng.uniform(0.0, np.pi, size=300)
        e = np.array([so3.expm(a * ax) for a, ax in zip(angles, axes)])
        psi = control.nav_psi(p, e)
        inside = e[psi <= 1.0]
        mu_sampled = float(np.abs(control._metric_spectrum(
            i, control.nav_hessian(p, i, inside))).max(initial=0.0))
        keep = (psi <= 1.0) & (psi >= 1e-12)
        dpsi = control.nav_dpsi(p, e[keep])
        ratio = np.vecdot(dpsi, dpsi @ np.linalg.inv(i)) / (2.0 * psi[keep])
        lam_sampled = float(ratio.max(initial=0.0))
        assert 0.0 < mu_sampled < control.mu_hess_formula(i)
        assert 0.0 < lam_sampled < control.lambda_sup_formula(i)


class TestNavigationWeights:
    def test_warns_on_repeated_eigenvalues(self):
        with pytest.warns(UserWarning, match="repeated eigenvalues"):
            control.NavigationWeights(np.eye(3))

    def test_accepts_distinct_spectrum_silently(self, recwarn):
        control.NavigationWeights(np.diag([1.0, 2.0, 3.0]))
        assert not any("repeated" in str(w.message) for w in recwarn.list)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            control.NavigationWeights(np.diag([1.0, 2.0, -3.0]))
        for p in (np.diag([np.inf, 1.0, 2.0]), np.full((3, 3), np.nan)):
            with pytest.raises(ValueError, match="finite"):
                control.NavigationWeights(p)

    def test_rejects_asymmetric(self):
        p = np.diag([1.0, 2.0, 3.0])
        p[0, 1] = 1e-6
        with pytest.raises(ValueError):
            control.NavigationWeights(p)
