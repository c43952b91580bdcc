import dataclasses
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gyrotrack import control, scenario
from gyrotrack.control import (ecl_rate_bound, ecl_value, error_state,
                               gain_derive, gain_feasible, pd_variant,
                               q_matrix, synthesize_gains)
from gyrotrack.errors import KappaOutOfRangeError
from gyrotrack.integrators import step_lie
from gyrotrack.so3 import components

from conftest import random_rotation


def _random_gains(rng):
    mu = rng.uniform(1.2, 8.0)
    kappa = rng.uniform(1.0 / mu, 2.0 / mu)
    # keep strictly inside the open interval
    kappa = np.clip(kappa, 1.001 / mu, 1.999 / mu)
    return gain_derive(kp=rng.uniform(0.1, 60.0),
                       kd=rng.uniform(0.5, 6.0),
                       ki=rng.uniform(0.01, 8.0),
                       kappa=kappa, mu_hess=mu,
                       lambda_sup=rng.uniform(0.3, 3.0))

# roots of `spd`: entries of a in [-1, 1] and c in [0.2, 3]
SPD_ROOTS = st.tuples(*[st.floats(-1.0, 1.0)] * 9, st.floats(0.2, 3.0))


class TestGainDerive:
    def test_worked_example(self):
        g = gain_derive(kp=1.0, kd=3.0, ki=1.0, kappa=0.6, mu_hess=2.0048,
                        lambda_sup=1.42)
        assert abs(g.beta - 1.0 / 3.0) < 1e-15
        assert abs(g.alpha - 1.0 / 9.0) < 1e-15
        assert abs(g.delta - 1.2) < 1e-15
        assert abs(g.sigma - (2.0 - 2.0048 * 0.6)) < 1e-15
        assert abs(g.sigma - 0.79712) < 1e-12
        assert abs(g.tau - (1.0 * g.beta + g.alpha * 1.0)) < 1e-15

    def test_replace_rederives_constants(self):
        # the derived constants are views of the chosen gains, so replacing
        # a gain cannot leave a stale one behind
        g = scenario.benchmark_gains()
        assert dataclasses.replace(g, ki=0.5).beta == 0.5 / g.kd

    def test_kappa_open_interval(self):
        mu = 2.0048
        with pytest.raises(KappaOutOfRangeError):
            gain_derive(1.0, 3.0, 1.0, 1.0 / mu, mu)
        with pytest.raises(KappaOutOfRangeError):
            gain_derive(1.0, 3.0, 1.0, 2.0 / mu, mu)
        gain_derive(1.0, 3.0, 1.0, 1.5 / mu, mu)   # interior ok

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gain_derive(0.0, 3.0, 1.0, 0.6, 2.0048)
        with pytest.raises(ValueError):
            gain_derive(1.0, 3.0, 1.0, 0.6, -2.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                gain_derive(bad, 3.0, 1.0, 0.6, 2.0048)
            with pytest.raises(ValueError, match="finite"):
                gain_derive(1.0, 3.0, 1.0, 0.6, 2.0048, lambda_sup=bad)

    @pytest.mark.parametrize("mu_hess, kappa, kd, ki, message", [
        # kappa ** 2 raises OverflowError
        (1e-300, 1.5e300, 3.0, 1.0, "certificate overflows"),
        (1.5e-200, 1e200, 3.0, 1.0, "certificate overflows"),
        # the positivity floor becomes inf
        (2.0048, 0.6, 1e50, 1.0, "certificate overflows"),
        # ki ** 3 and kd ** 4 underflow to 0 and are divided by
        (2.0048, 0.6, 3.0, 1e-110, "certificate underflows"),
        (2.0048, 0.6, 1e-90, 1.0, "certificate underflows")],
        ids=["kappa 1.5e300", "kappa 1e200", "kd 1e50", "ki 1e-110",
             "kd 1e-90"])
    def test_rejects_certificate_overflow(self, mu_hess, kappa, kd, ki,
                                          message, recwarn):
        assert 1.0 / mu_hess < kappa < 2.0 / mu_hess
        with pytest.raises(ValueError, match=message):
            gain_derive(1.0, kd, ki, kappa, mu_hess)
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_benchmark_inputs_accepted(self):
        g = scenario.benchmark_gains()
        assert g.mu_hess == control.BENCHMARK_MU_HESS == 2.0048
        assert g.lambda_sup == control.BENCHMARK_LAMBDA_SUP == 1.42


class TestQMatrix:
    def test_structural_zeros(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = q_matrix(_random_gains(rng))
            assert q[0, 1] == q[1, 0] == 0.0
            assert q[1, 2] == q[2, 1] == 0.0
            assert q[0, 2] == q[2, 0]

    def test_entry_formulas(self):
        g = gain_derive(5.0, 2.0, 0.7, 0.5, 2.5, 1.0)
        q = q_matrix(g)
        assert abs(q[0, 0] - (2.0 - 2.5 * 0.7 / 4.0)) < 1e-14
        assert abs(q[1, 1] - (0.7 / 4.0) * (5.0 - 2.0 * 0.5 * 4.0)) < 1e-14
        assert abs(q[2, 2] - 0.49 / 2.0) < 1e-14
        assert abs(q[0, 2] + g.sigma * 0.7) < 1e-14

    def test_minor_test_agrees_with_eigenvalue_oracle(self):
        rng = np.random.default_rng(5)
        disagreements = 0
        for _ in range(1000):
            q = q_matrix(_random_gains(rng))
            minors_pd = (q[0, 0] > 0.0
                         and np.linalg.det(q[:2, :2]) > 0.0
                         and np.linalg.det(q) > 0.0)
            eig_pd = bool(np.linalg.eigvalsh(q).min() > 0.0)
            disagreements += minors_pd != eig_pd
        assert disagreements == 0

    def test_pd_region_matches_printed_inequalities(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            g = _random_gains(rng)
            q = q_matrix(g)
            eig_pd = bool(np.linalg.eigvalsh(q).min() > 0.0)
            ineq = (g.kp > 2.0 * g.kappa * g.kd ** 2
                    and 0.0 < g.ki < (g.kd ** 3 / g.mu_hess)
                    * (1.0 - g.sigma ** 2))
            assert eig_pd == ineq

    def test_boundary_ki_gives_zero_eigenvalue(self):
        mu, kappa, kd = 2.0048, 0.6, 3.0
        sigma = 2.0 - mu * kappa
        ki = (kd ** 3 / mu) * (1.0 - sigma ** 2)
        g = gain_derive(kp=2.5 * kappa * kd ** 2, kd=kd, ki=ki, kappa=kappa,
                        mu_hess=mu)
        assert abs(np.linalg.eigvalsh(q_matrix(g)).min()) < 1e-8


class TestFeasibility:
    def test_benchmark_gains_infeasible(self):
        v = gain_feasible(scenario.benchmark_gains())
        assert not v.feasible
        assert abs(v.kp_floor - 10.8) < 1e-12          # 2 * 0.6 * 9
        assert abs(v.kp_floor_any_kappa - 18.0 / 2.0048) < 1e-12
        # below the floor for every admissible kappa, not just kappa = 0.6
        assert 1.0 < v.kp_floor_any_kappa

    def test_small_integral_gain_feasible(self):
        mu, lam = 2.0048, 1.42
        g = gain_derive(kp=100.0, kd=1.0, ki=0.01, kappa=1.5 / mu,
                        mu_hess=mu, lambda_sup=lam)
        assert gain_feasible(g).feasible

    def test_ki_above_bound_infeasible(self):
        mu, kappa, kd = 2.5, 0.5, 2.0
        sigma = 2.0 - mu * kappa
        ki_bound = (kd ** 3 / mu) * (1.0 - sigma ** 2)
        g = gain_derive(kp=1000.0, kd=kd, ki=1.01 * ki_bound, kappa=kappa,
                        mu_hess=mu)
        assert not gain_feasible(g).feasible

    def test_checks_report_both_sides(self):
        v = gain_feasible(scenario.benchmark_gains())
        lhs, rhs, ok = v.checks["kp_gt_2_kappa_kd2"]
        assert lhs == 1.0 and abs(rhs - 10.8) < 1e-12 and not ok

    def test_synthesize_feasible_by_construction(self):
        rng = np.random.default_rng(11)
        from conftest import random_spd
        for kd in (1.0, 3.0):
            for _ in range(5):
                g = synthesize_gains(random_spd(rng, low=1.0, high=9.0), kd=kd)
                assert gain_feasible(g).feasible

    def test_synthesize_places_ki_at_fifth_of_bound(self):
        from conftest import random_spd
        rng = np.random.default_rng(19)
        inertias = [scenario.BENCHMARK_PLANT_I] + [
            random_spd(rng, low=1.0, high=9.0) for _ in range(5)]
        for i in inertias:
            g = synthesize_gains(i)
            assert g.ki == 0.2 * g.ki_bound
            assert g.kp == 1.1 * gain_feasible(g).kp_floor

    @settings(max_examples=200, deadline=None)
    @given(kd=st.floats(0.1, 10.0), mu=st.floats(1.01, 20.0),
           kappa_at=st.floats(0.01, 0.99), lam=st.floats(0.1, 10.0),
           ki_at=st.floats(1e-3, 1.0, exclude_max=True),
           kp_over=st.floats(1.0, 10.0, exclude_min=True))
    def test_certificate_implies_local_stability(self, kd, mu, kappa_at, lam,
                                                 ki_at, kp_over):
        # a certified set passes the Routh-Hurwitz test of the error flow
        # linearized at E = I: k_p k_d > 2 kappa k_d^3 > k_I.  k_I is drawn
        # below its bound and k_p above its floor, so most draws certify
        kappa = (1.0 + kappa_at) / mu
        sigma = 2.0 - mu * kappa
        ki = ki_at * (kd ** 3 / mu) * (1.0 - sigma ** 2)
        floor = gain_feasible(gain_derive(1.0, kd, ki, kappa, mu,
                                          lam)).kp_floor
        g = gain_derive(kp_over * floor, kd, ki, kappa, mu, lam)
        if gain_feasible(g).feasible:
            assert g.ki < g.kp * g.kd

    @pytest.mark.parametrize("which", [
        "benchmark", "certified", "pd_variant", "ki_at_bound"])
    def test_views_are_the_values_once_stored(self, which):
        # the verdict holds its gains and checks; feasible, kp_floor,
        # ki_bound and kp_floor_any_kappa are views, bit for bit the
        # values the verdict once stored: computed here as its
        # constructor did, and for the sets of the benchmark inputs also
        # as recorded then (pd_variant's positivity floor is 0, and k_I
        # at its bound fails the strict k_I check)
        bench = scenario.benchmark_gains()
        g = {"benchmark": bench,
             "certified": scenario.certified_gains(),
             "pd_variant": pd_variant(bench),
             "ki_at_bound": gain_derive(bench.kp, bench.kd, bench.ki_bound,
                                        bench.kappa, bench.mu_hess,
                                        bench.lambda_sup)}[which]
        v = gain_feasible(g)
        assert [f.name for f in dataclasses.fields(v)] == ["gains", "checks"]
        assert v.gains is g
        floors = [v.checks[name][1] for name in ("kp_gt_2_kappa_kd2",
                                                 "kp_gt_positivity_floor")]
        stored = {
            "feasible": all(ok for _, _, ok in v.checks.values()),
            "kp_floor": float(max(*floors)),
            "ki_bound": float(g.ki_bound),
            "kp_floor_any_kappa": float(2.0 * g.kd ** 2 / g.mu_hess)}
        if which != "certified":
            assert stored == {
                "feasible": False,
                "kp_floor": float.fromhex("0x1.5999999999999p+3"),
                "ki_bound": float.fromhex("0x1.3a428a3c9e430p+2"),
                "kp_floor_any_kappa": float.fromhex("0x1.1f4f79f90db05p+3")}
        for name, value in stored.items():
            assert type(getattr(v, name)) is type(value)
            assert getattr(v, name) == value
            with pytest.raises(AttributeError):
                setattr(v, name, value)
        assert v.feasible is (which == "certified")
        assert floors[1] == 0.0 if which == "pd_variant" else floors[1] > 0.0

    def test_pd_variant_drops_integral_channel(self):
        g = pd_variant(scenario.benchmark_gains())
        assert g.ki == 0.0 and g.alpha == 0.0 and g.tau == 0.0
        assert not gain_feasible(g).feasible


class TestCertificationInputs:
    def test_lambda_formula_matches_benchmark_value(self):
        lam = control.lambda_sup_formula(scenario.BENCHMARK_PLANT_I)
        assert abs(lam - 1.42) < 2e-3

    def test_mu_formula_exceeds_benchmark_value(self):
        # the eigenvalue expression is >= 4 for any SPD input, so it cannot
        # reproduce the stored 2.0048; both are reported side by side
        from conftest import random_spd
        rng = np.random.default_rng(13)
        for _ in range(20):
            assert control.mu_hess_formula(random_spd(rng)) >= 4.0
        mu = control.mu_hess_formula(scenario.BENCHMARK_PLANT_I)
        assert abs(mu - 6.8494) < 1e-3
        assert mu != control.BENCHMARK_MU_HESS


class TestEnergyFunction:
    def _setup(self):
        i = scenario.BENCHMARK_PLANT_I
        gains = synthesize_gains(i)
        return i, np.eye(3), gains

    def test_zero_at_minimum(self):
        i, p, g = self._setup()
        err = np.eye(3), np.zeros(3), np.zeros(3)
        assert ecl_value(i, p, g, *err) == 0.0
        assert ecl_rate_bound(i, p, g, *err) == 0.0

    def test_quadratic_scaling_at_identity(self):
        i, p, g = self._setup()
        rng = np.random.default_rng(17)
        eta, xi = rng.normal(size=3), rng.normal(size=3)
        e1 = ecl_value(i, p, g, np.eye(3), eta, xi)
        e2 = ecl_value(i, p, g, np.eye(3), 2 * eta, 2 * xi)
        assert abs(e2 - 4.0 * e1) < 1e-10 * max(1.0, abs(e1))

    def test_rate_bound_unit_error_velocity(self):
        # eta scaled to unit metric norm, no gradient/integral terms
        i, p, g = self._setup()
        eta = np.array([1.0, 0.0, 0.0])
        eta /= np.sqrt(eta @ i @ eta)
        assert abs(ecl_rate_bound(i, p, g, np.eye(3), eta, np.zeros(3))
                   + q_matrix(g)[0, 0]) < 1e-12

    def test_positive_along_certified_run(self, certified_zero_run):
        cfg, traj, metrics = certified_zero_run
        away = metrics.geo_err > 1e-6
        assert (metrics.ecl[away] > 0.0).all()

    def test_monotone_decrease_along_certified_run(self, certified_zero_run):
        _, _, metrics = certified_zero_run
        assert np.diff(metrics.ecl).max() <= 1e-6

    def test_rate_bound_holds_in_certified_region(self, certified_zero_run):
        cfg, traj, metrics = certified_zero_run
        h = cfg.integrator.step
        rate = np.diff(metrics.ecl) / h
        mask = scenario.certified_region_mask(cfg, traj)
        both = mask[:-1] & mask[1:]
        assert both.any()
        bound = ecl_rate_bound(
            cfg.plant.params.body_inertia, cfg.weights.P, cfg.gains,
            *error_state(traj.R, traj.Omega, traj.R_d, traj.Omega_d),
            traj.xi_I)
        assert (rate[both] <= bound[:-1][both] + 1e-4).all()

    def test_ecl_value_consistent_with_run_series(self, certified_zero_run):
        cfg, traj, metrics = certified_zero_run
        i = cfg.plant.params.body_inertia
        for k in (0, 777, 20000):
            e = traj.R_d[k] @ traj.R[k].T
            eta = traj.R[k] @ (traj.Omega_d[k] - traj.Omega[k])
            err = e, eta, traj.xi_I[k]
            assert abs(ecl_value(i, cfg.weights.P, cfg.gains, *err)
                       - metrics.ecl[k]) < 1e-10

    @settings(max_examples=300, deadline=None)
    @given(axis_angle=st.tuples(*[st.floats(-1.0, 1.0)] * 3,
                                st.floats(0.0, 3.14)),
           eta=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
           xi=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
           i_root=SPD_ROOTS, p_root=SPD_ROOTS,
           gains=st.tuples(st.floats(0.1, 60.0), st.floats(0.5, 6.0),
                           st.floats(0.01, 8.0), st.floats(1.2, 8.0),
                           st.floats(1.01, 1.99)))
    def test_ecl_value_is_the_papers_energy(self, axis_angle, eta, xi,
                                            i_root, p_root, gains):
        # V = 1/2 <eta, eta> + k_p psi + tau/2 <xi, xi> + alpha <grad, eta>
        #     + beta <xi, eta> + delta <grad, xi>, <a, b> = a^T I b, written
        # out here: psi(E) = tr(P (1 - E)), grad = I^{-1} dpsi with dpsi
        # the central differences of psi along E expm(h e_k), expm by
        # Rodrigues, and the weights from the gains as the paper derives
        # them
        def rodrigues(axis, angle):
            x, y, z = axis
            k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
            return np.eye(3) + np.sin(angle) * k \
                + (1.0 - np.cos(angle)) * (k @ k)

        *axis, angle = axis_angle
        assume(np.linalg.norm(axis) > 1e-3)
        e = rodrigues(np.asarray(axis) / np.linalg.norm(axis), angle)
        eta, xi = np.array(eta), np.array(xi)
        i, p = spd(i_root), spd(p_root)
        kp, kd, ki, mu_hess, kappa_scale = gains
        kappa = kappa_scale / mu_hess
        g = gain_derive(kp, kd, ki, kappa, mu_hess)

        def psi(rot):
            return np.trace(p @ (np.eye(3) - rot))

        h = 1e-4
        dpsi = np.array([(psi(e @ rodrigues(unit, h))
                          - psi(e @ rodrigues(unit, -h))) / (2.0 * h)
                         for unit in np.eye(3)])
        grad = np.linalg.solve(i, dpsi)

        def inner(a, b):
            return a @ i @ b

        beta = ki / kd
        alpha = beta / kd
        tau = kp * beta + alpha * ki
        delta = 2.0 * kappa * ki
        terms = (0.5 * inner(eta, eta), kp * psi(e), 0.5 * tau * inner(xi, xi),
                 alpha * inner(grad, eta), beta * inner(xi, eta),
                 delta * inner(grad, xi))
        # the differences' truncation is below 2e-9 of |dpsi|
        assert abs(ecl_value(i, p, g, e, eta, xi) - sum(terms)) \
            <= 1e-8 * (1.0 + sum(map(abs, terms)))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           roots=st.none() | st.tuples(SPD_ROOTS, SPD_ROOTS))
    def test_rate_bound_holds_pointwise(self, seed, roots):
        # at a random error state of the certified region, the energy's
        # rate along `error_field` stays below `ecl_rate_bound`: the
        # tightest of 919 such states of seed 3 sits 2.4e-4 |bound| below
        # it, and the central difference at 1e-4 is within 7e-6 |bound|
        # of the rate.  The plant and weights are the benchmark's, or
        # (``roots``) SPD I and P drawn as a a^T + c 1, with the gains
        # `synthesize_gains` certifies for that I
        cfg = scenario.benchmark_config(gains=scenario.certified_gains())
        if roots is not None:
            i, p = map(spd, roots)
            params = scenario.InertiaParams(i, scenario.BENCHMARK_PLANT_K)
            cfg = dataclasses.replace(
                cfg, plant=dataclasses.replace(cfg.plant, params=params),
                weights=control.NavigationWeights(p),
                gains=synthesize_gains(i))
        i, p, g = cfg.plant.params.body_inertia, cfg.weights.P, cfg.gains
        e, eta, xi = error_sample(np.random.default_rng(seed))
        # E = R_d R^T and eta = R (Omega_d - Omega) at R = 1, Omega = 0
        sample = types.SimpleNamespace(
            R=np.eye(3)[None], Omega=np.zeros((1, 3)), R_d=e[None],
            Omega_d=eta[None], xi_I=xi[None])
        assume(scenario.certified_region_mask(cfg, sample)[0])
        field = control.error_field(i, p, g)
        state = components(e, 2), [*eta, *xi]
        h, values = 1e-4, []
        for dt in (h, -h):
            e_t, v_t = step_lie(field, 0.0, state, dt)
            values.append(ecl_value(i, p, g, np.reshape(e_t, (3, 3)),
                                    v_t[:3], v_t[3:]))
        rate = (values[0] - values[1]) / (2.0 * h)
        bound = ecl_rate_bound(i, p, g, e, eta, xi)
        assert rate <= bound + 2e-5 * abs(bound)
        # positive away from (1, 0, 0), the gains being feasible
        assert gain_feasible(g).feasible
        assert ecl_value(i, p, g, e, eta, xi) > 0.0


def spd(root):
    """The SPD matrix a a^T + c 1 of a root (a's 9 entries, c)."""
    a = np.reshape(root[:9], (3, 3))
    return a @ a.T + root[9] * np.eye(3)


def error_sample(rng):
    """An error state (E, eta, xi_I) drawn as the ROADMAP Baseline draws
    them: E of uniform angle in [0, pi) about a uniform axis, eta and xi_I
    standard Gaussian, each scaled by one U(0, 1)."""
    e = random_rotation(rng, np.pi)
    return e, rng.normal(size=3) * rng.uniform(), \
        rng.normal(size=3) * rng.uniform()
