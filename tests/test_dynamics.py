import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gyrotrack import dynamics, scenario, so3
from gyrotrack.config import load_config
from gyrotrack.integrators import IntegratorConfig, integrate_components

from conftest import random_spd

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def benchmark_params():
    return dynamics.InertiaParams(scenario.BENCHMARK_PLANT_I,
                                  scenario.BENCHMARK_PLANT_K)


def _matvec(m, v):
    # plain-Python oracle, independent of numpy matmul
    return [sum(m[i][j] * v[j] for j in range(3)) for i in range(3)]


def lagrangian(params, omega, omega_r):
    # plain-Python oracle of the Lagrangian (no potential):
    # 1/2 Omega.I Omega + 1/2 sum_i k_i (Omega_i + OmegaR_i)^2
    body = sum(w * x for w, x in
               zip(omega, _matvec(params.body_inertia, omega)))
    rotors = sum(k * (w + wr) ** 2 for k, w, wr in
                 zip(params.rotor_inertia, omega, omega_r))
    return 0.5 * body + 0.5 * rotors


def external_accel(i, omega, u_ext):
    """dOmega of the externally actuated body, through the production kernel."""
    i_metric, i_inv = so3.metric_inverse(i)
    return so3.from_components(dynamics._external_accel(
        i_metric, i_inv, so3.components(omega), so3.components(u_ext)))


def free_body_accel(i, omega):
    """dOmega of `free_body_field` at ``omega``, as an array."""
    _, d_omega = dynamics.free_body_field(i)(
        0.0, so3.components(np.eye(3), 2), so3.components(omega))
    return so3.from_components(d_omega)


class TestInertiaParams:
    def test_rotor_inertia_kept_as_given(self):
        p = dynamics.InertiaParams(np.eye(3), [5, 6, 7])
        assert p.rotor_inertia.shape == (3,)
        assert p.rotor_inertia.tolist() == [5.0, 6.0, 7.0]
        assert np.array_equal(p.locked, np.eye(3) + np.diag([5.0, 6.0, 7.0]))

    def test_rejects_asymmetric(self):
        i = np.eye(3)
        i[0, 1] = 1e-6
        with pytest.raises(ValueError):
            dynamics.InertiaParams(i, (1.0, 1.0, 1.0))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            dynamics.InertiaParams(np.diag([1.0, 1.0, -1.0]), (1, 1, 1))
        for i in (np.diag([np.inf, 1.0, 1.0]), np.full((3, 3), np.nan)):
            with pytest.raises(ValueError, match="finite"):
                dynamics.InertiaParams(i, (1, 1, 1))

    def test_rejects_near_singular_body(self):
        # the limit is on the ratio of the principal moments, at any scale
        limit = dynamics.BODY_CONDITION_LIMIT
        for scale in (1e-200, 1.0, 1e200):
            dynamics.InertiaParams(scale * np.diag([limit, 2.0, 1.0]),
                                   (1, 1, 1))
            with pytest.raises(ValueError,
                               match="^body inertia condition number"):
                dynamics.InertiaParams(
                    scale * np.diag([2.0 * limit, 2.0, 1.0]), (1, 1, 1))

    def test_triangle_inequality_of_moments_not_required(self):
        # the bundled plant's principal moments break it, and the bundled
        # configs parse with that plant
        l0, l1, l2 = np.linalg.eigvalsh(scenario.BENCHMARK_PLANT_I)
        assert l0 + l1 < l2
        dynamics.InertiaParams(scenario.BENCHMARK_PLANT_I, (5, 6, 7))
        for program in scenario.PROGRAM_KINDS:
            cfg = load_config(CONFIGS / f"benchmark_{program}.cfg")
            assert np.array_equal(cfg.plant.params.body_inertia,
                                  scenario.BENCHMARK_PLANT_I)

    def test_rejects_nondiagonal_rotors(self):
        # K is the three rotor inertias; a matrix, diagonal or not, is
        # rejected
        k = np.eye(3)
        k[0, 1] = 0.1
        for k in (k, np.diag([1.0, 2.0, 3.0])):
            with pytest.raises(ValueError, match="rotor inertias must be three"):
                dynamics.InertiaParams(np.eye(3), k)

    def test_rejects_nonpositive_rotor(self):
        with pytest.raises(ValueError):
            dynamics.InertiaParams(np.eye(3), (1.0, 0.0, 1.0))
        for k in ((1.0, np.nan, 1.0), (1.0, np.inf, 1.0),
                  np.diag([1.0, 1.0, np.inf])):
            with pytest.raises(ValueError, match="finite"):
                dynamics.InertiaParams(np.eye(3), k)


class TestMomentum:
    def test_zero_velocities(self):
        p = benchmark_params()
        assert np.array_equal(dynamics.momentum_body(p, np.zeros(3),
                                                     np.zeros(3)), np.zeros(3))

    def test_benchmark_initial_momentum_arithmetic(self):
        p = benchmark_params()
        omega0 = np.linalg.solve(scenario.BENCHMARK_PLANT_I,
                                 scenario.BENCHMARK_PLANT_IOMEGA0)
        omega_r0 = scenario.BENCHMARK_PLANT_OMEGAR0
        expected = np.array(_matvec((scenario.BENCHMARK_PLANT_I
                                     + np.diag([5.0, 6.0, 7.0])).tolist(),
                                    omega0.tolist())) \
            + np.array([5.0, 6.0, 7.0]) * omega_r0
        out = dynamics.momentum_body(p, omega0, omega_r0)
        assert np.abs(out - expected).max() < 1e-12

    def test_vanishing_rotor_inertia_limit(self):
        i = random_spd(np.random.default_rng(5))
        p = dynamics.InertiaParams(i, (1e-9, 1e-9, 1e-9))
        omega = np.array([0.3, -0.1, 0.7])
        out = dynamics.momentum_body(p, omega, np.array([1.0, 2.0, 3.0]))
        assert np.abs(out - i @ omega).max() < 1e-7

    def test_spatial_identity_frame(self):
        pi = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(dynamics.momentum_spatial(np.eye(3), pi), pi)

    def test_spatial_half_turn(self):
        r = so3.expm([0.0, 0.0, np.pi])
        out = dynamics.momentum_spatial(r, [1.0, 0.0, 0.0])
        assert np.allclose(out, [-1.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_spatial_stack_is_per_sample(self, n):
        # an (n, 3, 3) stack with (n, 3) momenta pairs sample k with k
        rng = np.random.default_rng(n)
        r = np.array([so3.expm(v) for v in rng.normal(size=(n, 3))])
        pi = rng.normal(size=(n, 3))
        out = dynamics.momentum_spatial(r, pi)
        assert out.shape == (n, 3)
        assert np.abs(out - np.einsum("nij,nj->ni", r, pi)).max() <= 1e-12

    def test_momentum_class_consistency(self):
        p = benchmark_params()
        r = np.eye(3)
        body = dynamics.momentum_body(p, np.array([0.1, 0.2, 0.3]),
                                      np.array([1.0, -1.0, 0.5]))
        spatial = dynamics.momentum_spatial(r, body)
        assert np.array_equal(spatial, r @ body)


class TestConnectionAndLockedInertia:
    def test_connection_zero_rotor_rate(self):
        p = benchmark_params()
        omega = np.array([0.4, 0.1, -0.2])
        assert np.allclose(dynamics.mechanical_connection(p, omega, np.zeros(3)),
                           omega, atol=1e-15)

    def test_connection_equals_locked_inverse_momentum(self):
        rng = np.random.default_rng(9)
        p = benchmark_params()
        for _ in range(100):
            omega, omega_r = rng.normal(size=3), rng.normal(size=3)
            lhs = dynamics.mechanical_connection(p, omega, omega_r)
            rhs = np.linalg.solve(p.locked,
                                  dynamics.momentum_body(p, omega, omega_r))
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_connection_benchmark_value(self):
        p = benchmark_params()
        omega0 = np.linalg.solve(scenario.BENCHMARK_PLANT_I,
                                 scenario.BENCHMARK_PLANT_IOMEGA0)
        expected = np.linalg.solve(p.locked,
                                   np.diag([5.0, 6.0, 7.0])
                                   @ scenario.BENCHMARK_PLANT_OMEGAR0) + omega0
        out = dynamics.mechanical_connection(p, omega0,
                                             scenario.BENCHMARK_PLANT_OMEGAR0)
        assert np.abs(out - expected).max() < 1e-14

    def test_locked_body_frame(self):
        p = benchmark_params()
        assert np.array_equal(p.locked,
                              p.body_inertia + np.diag(p.rotor_inertia))


class TestRotorPlant:
    def test_equilibrium(self):
        p = benchmark_params()
        omega_r = [0.1, 0.2, 0.3]
        field = scenario._rotor_field(p, lambda t: (0.0, 0.0, 0.0))
        _, d = field(0.0, so3.components(np.eye(3), 2),
                     [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, *omega_r])
        d = np.array(d)
        assert np.allclose(d[3:6], 0.0, atol=1e-15)
        assert np.allclose(d[6:9], 0.0, atol=1e-15)
        assert np.array_equal(d[0:3], omega_r)

    def test_block_solve_matches_eliminated_closed_form(self):
        rng = np.random.default_rng(19)
        p = benchmark_params()
        i_inv = np.linalg.inv(p.body_inertia)
        k_inv = np.diag(1.0 / p.rotor_inertia)
        for _ in range(1000):
            omega, omega_r = rng.normal(size=3), rng.normal(size=3)
            u = rng.normal(size=3)
            d_omega, d_omega_r = dynamics.rotor_accels(p, omega, omega_r, u)
            pi = dynamics.momentum_body(p, omega, omega_r)
            # eliminating dOmega from the pair of balance equations gives
            # dOmega   = I^{-1}(pi x Omega - u)
            # dOmegaR  = (K^{-1} + I^{-1}) u - I^{-1}(pi x Omega)
            expected_o = i_inv @ (np.cross(pi, omega) - u)
            expected_r = (k_inv + i_inv) @ u - i_inv @ np.cross(pi, omega)
            assert np.abs(d_omega - expected_o).max() < 1e-10
            assert np.abs(d_omega_r - expected_r).max() < 1e-10

    def test_sequence_inputs_match_arrays(self):
        p = benchmark_params()
        omega, omega_r, u = [0.1, -0.2, 0.3], [1.0, 0.5, -0.5], [0.4, 0.0, -0.1]
        arrays = [np.array(v) for v in (omega, omega_r, u)]
        assert np.array_equal(dynamics.momentum_body(p, omega, omega_r),
                              dynamics.momentum_body(p, *arrays[:2]))
        for out_list, out_array in zip(
                dynamics.rotor_accels(p, omega, omega_r, u),
                dynamics.rotor_accels(p, *arrays), strict=True):
            assert np.array_equal(out_list, out_array)

    def test_locked_inverse_variant_is_not_the_rotor_rate(self):
        # the (I+K)^{-1} u variant differs from the block solve whenever
        # u is nonzero; the eliminated closed form above is the one realized
        p = benchmark_params()
        omega = np.array([0.1, -0.2, 0.3])
        omega_r = np.array([1.0, 0.5, -0.5])
        u = np.array([0.4, 0.0, -0.1])
        _, d_omega_r = dynamics.rotor_accels(p, omega, omega_r, u)
        pi = dynamics.momentum_body(p, omega, omega_r)
        variant = np.linalg.solve(p.locked, u) \
            - np.linalg.solve(p.body_inertia, np.cross(pi, omega))
        assert np.abs(d_omega_r - variant).max() > 1e-3

    def test_spatial_momentum_conserved_under_forcing(self):
        p = benchmark_params()
        field = scenario._rotor_field(p, lambda t: (
            0.2 * math.sin(t), 0.1 * math.cos(2 * t), -0.15))
        r0 = so3.expm([0.3, -0.2, 0.1])
        omega0 = np.array([0.2, 0.5, -0.3])
        omega_r0 = np.array([1.0, -2.0, 0.5])
        hist = integrate_components(
            field, (r0, np.concatenate([np.zeros(3), omega0, omega_r0])),
            IntegratorConfig(step=1e-3, duration=5.0))
        pi = hist.vectors[:, 3:6] @ p.locked.T \
            + hist.vectors[:, 6:9] * p.rotor_inertia
        mu = np.einsum("nij,nj->ni", hist.R, pi)
        assert np.abs(mu - mu[0]).max() < 1e-8

    def test_kinetic_energy_conserved_free_system(self):
        p = benchmark_params()
        field = scenario._rotor_field(p, lambda t: (0.0, 0.0, 0.0))
        omega0 = np.array([0.2, 0.5, -0.3])
        omega_r0 = np.array([1.0, -2.0, 0.5])
        hist = integrate_components(
            field, (np.eye(3), np.concatenate([np.zeros(3), omega0,
                                               omega_r0])),
            IntegratorConfig(step=1e-3, duration=5.0))
        energy = [lagrangian(p, v[3:6], v[6:9])
                  for v in hist.vectors[::500]]
        assert np.abs(np.array(energy) - energy[0]).max() < 1e-10

    def test_energy_rate_equals_rotor_work(self):
        # d(KE)/dt = u_int . OmegaR: energy changes only through rotor work
        p = benchmark_params()

        def u_prog(t):
            return 0.3 * math.sin(t), -0.2, 0.1 * math.cos(3 * t)

        h = 1e-3
        hist = integrate_components(
            scenario._rotor_field(p, u_prog),
            (np.eye(3),
             np.array([0.0, 0.0, 0.0, 0.2, 0.5, -0.3, 1.0, -2.0, 0.5])),
            IntegratorConfig(step=h, duration=5.0))
        energy = np.array([lagrangian(p, v[3:6], v[6:9])
                           for v in hist.vectors])
        power = np.array([np.dot(u_prog(t), hist.vectors[k, 6:9])
                          for k, t in enumerate(hist.times)])
        rate = (energy[2:] - energy[:-2]) / (2.0 * h)
        assert np.abs(rate - power[1:-1]).max() < 1e-5

    def test_small_rotor_limit_matches_external_body(self):
        i = scenario.BENCHMARK_PLANT_I
        eps = 1e-8
        p = dynamics.InertiaParams(i, (5.0 * eps, 6.0 * eps, 7.0 * eps))
        rng = np.random.default_rng(23)
        omega, omega_r = rng.normal(size=3), rng.normal(size=3)
        u = rng.normal(size=3)
        d_int, _ = dynamics.rotor_accels(p, omega, omega_r, u)
        d_ext = external_accel(i, omega, -np.linalg.solve(i, u))
        assert np.abs(d_int - d_ext).max() < 1e-6


def _vectors(low, high):
    return arrays(np.float64, 3, elements=st.floats(low, high))


@settings(max_examples=50, deadline=None)
@given(axes=_vectors(-3.0, 3.0), moments=_vectors(0.5, 4.0),
       rotors=_vectors(0.1, 3.0), torque=_vectors(-1.0, 1.0),
       attitude=_vectors(-3.0, 3.0), rates=arrays(
           np.float64, 6, elements=st.floats(-1.0, 1.0)))
def test_spatial_momentum_conserved_for_any_rotor_torque(
        axes, moments, rotors, torque, attitude, rates):
    # R Pi is a first integral of the rotor plant for any SPD body inertia
    # and any rotor torque; the production field on the production loop
    # keeps it to RK4 accuracy over 50 steps of 1e-2 s
    q = so3.expm(axes)
    i = q @ np.diag(moments) @ q.T
    p = dynamics.InertiaParams(0.5 * (i + i.T), rotors)
    u = tuple(torque.tolist())
    hist = integrate_components(
        scenario._rotor_field(p, lambda t: u),
        (so3.expm(attitude), np.concatenate([np.zeros(3), rates])),
        IntegratorConfig(step=1e-2, duration=0.5))
    pi = dynamics.momentum_body(p, hist.vectors[:, 3:6], hist.vectors[:, 6:9])
    mu = np.einsum("nij,nj->ni", hist.R, pi)
    assert np.abs(mu - mu[0]).max() <= 1e-7 * max(1.0, np.abs(mu[0]).max())


@settings(max_examples=100, deadline=None)
@given(axes=_vectors(-3.0, 3.0), moments=_vectors(0.5, 4.0),
       rotors=_vectors(0.1, 3.0), omega=_vectors(-2.0, 2.0),
       omega_r=_vectors(-2.0, 2.0), torque=_vectors(-2.0, 2.0))
def test_rotor_accels_solve_the_block_system(axes, moments, rotors, omega,
                                             omega_r, torque):
    # the 6x6 system of the module docstring, assembled here with numpy:
    # an oracle that does not share the kernel's elimination
    q = so3.expm(axes)
    i = q @ np.diag(moments) @ q.T
    p = dynamics.InertiaParams(0.5 * (i + i.T), rotors)
    k = np.diag(rotors)
    block = np.block([[p.body_inertia + k, k], [k, k]])
    pi = (p.body_inertia + k) @ omega + k @ omega_r
    rhs = np.concatenate([np.cross(pi, omega), torque])
    x = np.concatenate(dynamics.rotor_accels(p, omega, omega_r, torque))
    # the cross product cancels when pi is parallel to omega, so its
    # rounding error scales with |pi| |omega|, not with |rhs|
    scale = np.abs(block).sum(axis=1).max() * np.abs(x).max() \
        + np.abs(rhs).max() + np.abs(pi).max() * np.abs(omega).max()
    # below the smallest normal float the spacing is absolute, not
    # relative, so the bound carries an underflow term (e.g. a torque of
    # 5e-324 leaves a residual of one subnormal ulp)
    underflow = np.finfo(np.float64).tiny
    assert np.abs(block @ x - rhs).max() <= 1e-12 * scale + underflow


class TestExternalBody:
    def test_principal_axis_steady_spin(self):
        i = np.diag([1.0, 2.0, 3.0])
        d = free_body_accel(i, np.array([0.0, 0.0, 2.0]))
        assert np.allclose(d, 0.0, atol=1e-15)

    def test_euler_arithmetic(self):
        i = np.diag([1.0, 2.0, 3.0])
        d = free_body_accel(i, np.array([1.0, 1.0, 1.0]))
        assert np.allclose(d, [-1.0, 1.0, -1.0 / 3.0], atol=1e-14)

    def test_energy_conserved(self):
        i = np.diag([1.0, 2.0, 3.0])
        hist = integrate_components(
            dynamics.free_body_field(i),
            (np.eye(3), np.array([1.0, 1.0, 1.0])),
            IntegratorConfig(step=1e-3, duration=5.0))
        energy = 0.5 * np.einsum("ni,ij,nj->n", hist.vectors, i, hist.vectors)
        assert np.abs(energy - energy[0]).max() < 1e-10

    def test_command_channel_is_acceleration(self):
        i = np.diag([2.0, 3.0, 4.0])
        u = np.array([0.1, -0.2, 0.3])
        d = external_accel(i, np.zeros(3), u)
        assert np.allclose(d, u, atol=1e-15)
