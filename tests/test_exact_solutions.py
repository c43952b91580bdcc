"""Closed-form oracles: Euler's torque-free rigid body in Jacobi elliptic
functions, and a gyrostat's steady spin.

A body of principal inertia I1 < I2 < I3 started at Omega0 = (x, 0, z)
turns with body rates that are sn, cn and dn of lambda t at a parameter
m in [0, 1): dn about the least axis when M^2 < 2E I2, about the greatest
when M^2 > 2E I2 (Landau and Lifshitz, Mechanics, section 37), with 2E
and M^2 the body's doubled energy and squared momentum.  The functions
come from the descending arithmetic-geometric mean (Abramowitz and
Stegun 16.4), with no dependency.

Near the separatrix, m -> 1, the period grows without bound and the
error of a fixed step with it, so the drawn cases keep m <= 0.9.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gyrotrack import dynamics, scenario
from gyrotrack.integrators import IntegratorConfig, integrate_components

M_MAX = 0.9   # the band m > 0.9 next to the separatrix is left out


def jacobi(u, m):
    """sn, cn and dn of the array ``u`` at parameter 0 <= m < 1, by the
    descending arithmetic-geometric mean (ten steps reach its limit to
    the last bit for m <= 0.9); dn = sqrt(1 - m sn^2) keeps its accuracy
    where cos(phi_0) / cos(phi_1 - phi_0) loses it."""
    a, b, ratios = 1.0, math.sqrt(1.0 - m), []
    for _ in range(10):
        a, b, c = (a + b) / 2.0, math.sqrt(a * b), (a - b) / 2.0
        ratios.append(c / a)
    phi = 2.0 ** len(ratios) * a * u
    for ratio in reversed(ratios):
        phi = (phi + np.arcsin(ratio * np.sin(phi))) / 2.0
    sn = np.sin(phi)
    return sn, np.cos(phi), np.sqrt(1.0 - m * sn * sn)


def euler_solution(inertia, omega0, t):
    """``(Omega(t), m)`` for principal inertias ``inertia`` (ascending)
    from ``omega0 = (x, 0, z)``: the dn axis ``a`` keeps the sign of its
    rate, the other extreme axis ``c`` follows cn, and the middle axis
    starts as the Euler equation I2 dOmega2 = (I3 - I1) Omega3 Omega1
    moves it."""
    i1, i2, i3 = inertia
    x, _, z = omega0
    e2 = i1 * x * x + i3 * z * z                  # 2E
    m2 = (i1 * x) ** 2 + (i3 * z) ** 2            # M^2
    a, c = (2, 0) if m2 > e2 * i2 else (0, 2)
    ia, ic = inertia[a], inertia[c]
    lam = math.sqrt((ia - i2) * (m2 - e2 * ic) / (ia * i2 * ic))
    m = (i2 - ic) * (e2 * ia - m2) / ((ia - i2) * (m2 - e2 * ic))
    sn, cn, dn = jacobi(lam * np.asarray(t), m)
    omega = np.empty((len(sn), 3))
    omega[:, a] = omega0[a] * dn
    omega[:, c] = omega0[c] * cn
    omega[:, 1] = math.copysign(
        math.sqrt((e2 * ia - m2) / (i2 * (ia - i2))), (i3 - i1) * x * z) * sn
    return omega, m


def free_body_gaps(inertia, omega0, step, duration):
    """Largest gaps of `dynamics.free_body_field` integrated from R = 1
    against Euler's solution: of the body rates, and of R^T mu0 against
    I Omega(t), the body momentum, which tests the attitude as well."""
    hist = integrate_components(
        dynamics.free_body_field(np.diag(inertia)),
        (np.eye(3), np.asarray(omega0, dtype=float)),
        IntegratorConfig(step=step, duration=duration))
    exact, _ = euler_solution(inertia, omega0, hist.times)
    body = np.einsum("nji,j->ni", hist.R, np.asarray(inertia) * omega0)
    return (np.abs(hist.vectors - exact).max(),
            np.abs(body - exact * inertia).max())


def rotor_body(inertia, rotors, omega0, step, duration):
    """``(times, Omega, OmegaR)`` of `scenario._rotor_field` under the
    zero torque program from R = 1 with OmegaR0 = -Omega0: its body
    momentum (I+K) Omega + K OmegaR is then I Omega, and the rotor
    block solve gives dOmega + dOmegaR = 0, so the body is the free one."""
    params = dynamics.InertiaParams(np.diag(inertia), rotors)
    field = scenario._rotor_field(params,
                                  scenario.ReferenceProgram("zero")._torque)
    omega0 = np.asarray(omega0, dtype=float)
    hist = integrate_components(
        field, (np.eye(3), np.concatenate([np.zeros(3), omega0, -omega0])),
        IntegratorConfig(step=step, duration=duration))
    return hist.times, hist.vectors[:, 3:6], hist.vectors[:, 6:9]


BASELINE = (np.array([2.0, 3.0, 5.0]), np.array([1.0, 0.0, 0.4]))  # m 0.8


def test_euler_solution_is_the_baseline_case():
    # the parameters of the case that the pins below are measured on
    inertia, omega0 = BASELINE
    omega, m = euler_solution(inertia, omega0, [0.0])
    assert math.isclose(m, 0.8, rel_tol=1e-12)
    assert np.array_equal(omega[0], omega0)


@st.composite
def free_bodies(draw):
    """Principal inertias in [1, 6] at least 0.5 apart and Omega0 =
    (x, 0, z) with |x|, |z| in [0.2, 1], either sign, m <= M_MAX."""
    i1 = draw(st.floats(1.0, 2.0))
    i2 = draw(st.floats(i1 + 0.5, 4.0))
    i3 = draw(st.floats(i2 + 0.5, 6.0))
    x, z = (draw(st.floats(0.2, 1.0)) * draw(st.sampled_from((-1.0, 1.0)))
            for _ in range(2))
    inertia, omega0 = np.array([i1, i2, i3]), np.array([x, 0.0, z])
    assume(euler_solution(inertia, omega0, [0.0])[1] <= M_MAX)
    return inertia, omega0


@settings(max_examples=25, deadline=None)
@given(body=free_bodies())
def test_free_body_is_eulers_solution(body):
    # 10 s at h = 5e-3: the largest gaps on a grid of the drawn range's
    # corners were 4.2e-8 (body rates) and 5.7e-8 (momentum), at
    # I = (1, 1.5, 6) and Omega0 = (1, 0, 1); with the Euler term's sign
    # flipped, the miss is of the rates' own size
    rates, momentum = free_body_gaps(*body, step=5e-3, duration=10.0)
    assert rates < 1e-6 and momentum < 1e-6


def test_free_body_error_is_fourth_order_down_to_rounding():
    # the baseline case over 20 s: 7.7e-9, 4.8e-10 and 3.0e-11 at
    # h = 0.04, 0.02 and 0.01 (order 4.0), 1.8e-14 at h = 1e-3, where
    # rounding takes over; R^T mu0 within 7.5e-14 of I Omega there
    errors = [free_body_gaps(*BASELINE, step=h, duration=20.0)[0]
              for h in (0.04, 0.02, 0.01)]
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert ((3.8 <= orders) & (orders <= 4.2)).all(), orders
    rates, momentum = free_body_gaps(*BASELINE, step=1e-3, duration=20.0)
    assert rates < 1e-13 and momentum < 5e-13


@settings(max_examples=15, deadline=None)
@given(body=free_bodies(),
       rotors=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3))
def test_rotor_body_with_opposite_rotor_rates_is_eulers_solution(body,
                                                                 rotors):
    # Omega + OmegaR stays exactly 0: its rates are d and -d, and every
    # stage sums them alike
    inertia, omega0 = body
    times, omega, omega_r = rotor_body(inertia, rotors, omega0, 5e-3, 10.0)
    exact, _ = euler_solution(inertia, omega0, times)
    assert np.abs(omega - exact).max() < 1e-6
    assert not (omega + omega_r).any()


def test_rotor_body_pin():
    # the baseline case with the benchmark's rotor inertias: 3.0e-11 at
    # h = 1e-2 and 2.7e-14 at h = 1e-3 over 20 s
    inertia, omega0 = BASELINE
    times, omega, _ = rotor_body(inertia, [5.0, 6.0, 7.0], omega0, 1e-3,
                                 20.0)
    exact, _ = euler_solution(inertia, omega0, times)
    assert np.abs(omega - exact).max() < 1e-13


def rodrigues(v):
    """expm of each row of ``v`` by the Rodrigues formula in numpy, apart
    from `so3`: sin(a)/a and (1 - cos a)/a^2 as sinc, finite at a = 0."""
    a = np.linalg.norm(v, axis=1)[:, None, None]
    k = np.zeros((len(v), 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -v[:, 2], v[:, 1], -v[:, 0]
    k -= k.transpose(0, 2, 1)
    return (np.eye(3) + np.sinc(a / np.pi) * k
            + 0.5 * np.sinc(a / (2.0 * np.pi)) ** 2 * (k @ k))


def test_gyrostat_steady_spin():
    # the benchmark plant under the zero program with its momentum
    # Pi = (I+K) Omega + K OmegaR = lam Omega: Pi x Omega = 0, so nothing
    # moves Omega or OmegaR, and R = R0 expm(t Omega), Theta = t OmegaR.
    # Over 30 s at h = 1e-3: R within 1.3e-14, Theta within 3.9e-12; with
    # R0 and the step's rotation multiplied the wrong way round in
    # `so3._mul_expm`, R misses by order 1
    params = dynamics.InertiaParams(scenario.BENCHMARK_PLANT_I,
                                    scenario.BENCHMARK_PLANT_K)
    omega = np.linalg.solve(scenario.BENCHMARK_PLANT_I,
                            scenario.BENCHMARK_PLANT_IOMEGA0)
    omega_r = (10.0 * omega - params.locked @ omega) / params.rotor_inertia
    r0 = scenario.BENCHMARK_PLANT_R0
    field = scenario._rotor_field(params,
                                  scenario.ReferenceProgram("zero")._torque)
    hist = integrate_components(
        field, (r0, np.concatenate([np.zeros(3), omega, omega_r])),
        IntegratorConfig(step=1e-3, duration=30.0))
    t = hist.times[:, None]
    assert np.abs(hist.R - r0 @ rodrigues(t * omega)).max() < 1e-13
    assert (hist.vectors[:, 3:6] == omega).all()
    assert (hist.vectors[:, 6:9] == omega_r).all()
    assert np.abs(hist.vectors[:, :3] - t * omega_r).max() < 1e-11


def exact_reference_run(actuation, step=1e-3, duration=5.0):
    """``(traj, metrics, exact)`` of the certified closed loop started on
    a reference body that is Euler's free body: I_d = diag(1, 1.2, 2),
    the zero program, R_d0 = 1, Omega_d0 = (0.8, 0, 0.5) (m = 0.32) and
    OmegaR_d0 = -Omega_d0, with the plant on it (`on_reference_variant`);
    ``exact`` is Euler's solution at the run's times."""
    cfg = scenario.benchmark_config("zero", gains=scenario.certified_gains(),
                                    duration=duration)
    omega_d0 = np.array([0.8, 0.0, 0.5])
    reference = scenario.BodySetup(
        params=dynamics.InertiaParams(np.diag([1.0, 1.2, 2.0]),
                                      scenario.BENCHMARK_REF_K),
        R0=np.eye(3), Omega0=omega_d0, OmegaR0=-omega_d0)
    cfg = scenario.on_reference_variant(dataclasses.replace(
        cfg, reference=reference,
        integrator=dataclasses.replace(cfg.integrator, step=step)))
    traj, metrics = scenario.run_closed_loop(cfg, actuation)
    exact, _ = euler_solution([1.0, 1.2, 2.0], omega_d0, traj.times)
    return traj, metrics, exact


@pytest.mark.parametrize("actuation", ["internal", "external"])
def test_closed_loop_on_an_exact_reference(actuation):
    # the plant started on the reference stays on it, so its own rates
    # are Euler's solution for the reference's inertia: over 5 s at
    # h = 1e-3 within 4.3e-15 (internal) and 4.1e-15 (external), with
    # |R - R_d| <= 4.2e-15 and psi <= 8.9e-16; 2.8e-12 at h = 1e-2
    traj, metrics, exact = exact_reference_run(actuation)
    assert np.abs(traj.Omega - exact).max() < 1e-13
    assert np.abs(traj.Omega_d - exact).max() < 1e-13
    assert np.abs(traj.R - traj.R_d).max() < 1e-13
    assert metrics.psi_e.max() < 1e-14
