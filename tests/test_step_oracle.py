"""The stepper against a transcription of its earlier, plainer form.

`conftest.oracle_integrate` is the generic Munthe-Kaas step and the
per-step loop as they read before the stage scale moved into the group
kernels, the history into 128-row blocks and the state to one attitude.
The production loop must return the same `History`, byte for byte, for
every one-attitude field of the package, both schemes, with and without
reprojection, and a run's blocks the rows of its two bodies integrated
as one state by the oracle (`conftest.joint_loop`).
"""

import dataclasses
import math

import numpy as np
import pytest

from gyrotrack import control, dynamics, integrators, scenario, so3
from gyrotrack.errors import DivergedStateError
from gyrotrack.integrators import IntegratorConfig, integrate_components

from conftest import joint_initial, joint_loop, joint_rows, oracle_integrate


def oracle(field, initial, cfg):
    """`oracle_integrate` of a package field, ``field(t, r, vec) ->
    (omega, rates, *records)``, from ``initial = (R0, vec0)``."""
    r0, vec0 = initial

    def fields(t, rots, vec):
        omega, rates = field(t, *rots, vec)[:2]
        return (omega,), rates
    return oracle_integrate(fields, ((r0,), vec0), cfg)


def closed_loop(program, actuation, icfg):
    """The run's rows, and those of its two bodies integrated as one
    state by the oracle (`joint_loop`)."""
    cfg = scenario.resolve_reference(dataclasses.replace(
        scenario.benchmark_config(program, gains=scenario.certified_gains()),
        integrator=icfg))
    got = np.concatenate([block for _, block in
                          scenario.closed_loop_blocks(cfg, actuation)])
    _, (r, r_d), vec = oracle_integrate(joint_loop(cfg, actuation),
                                        joint_initial(cfg, actuation), icfg)
    return [got], [joint_rows(r, r_d, vec)]


def _arrays(hist):
    return [hist.times, hist.R, hist.vectors]


def one_body(problem):
    """The `History` of a one-attitude ``problem`` and the oracle's."""
    def run(icfg):
        field, initial = problem()
        hist = integrate_components(field, initial, icfg)
        times, (r,), vec = oracle(field, initial, icfg)
        return _arrays(hist), [times, r, vec]
    return run


def rotor_body():
    cfg = scenario.resolve_reference(scenario.benchmark_config("sinusoid"))
    ref = cfg.reference
    return (scenario._rotor_field(ref.params, cfg.program._torque),
            (ref.R0, np.concatenate([ref.Theta0, ref.Omega0, ref.OmegaR0])))


def free_body():
    return (dynamics.free_body_field(scenario.BENCHMARK_PLANT_I),
            (so3.expm([0.3, -1.2, 0.8]), np.array([1.0, -2.2, 0.5])))


def error_flow():
    plant = scenario.benchmark_plant().params
    field = control.error_field(plant.body_inertia, np.diag([2.0, 1.5, 1.0]),
                                scenario.certified_gains())
    return field, (so3.expm([2.0, 0.5, -1.0]),
                   np.array([0.4, -0.3, 0.9, 0.1, 0.0, -0.2]))


PROBLEMS = {
    **{f"closed loop {program} {actuation}":
       (lambda icfg, p=program, a=actuation: closed_loop(p, a, icfg))
       for program in scenario.PROGRAM_KINDS
       for actuation in ("internal", "external")},
    "rotor body": one_body(rotor_body),
    "free body": one_body(free_body),
    "error flow": one_body(error_flow),
}


def _same(got, want):
    return len(got) == len(want) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got, want))


@pytest.mark.parametrize("reproject", [True, False],
                         ids=["reproject", "no reproject"])
@pytest.mark.parametrize("scheme", integrators.SCHEMES)
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_history_equals_oracle(problem, scheme, reproject):
    # 0.3 s at h = 1e-3 is 301 samples: two full 128-row blocks and a
    # partial one
    cfg = IntegratorConfig(step=1e-3, duration=0.3, scheme=scheme,
                           reproject=reproject)
    assert _same(*PROBLEMS[problem](cfg))


# Divergence is checked once per 128-row block, yet reported at the first
# non-finite sample, as the oracle reports it after every step.

def nan_at(step, stage, target):
    """A zero field whose ``stage``-th RK4 evaluation of step ``step``
    returns a NaN body velocity or rate."""
    calls = [0]

    def field(t, r, vec):
        calls[0] += 1
        bad = math.nan if calls[0] == 4 * (step - 1) + stage else 0.0
        if target == "vector":
            return (0.0, 0.0, 0.0), [0.0, bad]
        return (0.0, bad, 0.0), [0.0, 0.0]
    return field


def _divergence(integrate, field, initial, cfg):
    with pytest.raises(DivergedStateError) as err:
        integrate(field, initial, cfg)
    return err.value.step_index, err.value.time


@pytest.mark.parametrize("target", ["vector", "rotation"])
@pytest.mark.parametrize("stage", [1, 2, 3, 4])
@pytest.mark.parametrize("step", [1, 127, 128, 129, 256, 290])
def test_divergence_at_block_edges(step, stage, target):
    # 300 steps: the blocks hold samples 0-127, 128-255 and 256-300
    cfg = IntegratorConfig(step=0.01, duration=3.0)
    times = cfg.step * np.arange(cfg.n_steps + 1)
    initial = (np.eye(3), np.ones(2))
    got = _divergence(integrate_components, nan_at(step, stage, target),
                      initial, cfg)
    assert got == (step, times[step])
    assert got == _divergence(oracle, nan_at(step, stage, target), initial,
                              cfg)


def zero_field(t, r, vec):
    return (0.0, 0.0, 0.0), [0.0] * len(vec)


@pytest.mark.parametrize("initial", [
    (np.eye(3), np.array([np.nan, 0.0])),
    (np.diag([1.0, np.inf, 1.0]), np.zeros(2)),
], ids=["vector", "rotation"])
def test_non_finite_initial_state_fails_at_step_1(initial):
    cfg = IntegratorConfig(step=0.1, duration=1.0)
    assert _divergence(integrate_components, zero_field, initial, cfg) \
        == (1, cfg.step) \
        == _divergence(oracle, zero_field, initial, cfg)


def overflow_then(fail_on_finite):
    """Rates of 1e308 from t = 2.5 on, so the state of step 3 (h = 1) is
    inf; the field raises ValueError on a non-finite state, or also on a
    finite one at t >= 2.5."""
    def field(t, r, vec):
        if not math.isfinite(vec[0]) or (fail_on_finite and t >= 2.5):
            raise ValueError("the field cannot take this state")
        return (0.0, 0.0, 0.0), [1e308 if t >= 2.5 else 0.0]
    return field


def test_field_raising_on_diverged_state_reports_divergence():
    cfg = IntegratorConfig(step=1.0, duration=10.0)
    with pytest.raises(DivergedStateError) as err:
        integrate_components(overflow_then(False), (np.eye(3), np.zeros(1)),
                             cfg)
    assert (err.value.step_index, err.value.time) == (3, 3.0)
    assert isinstance(err.value.__context__, ValueError)


def test_field_raising_on_finite_state_propagates():
    cfg = IntegratorConfig(step=1.0, duration=10.0)
    with pytest.raises(ValueError):
        integrate_components(overflow_then(True), (np.eye(3), np.zeros(1)),
                             cfg)


@pytest.mark.parametrize("scheme", integrators.SCHEMES)
def test_field_returning_more_than_omega_and_rates_raises(scheme):
    # a field returns exactly (omega, rates): a trailing record fails to
    # unpack at the first evaluation, in the generated step, in its
    # source and in a run
    field, initial = free_body()
    times = []

    def longer(t, r, vec):
        times.append(t)
        return (*field(t, r, vec), "u_ext")

    state = so3.components(initial[0], 2), so3.components(initial[1])
    cfg = IntegratorConfig(step=1e-3, duration=0.3, scheme=scheme)
    for run in (
            lambda: integrators.step_lie(longer, 0.0, state, 1e-3, scheme),
            lambda: integrators._step_source(longer, 0.0, state, 1e-3,
                                             scheme, True),
            lambda: integrate_components(longer, initial, cfg)):
        with pytest.raises(ValueError, match="unpack"):
            run()
    assert times == [0.0] * 3
