"""The stepper against a transcription of its earlier, plainer form.

`oracle_step` and `oracle_integrate` are the generic Munthe-Kaas step
and the per-step loop as they read before the stage scale moved into the
group kernels and the history moved into 128-row blocks: list
comprehensions over formed sigma tuples, a finiteness check after every
step and one row write per component and sample.  The kernels they call
are pinned elsewhere: ``so3._mul_expm(r, 1.0, sigma)`` is R expm(sigma)
(multiplying by 1.0 is exact) and the snap is the full Gram step.  The
production loop must return the same `History`, byte for byte, for every
field of the package, both schemes, with and without reprojection.
"""

import math

import numpy as np
import pytest

from gyrotrack import control, dynamics, integrators, scenario, so3
from gyrotrack.errors import DivergedStateError
from gyrotrack.integrators import IntegratorConfig, integrate_components

from conftest import joint_initial, joint_loop


def _finite(rots, vec):
    if math.isfinite(sum(vec) + sum(map(sum, rots))):
        return True
    return all(math.isfinite(x) for c in (vec, *rots) for x in c)


def _snap(r):
    m = so3._matmul(so3._matmul_t(r, r), r)
    return tuple(1.5 * a - 0.5 * b for a, b in zip(r, m))


def _mul_expm(r, sigma):
    return so3._mul_expm(r, 1.0, sigma)


def _dexpinv_right(sigma, b):
    return integrators._dexpinv_right(1.0, sigma, b)


def oracle_step(vector_field, t, state, h, scheme, reproject):
    rots, vec = state
    if scheme == "lie_euler":
        omegas, vdot = vector_field(t, rots, vec)
        new_rots = [_mul_expm(r, (h * w0, h * w1, h * w2))
                    for r, (w0, w1, w2) in zip(rots, omegas)]
        new_vec = [x + h * d for x, d in zip(vec, vdot)]
    else:
        k, v = vector_field(t, rots, vec)
        ks, vs = [k], [v]
        for c in (0.5 * h, 0.5 * h, h):
            sigma = [(c * w0, c * w1, c * w2) for w0, w1, w2 in ks[-1]]
            b, v = vector_field(
                t + c, [_mul_expm(r, s) for r, s in zip(rots, sigma)],
                [x + c * d for x, d in zip(vec, vs[-1])])
            ks.append([_dexpinv_right(s, w) for s, w in zip(sigma, b)])
            vs.append(v)
        (k1, k2, k3, k4), (v1, v2, v3, v4) = ks, vs
        sixth = h / 6.0
        new_rots = [
            _mul_expm(r, (sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
                          sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                          sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)))
            for r, (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (d0, d1, d2)
            in zip(rots, k1, k2, k3, k4)]
        new_vec = [x + sixth * (a + 2.0 * b + 2.0 * c + d)
                   for x, a, b, c, d in zip(vec, v1, v2, v3, v4)]
    if reproject:
        new_rots = [_snap(r) for r in new_rots]
    return new_rots, new_vec


def oracle_integrate(vector_field, initial, cfg):
    rots, vec = initial
    state = ([so3.components(r, 2) for r in rots], so3.components(vec))
    n = cfg.n_steps
    times = cfg.step * np.arange(n + 1)
    rot_hist = [np.empty((n + 1, 3, 3)) for _ in rots]
    vec_hist = np.empty((n + 1, len(state[1])))
    rows = [r.reshape(n + 1, 9) for r in rot_hist] + [vec_hist]
    for i in range(n + 1):
        if i:
            state = oracle_step(vector_field, times.item(i - 1), state,
                                cfg.step, cfg.scheme, cfg.reproject)
            if not _finite(*state):
                raise DivergedStateError(i, times.item(i))
        for hist, x in zip(rows, (*state[0], state[1])):
            hist[i] = x
    return integrators.History(times=times, rotations=rot_hist,
                               vectors=vec_hist)


def closed_loop(program, actuation):
    """The run's two bodies integrated as one state (`joint_loop`) and
    their initial state; the field returns the torques after its rates."""
    cfg = scenario.resolve_reference(
        scenario.benchmark_config(program, gains="certified"))
    return joint_loop(cfg, actuation), joint_initial(cfg, actuation)


def rotor_body():
    cfg = scenario.resolve_reference(scenario.benchmark_config("sinusoid"))
    ref = cfg.reference
    return (scenario._rotor_field(ref.params, cfg.program._torque),
            ((ref.R0,), np.concatenate([ref.Theta0, ref.Omega0,
                                        ref.OmegaR0])))


def free_body():
    return (dynamics.free_body_field(scenario.BENCHMARK_PLANT_I),
            ((so3.expm([0.3, -1.2, 0.8]),), np.array([1.0, -2.2, 0.5])))


def error_flow():
    plant = scenario.benchmark_plant().params
    field = control.error_field(plant.body_inertia, np.diag([2.0, 1.5, 1.0]),
                                scenario.certified_gains())
    return field, ((so3.expm([2.0, 0.5, -1.0]),),
                   np.array([0.4, -0.3, 0.9, 0.1, 0.0, -0.2]))


PROBLEMS = {
    **{f"closed loop {program} {actuation}":
       (lambda p=program, a=actuation: closed_loop(p, a))
       for program in scenario.PROGRAM_KINDS
       for actuation in ("internal", "external")},
    "rotor body": rotor_body,
    "free body": free_body,
    "error flow": error_flow,
}


def _same_history(a, b):
    return (a.times.tobytes() == b.times.tobytes()
            and len(a.rotations) == len(b.rotations)
            and all(x.tobytes() == y.tobytes()
                    for x, y in zip(a.rotations, b.rotations))
            and a.vectors.shape == b.vectors.shape
            and a.vectors.tobytes() == b.vectors.tobytes())


@pytest.mark.parametrize("reproject", [True, False],
                         ids=["reproject", "no reproject"])
@pytest.mark.parametrize("scheme", integrators.SCHEMES)
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_history_equals_oracle(problem, scheme, reproject):
    # 0.3 s at h = 1e-3 is 301 samples: two full 128-row blocks and a
    # partial one
    field, initial = PROBLEMS[problem]()
    cfg = IntegratorConfig(step=1e-3, duration=0.3, scheme=scheme,
                           reproject=reproject)
    want = oracle_integrate(lambda t, rots, vec: field(t, rots, vec)[:2],
                            initial, cfg)
    assert _same_history(integrate_components(field, initial, cfg), want)


# Divergence is checked once per 128-row block, yet reported at the first
# non-finite sample, as the oracle reports it after every step.

def nan_at(step, stage, target):
    """A zero field whose ``stage``-th RK4 evaluation of step ``step``
    returns a NaN body velocity or rate."""
    calls = [0]

    def field(t, rots, vec):
        calls[0] += 1
        bad = math.nan if calls[0] == 4 * (step - 1) + stage else 0.0
        if target == "vector":
            return [(0.0, 0.0, 0.0)], [0.0, bad]
        return [(0.0, bad, 0.0)], [0.0, 0.0]
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
    initial = ((np.eye(3),), np.ones(2))
    got = _divergence(integrate_components, nan_at(step, stage, target),
                      initial, cfg)
    assert got == (step, times[step])
    assert got == _divergence(oracle_integrate, nan_at(step, stage, target),
                              initial, cfg)


def zero_field(t, rots, vec):
    return [(0.0, 0.0, 0.0)] * len(rots), [0.0] * len(vec)


@pytest.mark.parametrize("initial", [
    ((np.eye(3),), np.array([np.nan, 0.0])),
    ((np.diag([1.0, np.inf, 1.0]), np.eye(3)), np.zeros(2)),
], ids=["vector", "rotation"])
def test_non_finite_initial_state_fails_at_step_1(initial):
    cfg = IntegratorConfig(step=0.1, duration=1.0)
    assert _divergence(integrate_components, zero_field, initial, cfg) \
        == (1, cfg.step) \
        == _divergence(oracle_integrate, zero_field, initial, cfg)


def overflow_then(fail_on_finite):
    """Rates of 1e308 from t = 2.5 on, so the state of step 3 (h = 1) is
    inf; the field raises ValueError on a non-finite state, or also on a
    finite one at t >= 2.5."""
    def field(t, rots, vec):
        if not math.isfinite(vec[0]) or (fail_on_finite and t >= 2.5):
            raise ValueError("the field cannot take this state")
        return [(0.0, 0.0, 0.0)], [1e308 if t >= 2.5 else 0.0]
    return field


def test_field_raising_on_diverged_state_reports_divergence():
    cfg = IntegratorConfig(step=1.0, duration=10.0)
    with pytest.raises(DivergedStateError) as err:
        integrate_components(overflow_then(False), ((np.eye(3),), np.zeros(1)),
                             cfg)
    assert (err.value.step_index, err.value.time) == (3, 3.0)
    assert isinstance(err.value.__context__, ValueError)


def test_field_raising_on_finite_state_propagates():
    cfg = IntegratorConfig(step=1.0, duration=10.0)
    with pytest.raises(ValueError):
        integrate_components(overflow_then(True), ((np.eye(3),), np.zeros(1)),
                             cfg)


def test_empty_state_integrates():
    cfg = IntegratorConfig(step=0.1, duration=0.3)
    initial = ((), np.zeros(0))
    got = integrate_components(zero_field, initial, cfg)
    assert got.vectors.shape == (4, 0)
    assert _same_history(got, oracle_integrate(zero_field, initial, cfg))


@pytest.mark.parametrize("scheme", integrators.SCHEMES)
def test_trailing_records_are_ignored(scheme):
    field, initial = free_body()
    cfg = IntegratorConfig(step=1e-3, duration=0.3, scheme=scheme)
    assert _same_history(
        integrate_components(
            lambda t, rots, vec: (*field(t, rots, vec), "u_ext", None),
            initial, cfg),
        integrate_components(field, initial, cfg))
