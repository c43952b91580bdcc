import math

import numpy as np
import pytest

from gyrotrack import integrators, scenario, so3
from gyrotrack.errors import DivergedStateError


@pytest.fixture(scope="session")
def certified_zero_run():
    """Shared 30 s certified-gain tracking run (zero reference torque)."""
    cfg = scenario.benchmark_config(
        program="zero", gains=scenario.certified_gains(), duration=30.0)
    traj, metrics = scenario.run_closed_loop(cfg)
    return cfg, traj, metrics


@pytest.fixture(scope="session")
def equivalence_runs():
    """Internal vs external closed loops from identical (R0, Omega0), 10 s."""
    cfg = scenario.benchmark_config(program="zero", duration=10.0)
    internal = scenario.run_closed_loop(cfg, actuation="internal")
    external = scenario.run_closed_loop(cfg, actuation="external")
    return cfg, internal, external


def random_rotation(rng, max_angle=np.pi - 0.1):
    from gyrotrack.so3 import expm
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return expm(rng.uniform(0.0, max_angle) * axis)


def random_spd(rng, low=0.5, high=4.0, distinct=False):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    eig = rng.uniform(low, high, size=3)
    if distinct:
        eig = np.sort(eig) + np.array([0.0, 0.3, 0.6])
    return q @ np.diag(eig) @ q.T


# The stepper's oracle: the generic Munthe-Kaas step and the per-step
# loop as they read before the stage scale moved into the group kernels,
# the history into 128-row blocks and the state to one attitude: list
# comprehensions over a list of attitudes and formed sigma tuples, a
# finiteness check after every step and one row write per attitude and
# sample.  The kernels they call are pinned elsewhere:
# ``so3._mul_expm(r, 1.0, sigma)`` is R expm(sigma) (multiplying by 1.0
# is exact) and the snap is the full Gram step.

def _finite(rots, vec):
    if math.isfinite(sum(vec) + sum(map(sum, rots))):
        return True
    return all(math.isfinite(x) for c in (vec, *rots) for x in c)


def _snap(r):
    m = so3._matmul(so3._matmul(r, so3._transpose(r)), r)
    return tuple(1.5 * a - 0.5 * b for a, b in zip(r, m))


def _mul_expm(r, sigma):
    return so3._mul_expm(r, 1.0, sigma)


def _dexpinv_right(sigma, b):
    return integrators._dexpinv_right(1.0, sigma, b)


def oracle_step(vector_field, t, state, h, scheme, reproject):
    """One step of ``state = (rots, vec)``, any number of attitudes on
    components, under ``vector_field(t, rots, vec) -> (omegas, rates,
    *records)`` with one body velocity per attitude."""
    rots, vec = state
    if scheme == "lie_euler":
        omegas, vdot = vector_field(t, rots, vec)[:2]
        new_rots = [_mul_expm(r, (h * w0, h * w1, h * w2))
                    for r, (w0, w1, w2) in zip(rots, omegas)]
        new_vec = [x + h * d for x, d in zip(vec, vdot)]
    else:
        k, v = vector_field(t, rots, vec)[:2]
        ks, vs = [k], [v]
        for c in (0.5 * h, 0.5 * h, h):
            sigma = [(c * w0, c * w1, c * w2) for w0, w1, w2 in ks[-1]]
            b, v = vector_field(
                t + c, [_mul_expm(r, s) for r, s in zip(rots, sigma)],
                [x + c * d for x, d in zip(vec, vs[-1])])[:2]
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
    """``(times, rotations, vectors)`` of the run of `oracle_step` from
    ``initial = (rotations, vec)``, arrays at t = 0: one (n+1, 3, 3)
    array per attitude; a non-finite state raises DivergedStateError at
    its step."""
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
    return times, rot_hist, vec_hist


def joint_loop(cfg, actuation):
    """``loop(t, rots, vec) -> (omegas, vdot, u_ext, u_int)``: the plant,
    the reference body and the integral state as one field of
    `oracle_step`, the oracle of a run's co-integration:
    `scenario._plant_loop` fed with the stage values of the reference's
    `scenario._rotor_field`.

    rots: R, R_d.  vec: Theta 0:3 | Omega 3:6 | OmegaR 6:9 | Theta_d 9:12
    | Omega_d 12:15 | OmegaR_d 15:18 | xi_I 18:21.
    """
    reference = scenario._rotor_field(cfg.reference.params,
                                      cfg.program._torque)
    plant = scenario._plant_loop(cfg, actuation)

    def loop(t, rots, vec):
        r, r_d = rots
        omega_d, ref_rates = reference(t, r_d, vec[9:18])
        omega, rates, u_ext, u_int = plant(
            t, r, (*vec[:9], *vec[18:]), (*r_d, *omega_d, *ref_rates[3:6]))
        return ((omega, omega_d), (*rates[:9], *ref_rates, *rates[9:]),
                u_ext, u_int)
    return loop


def joint_initial(cfg, actuation):
    """The initial state of `joint_loop` for a run of ``cfg`` (resolved,
    `scenario.resolve_reference`) under ``actuation``."""
    plant, ref = cfg.plant, cfg.reference
    zero = np.zeros(3)
    theta0, omega_r0 = (plant.Theta0, plant.OmegaR0) \
        if actuation == "internal" else (zero, zero)
    vec0 = np.concatenate([theta0, plant.Omega0, omega_r0, ref.Theta0,
                           ref.Omega0, ref.OmegaR0, zero])
    return (plant.R0, ref.R0), vec0


def joint_rows(r, r_d, vec):
    """The run's 39-float rows (`scenario.closed_loop_blocks`) of a
    history of `joint_loop`: the plant's R 9 | Theta Omega OmegaR xi_I
    12, then the reference's R_d 9 | Theta_d Omega_d OmegaR_d 9."""
    return np.column_stack([r.reshape(-1, 9), vec[:, :9], vec[:, 18:],
                            r_d.reshape(-1, 9), vec[:, 9:18]])
