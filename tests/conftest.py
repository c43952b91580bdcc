import numpy as np
import pytest

from gyrotrack import scenario


@pytest.fixture(scope="session")
def certified_zero_run():
    """Shared 30 s certified-gain tracking run (zero reference torque)."""
    cfg = scenario.benchmark_config(program="zero", gains="certified",
                                    duration=30.0)
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


def joint_loop(cfg, actuation):
    """``loop(t, rots, vec) -> (omegas, vdot, u_ext, u_int)``: the plant,
    the reference body and the integral state as one field, the oracle of
    a run's co-integration: `scenario._plant_loop` fed with the stage
    values of the reference's `scenario._rotor_field`.

    rots: R, R_d.  vec: Theta 0:3 | Omega 3:6 | OmegaR 6:9 | Theta_d 9:12
    | Omega_d 12:15 | OmegaR_d 15:18 | xi_I 18:21.
    """
    reference = scenario._rotor_field(cfg.reference.params,
                                      cfg.program._torque)
    plant = scenario._plant_loop(cfg, actuation)

    def loop(t, rots, vec):
        r, r_d = rots
        (omega_d,), ref_rates = reference(t, (r_d,), vec[9:18])
        (omega,), rates, u_ext, u_int = plant(
            t, (r,), (*vec[:9], *vec[18:]),
            (*r_d, *omega_d, *ref_rates[3:6]))
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
