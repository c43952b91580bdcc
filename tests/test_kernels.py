"""Stacked calls of the shared kernels agree row by row with single calls.

The integrator evaluates each kernel one sample at a time and the run
post-pass evaluates it on every stored sample at once; both must give the
same numbers.
"""

import numpy as np
import pytest

from gyrotrack import control, dynamics, scenario, so3

from conftest import random_rotation, random_spd

N = 7


def _rotations(rng):
    return np.array([random_rotation(rng) for _ in range(N)])


def _vectors(rng):
    return rng.normal(size=(N, 3))


def _case(name, rng):
    """(kernel on the arguments, stacked arguments) for one kernel."""
    i = random_spd(rng)
    p = random_spd(rng, distinct=True)
    gains = scenario.certified_gains()
    if name == "cross3":
        return so3.cross3, (_vectors(rng), _vectors(rng))
    if name == "skew_vee":
        return so3.skew_vee, (rng.normal(size=(N, 3, 3)),)
    if name == "loop_kernel":
        consts = [so3.metric_constants(i), so3.components(p, 2)]

        def kernel(r, omega, r_d, omega_d, omega_d_dot, xi):
            u, _, xi_dot = control._loop_kernel(
                *consts, gains, so3.components(r, 2), so3.components(omega),
                so3.components(r_d, 2), so3.components(omega_d),
                so3.components(omega_d_dot), so3.components(xi))
            return so3.from_components(u), so3.from_components(xi_dot)
        return kernel, (_rotations(rng), _vectors(rng), _rotations(rng),
                        _vectors(rng), _vectors(rng), _vectors(rng))
    if name == "rotor_accels":
        params = scenario.benchmark_plant().params
        return (lambda omega, omega_r, u:
                dynamics.rotor_accels(params, omega, omega_r, u)), \
            (_vectors(rng), _vectors(rng), _vectors(rng))
    if name == "nav_psi":
        return (lambda e: control.nav_psi(p, e)), (_rotations(rng),)
    if name in ("ecl_value", "ecl_rate_bound"):
        fn = getattr(control, name)
        return (lambda e, eta, xi: fn(i, p, gains, e, eta, xi)), \
            (_rotations(rng), _vectors(rng), _vectors(rng))
    if name == "rotation_angle":
        return so3.rotation_angle, (_rotations(rng),)
    if name == "connection_term":
        return (lambda a, b: so3.connection_term(i, a, b)), \
            (_vectors(rng), _vectors(rng))
    if name == "connection_term_geodesic":
        return (lambda a: so3.connection_term(i, a, a)), (_vectors(rng),)
    raise ValueError(name)


@pytest.mark.parametrize("name", [
    "cross3", "skew_vee", "loop_kernel", "rotor_accels", "nav_psi",
    "ecl_value", "ecl_rate_bound", "rotation_angle", "connection_term",
    "connection_term_geodesic"])
def test_stacked_rows_match_single_calls(name):
    kernel, stacks = _case(name, np.random.default_rng(53))
    stacked = kernel(*stacks)
    if not isinstance(stacked, tuple):
        stacked = (stacked,)
    for k in range(N):
        single = kernel(*(s[k] for s in stacks))
        if not isinstance(single, tuple):
            single = (single,)
        for out_stacked, out_single in zip(stacked, single, strict=True):
            assert np.shape(out_stacked)[0] == N
            assert np.abs(out_stacked[k] - out_single).max() <= 1e-12
