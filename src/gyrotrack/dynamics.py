"""Rigid-body plant models.

Two plants live here, each as componentwise kernels (see the `so3` module
docstring) that run on Python floats for one sample and on (n,) columns
for a stack of samples:

* a rigid body carrying three reaction rotors mounted on its principal
  axes (``_rotor_accels``), an interconnected system whose total spatial
  angular momentum is conserved for *any* rotor torque program, and
* an externally torqued rigid body on SO(3) (``_external_accel``);
  `free_body_field` is its torque-free vector field.

The rotor plant's accelerations solve the 6x6 block system

    [[I+K, K], [K, K]] @ [dOmega, dOmegaR] = [Pi x Omega, u_int]

by elimination: the difference of the two block rows gives
I dOmega = Pi x Omega - u_int, and K = diag(k) with k the three rotor
inertias that `InertiaParams` holds, so

    dOmega = I^{-1}(Pi x Omega - u_int),   dOmegaR = K^{-1} u_int - dOmega

with I^{-1} from `so3.metric_inverse`; no 6x6 matrix is formed.

Also here: the momentum map in body and inertial frames and the
mechanical connection; `InertiaParams.locked` is the locked inertia
tensor I+K of the assembly (body frame).  The kernels
read the inertia as the floats of `kernel_constants`; `momentum_body`
and `rotor_accels` are the array adapters of ``_momentum`` and
``_rotor_accels``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codegen import kernel
from .so3 import (_cross, _euler, _matvec, components, from_components,
                  metric_inverse, spd_eigenvalues)


# the largest ratio of I's principal moments: past it, I^{-1}
# (`so3.metric_inverse`) keeps fewer than 10 of a float's 16 digits
BODY_CONDITION_LIMIT = 1e6
_CONSTANTS = (9, 3, 9)   # the `codegen` spec of `kernel_constants`


@dataclass(frozen=True)
class InertiaParams:
    """Inertia of the carrier body (I) and of the three rotors (K).

    I is the 3x3 SPD body-frame inertia of the carrier, with condition
    number at most `BODY_CONDITION_LIMIT`; K is the three spin-axis
    inertias k_i > 0 of the rotors, kept as given (shape (3,)); `locked`
    alone forms diag(k).  Both are therefore invertible, which is all the
    rotor block solve needs (see the module docstring).  The triangle
    inequality of principal moments is not required: the bundled plant's
    moments (3.42, 3.80, 8.28) break it.  A rejected input raises
    ValueError whose message starts with "body" or "rotor".  Only I+K is
    cached; the kernels' constants come from `kernel_constants` and
    `so3.metric_inverse`, built by each caller.
    """

    body_inertia: np.ndarray
    rotor_inertia: np.ndarray

    def __init__(self, body_inertia, rotor_inertia):
        i, eig = spd_eigenvalues(body_inertia, "body inertia")
        if eig[-1] / BODY_CONDITION_LIMIT > eig[0]:
            raise ValueError("body inertia condition number exceeds "
                             f"{BODY_CONDITION_LIMIT:g}, principal moments "
                             f"{eig.tolist()}")
        k = np.asarray(rotor_inertia, dtype=float)
        if k.shape != (3,) or not np.isfinite(k).all():
            raise ValueError("rotor inertias must be three finite numbers")
        if k.min() <= 0.0:
            raise ValueError("rotor inertias must be positive")
        object.__setattr__(self, "body_inertia", i)
        object.__setattr__(self, "rotor_inertia", k)

    @cached_property
    def locked(self):
        """Locked inertia tensor I + diag(k) (body frame)."""
        return self.body_inertia + np.diag(self.rotor_inertia)


def kernel_constants(params):
    """Float components of ``params`` that the kernels read: I+K, the
    three rotor inertias k (K = diag(k)), and I^{-1} from
    `so3.metric_inverse`.  Callers build them once per run.
    """
    return (components(params.locked, 2),
            params.rotor_inertia.tolist(),
            metric_inverse(params.body_inertia)[1])


def _momentum(consts, omega, omega_r):
    """Pi = (I+K) Omega + K OmegaR; ``consts`` from `kernel_constants`."""
    locked, k, _ = consts
    return tuple(p + kj * r for p, kj, r in zip(_matvec(locked, omega), k,
                                                omega_r))


def momentum_body(params, omega, omega_r):
    """Body-frame angular momentum Pi = (I+K) Omega + K OmegaR.

    Velocities may be 3-vectors or (n, 3) stacks.
    """
    return from_components(_momentum(kernel_constants(params),
                                     components(omega), components(omega_r)))


def momentum_spatial(r, pi):
    """Inertial-frame angular momentum mu = R Pi (conserved by the rotor
    plant).  Either argument may be one sample or a stack, (n, 3, 3) and
    (n, 3), paired sample by sample."""
    return from_components(_matvec(components(r, 2), components(pi)))


def mechanical_connection(params, omega, omega_r):
    """Group part of the velocity: A = (I+K)^{-1} K OmegaR + Omega,
    computed as (I+K)^{-1} Pi with Pi the `momentum_body`."""
    return np.linalg.solve(params.locked,
                           momentum_body(params, omega, omega_r))


@kernel(_CONSTANTS, 3, 3, 3)
def _rotor_accels(consts, omega, omega_r, u_int):
    """(dOmega, dOmegaR) of the block system, by elimination.

    The first block row minus the second is I dOmega = f - u with
    f = Pi x Omega, and the second is K (dOmega + dOmegaR) = u; K is
    diag(k), so dOmega = I^{-1}(f - u) and dOmegaR = u / k - dOmega,
    with I^{-1} and the rotor inertias k from `kernel_constants`.
    """
    _, k, i_inv = consts
    f = _cross(_momentum(consts, omega, omega_r), omega)
    d_omega = _matvec(i_inv, [fj - u for fj, u in zip(f, u_int)])
    return d_omega, tuple(u / kj - d for u, kj, d in zip(u_int, k, d_omega))


def rotor_accels(params, omega, omega_r, u_int):
    """(dOmega, dOmegaR) of the rotor plant via the block solve
    (`_rotor_accels`).

    Arguments may be 3-vectors or (n, 3) stacks of samples.
    """
    d_omega, d_omega_r = _rotor_accels(kernel_constants(params),
                                       components(omega),
                                       components(omega_r),
                                       components(u_int))
    return from_components(d_omega), from_components(d_omega_r)


@kernel(9, 9, 3, 3)
def _external_accel(i_metric, i_inv, omega, u_ext):
    """dOmega = u_ext - conn(Omega, Omega), the Euler term `so3._euler`
    of the components of `so3.metric_inverse`."""
    return tuple(u - n for u, n in zip(u_ext, _euler(i_metric, i_inv, omega)))


def free_body_field(i_inertia):
    """Vector field of the torque-free rigid body with inertia ``i_inertia``.

    On components (see `integrators`), ``field(t, R, Omega) -> (Omega,
    dOmega)``: the attitude R moves with body velocity Omega, the vector
    state, whose rate is the Euler term dOmega = -conn(Omega, Omega) =
    I^{-1}((I Omega) x Omega), the ``u_ext = 0`` case of
    `_external_accel`.  The metric is inverted once, here.
    """
    i_metric, i_inv = metric_inverse(i_inertia)
    zero = (0.0, 0.0, 0.0)

    def field(t, r, vec):
        return vec, _external_accel(i_metric, i_inv, vec, zero)
    return field

