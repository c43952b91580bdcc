"""Rigid-body plant models.

Two plants live here:

* an externally torqued rigid body on SO(3) (``deriv_external``), and
* a rigid body carrying three reaction rotors mounted on its principal
  axes (``deriv_internal``), an interconnected system whose total spatial
  angular momentum is conserved for *any* rotor torque program.

The rotor plant's accelerations are obtained by solving the 6x6 block
system

    [[I+K, K], [K, K]] @ [dOmega, dOmegaR] = [Pi x Omega, u_int]

with the block matrix inverted once per :class:`InertiaParams`.  The
rearranged closed forms exist as a cross-check oracle in the test suite,
not as the production path.

Also here: the momentum map in body and inertial frames, the mechanical
connection, and the locked inertia tensor of the assembly.

The momentum map and the block solve are componentwise kernels
(``_momentum``, ``_rotor_accels``; see the `so3` module docstring): they
run on Python floats for one sample and on (n,) columns for a stack of
samples, read the inertia as the floats of `kernel_constants`, and have
`momentum_body` and `rotor_accels` as their array adapters.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularInertiaError
from .so3 import (_conn, _cross, _matvec, _matvec_t, components,
                  connection_tensor, from_components, hat, is_rotation)


def rotor_inertia_matrix(k):
    """Validate a rotor-inertia spec (3-vector or 3x3 diagonal) as 3x3.

    Raises:
        ValueError: unless the spec is diagonal with positive entries.
    """
    k = np.asarray(k, dtype=float)
    if k.shape == (3,):
        k = np.diag(k)
    elif k.shape == (3, 3):
        off = k - np.diag(np.diag(k))
        if np.abs(off).max() > 0.0:
            raise ValueError("rotor inertia matrix must be diagonal")
        k = k.copy()
    else:
        raise ValueError(
            "rotor inertia must be a 3-vector or 3x3 diagonal matrix")
    if np.diag(k).min() <= 0.0:
        raise ValueError("rotor inertias must be positive")
    return k


@dataclass(frozen=True)
class InertiaParams:
    """Inertia of the carrier body (I) and of the three rotors (K).

    I is the 3x3 SPD body-frame inertia of the carrier, K = diag(k1, k2, k3)
    with k_i > 0 the spin-axis inertias of the rotors.  Both I+K and K must
    be invertible.  Derived factorizations are cached on first use.
    """

    body_inertia: np.ndarray
    rotor_inertia: np.ndarray

    def __init__(self, body_inertia, rotor_inertia):
        i = np.asarray(body_inertia, dtype=float)
        if i.shape != (3, 3):
            raise ValueError("body inertia must be 3x3")
        if np.abs(i - i.T).max() > 1e-12:
            raise ValueError("body inertia must be symmetric within 1e-12")
        if np.linalg.eigvalsh(i).min() <= 0.0:
            raise ValueError("body inertia must be positive definite")
        k = rotor_inertia_matrix(rotor_inertia)
        object.__setattr__(self, "body_inertia", i)
        object.__setattr__(self, "rotor_inertia", k)

    @cached_property
    def locked(self):
        """Locked inertia tensor I + K (body frame)."""
        return self.body_inertia + self.rotor_inertia

    @cached_property
    def rotor_diag(self):
        """Rotor inertias as a 3-vector (K is diagonal)."""
        return np.diag(self.rotor_inertia).copy()

    @cached_property
    def body_inertia_inv(self):
        return np.linalg.inv(self.body_inertia)

    @cached_property
    def body_connection(self):
        """`connection_tensor` of the body inertia metric."""
        return connection_tensor(self.body_inertia)

    @cached_property
    def locked_inv(self):
        return np.linalg.inv(self.locked)

    @cached_property
    def _block_inv(self):
        """Inverse of the [[I+K, K], [K, K]] block, computed once."""
        k = self.rotor_inertia
        try:
            return np.linalg.inv(np.block([[self.locked, k], [k, k]]))
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SingularInertiaError("inertia block system is singular") from exc


@dataclass(frozen=True)
class BodyState:
    """Full rotor-plant state: attitude R, rotor angles Theta (rad),
    body angular velocity Omega (rad/s), rotor relative rates OmegaR (rad/s).

    Theta is carried unwrapped; wrap to [0, 2*pi) only when emitting output.
    """

    R: np.ndarray
    Theta: np.ndarray
    Omega: np.ndarray
    OmegaR: np.ndarray

    def __init__(self, R, Theta, Omega, OmegaR, validate=True):
        R = np.asarray(R, dtype=float)
        Theta = np.asarray(Theta, dtype=float)
        Omega = np.asarray(Omega, dtype=float)
        OmegaR = np.asarray(OmegaR, dtype=float)
        if validate:
            if not is_rotation(R, tol=1e-9):
                raise ValueError("R is not a rotation matrix within 1e-9")
            if not (np.isfinite(Theta).all() and np.isfinite(Omega).all()
                    and np.isfinite(OmegaR).all()):
                raise ValueError("state velocities must be finite")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "Theta", Theta)
        object.__setattr__(self, "Omega", Omega)
        object.__setattr__(self, "OmegaR", OmegaR)


@dataclass(frozen=True)
class Momentum:
    """Angular momentum in body (Pi) and inertial (mu = R Pi) frames."""

    body: np.ndarray
    spatial: np.ndarray

    @classmethod
    def from_state(cls, params, state):
        pi = momentum_body(params, state.Omega, state.OmegaR)
        return cls(body=pi, spatial=state.R @ pi)


@dataclass
class StateDerivative:
    """Time derivative of a BodyState.

    ``R_dot`` (= R @ hat(Omega)) is assembled lazily; integrators advance
    the attitude from the body velocity directly.
    """

    theta_dot: np.ndarray
    omega_dot: np.ndarray
    omega_r_dot: np.ndarray
    _R: np.ndarray = None
    _Omega: np.ndarray = None

    @cached_property
    def R_dot(self):
        return self._R @ hat(self._Omega)


def kernel_constants(params):
    """Float components of ``params`` that the kernels read: I+K, the
    rotor inertias, and the blocks (A, B, C) of the block inverse
    [[A, B], [B^T, C]].  Callers build them once per run."""
    inv = params._block_inv
    return (components(params.locked, 2), params.rotor_diag.tolist(),
            tuple(components(blk, 2)
                  for blk in (inv[:3, :3], inv[:3, 3:], inv[3:, 3:])))


def _momentum(consts, omega, omega_r):
    """Pi = (I+K) Omega + K OmegaR; ``consts`` from `kernel_constants`."""
    locked, (k0, k1, k2), _ = consts
    p0, p1, p2 = _matvec(locked, omega)
    r0, r1, r2 = omega_r
    return p0 + k0 * r0, p1 + k1 * r1, p2 + k2 * r2


def momentum_body(params, omega, omega_r):
    """Body-frame angular momentum Pi = (I+K) Omega + K OmegaR.

    Velocities may be 3-vectors or (n, 3) stacks.
    """
    return from_components(_momentum(kernel_constants(params),
                                     components(omega), components(omega_r)))


def momentum_spatial(r, pi):
    """Inertial-frame angular momentum mu = R Pi (conserved by the rotor plant)."""
    return np.asarray(r) @ np.asarray(pi)


def mechanical_connection(params, omega, omega_r):
    """Group part of the velocity: A = (I+K)^{-1} K OmegaR + Omega.

    Equals locked_inertia(body)^{-1} @ momentum_body by construction.
    """
    return params.locked_inv @ (params.rotor_inertia @ omega_r) + omega


def locked_inertia(params, r=None, frame="body"):
    """Inertia of the assembly with rotors locked.

    frame="body" returns I+K (independent of attitude); frame="inertial"
    returns R (I+K) R^T.
    """
    if frame == "body":
        return params.locked.copy()
    if frame == "inertial":
        r = np.asarray(r, dtype=float)
        return r @ params.locked @ r.T
    raise ValueError("frame must be 'body' or 'inertial'")


def _rotor_accels(consts, omega, omega_r, u_int):
    """(dOmega, dOmegaR) from the block inverse in `kernel_constants`.

    The block matrix is symmetric, so its inverse is [[A, B], [B^T, C]]
    and the solution of the block system is (A f + B u, B^T f + C u) with
    f = Pi x Omega.
    """
    _, _, (a, b, c) = consts
    f = _cross(_momentum(consts, omega, omega_r), omega)
    af0, af1, af2 = _matvec(a, f)
    bu0, bu1, bu2 = _matvec(b, u_int)
    bf0, bf1, bf2 = _matvec_t(b, f)
    cu0, cu1, cu2 = _matvec(c, u_int)
    return (af0 + bu0, af1 + bu1, af2 + bu2), (bf0 + cu0, bf1 + cu1, bf2 + cu2)


def rotor_accels(params, omega, omega_r, u_int):
    """(dOmega, dOmegaR) of the rotor plant via the cached block solve.

    Arguments may be 3-vectors or (n, 3) stacks of samples.
    """
    d_omega, d_omega_r = _rotor_accels(kernel_constants(params),
                                       components(omega),
                                       components(omega_r),
                                       components(u_int))
    return from_components(d_omega), from_components(d_omega_r)


def _external_accel(gamma, omega, u_ext):
    """dOmega = u_ext - conn(Omega, Omega); ``gamma`` as in `so3._conn`."""
    (u0, u1, u2), (n0, n1, n2) = u_ext, _conn(gamma, omega, omega)
    return u0 - n0, u1 - n1, u2 - n2


def deriv_internal(params, state, u_int):
    """Vector field of the rotor plant under rotor torque ``u_int`` (N·m).

    Kinematics: dR = R hat(Omega), dTheta = OmegaR.  Accelerations come
    from the block solve of the interconnected system; the spatial
    momentum R Pi is a first integral for any u_int.
    """
    omega_dot, omega_r_dot = rotor_accels(params, state.Omega, state.OmegaR, u_int)
    return StateDerivative(
        theta_dot=np.array(state.OmegaR, copy=True),
        omega_dot=omega_dot,
        omega_r_dot=omega_r_dot,
        _R=state.R,
        _Omega=state.Omega,
    )


def deriv_external(i_inertia, r, omega, u_ext):
    """Vector field of the externally actuated rigid body.

    ``u_ext`` is algebra-valued (rad/s^2); the physical torque it realizes
    is I @ u_ext.  dR = R hat(Omega), dOmega = I^{-1}((I Omega) x Omega) + u_ext.
    """
    omega = np.asarray(omega, dtype=float)
    omega_dot = _external_accel(components(connection_tensor(i_inertia), 2),
                                components(omega), components(u_ext))
    return StateDerivative(
        theta_dot=np.zeros(3),
        omega_dot=from_components(omega_dot),
        omega_r_dot=np.zeros(3),
        _R=np.asarray(r, dtype=float),
        _Omega=omega,
    )


def kinetic_energy(params, omega, omega_r):
    """Kinetic energy of the rotor assembly (the Lagrangian; no potential)."""
    rel = omega + omega_r
    return 0.5 * float(omega @ params.body_inertia @ omega) \
        + 0.5 * float(rel @ params.rotor_inertia @ rel)
