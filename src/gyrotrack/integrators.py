"""Deterministic fixed-step integration on products of SO(3) and R^n.

State convention: a pair ``(rotations, vectors)`` where ``rotations`` is a
tuple of 3x3 attitude matrices and ``vectors`` is one flat array holding
every vector-valued state.  A vector field maps ``(t, rotations, vectors)``
to ``(body_velocities, vector_derivative)``; the integrator owns the group
update, advancing each rotation by a right-multiplied exponential.

Two schemes are provided: first-order Lie-Euler and a fourth-order
Munthe-Kaas variant of the classical RK4 tableau, whose algebra-valued
stages are corrected with the inverse-dexp series truncated at two
commutators (sufficient for order 4).

Everything is pure float arithmetic with a fixed step, so rerunning an
integration reproduces it bit for bit on the same platform.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedStateError
from .so3 import cross3, expm

SCHEMES = ("lie_euler", "rk4_munthe_kaas")

_EYE3 = np.eye(3)


def _snap_so3(r):
    """One Newton-Schulz polar step, r <- r (3 - r^T r)/2.

    Equals the orthogonal polar factor to machine precision for the
    near-orthogonal matrices produced by exponential updates; far cheaper
    than an SVD in the per-step repair.
    """
    return r @ (1.5 * _EYE3 - 0.5 * (r.T @ r))


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    The horizon is realized as round(duration / step) uniform steps, so a
    duration that is not a multiple of the step is rounded to the nearest
    whole number of steps.
    """

    step: float = 1e-3
    duration: float = 30.0
    scheme: str = "rk4_munthe_kaas"
    reproject: bool = True

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.duration < self.step:
            raise ValueError("step must not exceed duration")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")

    @property
    def n_steps(self):
        return int(round(self.duration / self.step))


@dataclass
class History:
    """Dense output of `integrate` over a product state.

    rotations[k] has shape (n+1, 3, 3) for the k-th rotation component;
    vectors has shape (n+1, m).
    """

    times: np.ndarray
    rotations: list
    vectors: np.ndarray


@dataclass
class Trajectory:
    """Uniformly sampled single-body trajectory.

    omega_dot is populated by reference generation (sampled from the
    vector field, not by differencing) and stays None otherwise.
    """

    times: np.ndarray
    R: np.ndarray
    Theta: np.ndarray
    Omega: np.ndarray
    OmegaR: np.ndarray
    omega_dot: np.ndarray = field(default=None)

    def __len__(self):
        return len(self.times)


def _dexpinv_right(sigma, b):
    """Inverse right-trivialized dexp, truncated for 4th-order accuracy.

    For R(t) = R0 expm(sigma(t)) and dR = R hat(b):
    d(sigma)/dt = b + 1/2 sigma x b + 1/12 sigma x (sigma x b).
    """
    sxb = cross3(sigma, b)
    return b + 0.5 * sxb + cross3(sigma, sxb) / 12.0


def _advance(rots, vec, omegas, vdot, h):
    new_rots = tuple(r @ expm(h * w) for r, w in zip(rots, omegas))
    return new_rots, vec + h * vdot


def step_lie(vector_field, t, state, h, scheme="rk4_munthe_kaas",
             reproject=False):
    """Advance ``state = (rotations, vectors)`` by one step of size h.

    Attitudes update as R <- R expm(sigma) with the stage combination of
    the chosen scheme; vector components follow the matching classical
    Runge-Kutta stages.  With ``reproject`` the updated rotations are
    snapped back to SO(3) by polar projection.
    """
    rots, vec = state
    if scheme == "lie_euler":
        omegas, vdot = vector_field(t, rots, vec)
        new_rots, new_vec = _advance(rots, vec, omegas, vdot, h)
    elif scheme == "rk4_munthe_kaas":
        k1, v1 = vector_field(t, rots, vec)

        s2 = tuple(0.5 * h * k for k in k1)
        r2 = tuple(r @ expm(s) for r, s in zip(rots, s2))
        b2, v2 = vector_field(t + 0.5 * h, r2, vec + 0.5 * h * v1)
        k2 = tuple(_dexpinv_right(s, b) for s, b in zip(s2, b2))

        s3 = tuple(0.5 * h * k for k in k2)
        r3 = tuple(r @ expm(s) for r, s in zip(rots, s3))
        b3, v3 = vector_field(t + 0.5 * h, r3, vec + 0.5 * h * v2)
        k3 = tuple(_dexpinv_right(s, b) for s, b in zip(s3, b3))

        s4 = tuple(h * k for k in k3)
        r4 = tuple(r @ expm(s) for r, s in zip(rots, s4))
        b4, v4 = vector_field(t + h, r4, vec + h * v3)
        k4 = tuple(_dexpinv_right(s, b) for s, b in zip(s4, b4))

        sigma = tuple((h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                      for a, b, c, d in zip(k1, k2, k3, k4))
        new_rots = tuple(r @ expm(s) for r, s in zip(rots, sigma))
        new_vec = vec + (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
    else:
        raise ValueError(f"unknown scheme '{scheme}'")

    if reproject:
        new_rots = tuple(_snap_so3(r) for r in new_rots)
    return new_rots, new_vec


def integrate(vector_field, initial, cfg, t0=0.0):
    """Integrate a product-state vector field over cfg.duration.

    Returns a dense `History` with n_steps+1 uniformly spaced samples
    (duration == step gives two).  Raises DivergedStateError with the
    first offending step index if any state entry turns non-finite.
    """
    rots, vec = initial
    rots = tuple(np.array(r, dtype=float) for r in rots)
    vec = np.array(vec, dtype=float)
    n = cfg.n_steps
    times = t0 + cfg.step * np.arange(n + 1)

    rot_hist = [np.empty((n + 1, 3, 3)) for _ in rots]
    vec_hist = np.empty((n + 1, vec.size))
    for k, r in enumerate(rots):
        rot_hist[k][0] = r
    vec_hist[0] = vec

    state = (rots, vec)
    # an overflow inside a step leaves a non-finite state, which is
    # reported below as a divergence rather than as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            state = step_lie(vector_field, times[i], state, cfg.step,
                             scheme=cfg.scheme, reproject=cfg.reproject)
            rots, vec = state
            if not np.isfinite(vec).all() or any(not np.isfinite(r).all()
                                                 for r in rots):
                raise DivergedStateError(i + 1, times[i + 1])
            for k, r in enumerate(rots):
                rot_hist[k][i + 1] = r
            vec_hist[i + 1] = vec

    return History(times=times, rotations=rot_hist, vectors=vec_hist)
