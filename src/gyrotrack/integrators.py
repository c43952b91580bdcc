"""Deterministic fixed-step integration on products of SO(3) and R^n.

State convention: a pair ``(rotations, vectors)`` on components, as the
kernels of `so3` take them: each attitude is its 9 entries in row-major
order and ``vectors`` one flat sequence of Python floats holding every
vector-valued state.  A vector field maps ``(t, rotations, vectors)`` to
``(body_velocities, vector_derivative)``: 3 floats per rotation and one
per vector slot.  The integrator owns the group update, advancing each
rotation by a right-multiplied exponential, each update R expm(sigma)
one call of `so3._mul_expm`.

`integrate_components` is the one integration loop and takes such a
field directly; the package's own fields (`scenario`'s closed loop and
rotor body, `dynamics.free_body_field`, `control.error_field`) are
written for it.  It returns the dense `History`, the one record of this
module; `scenario.ClosedLoopTrajectory` names the slots of a closed-loop
run.

Two schemes are provided: first-order Lie-Euler and a fourth-order
Munthe-Kaas variant of the classical RK4 tableau, whose algebra-valued
stages are corrected with the inverse-dexp series truncated at two
commutators (sufficient for order 4).

Everything is pure float arithmetic with a fixed step, so rerunning an
integration reproduces it bit for bit on the same platform.  The step and
the per-step divergence check run on Python floats; arrays appear only in
the dense history, written row by row.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergedStateError
from .so3 import _matmul, _mul_expm, components

SCHEMES = ("lie_euler", "rk4_munthe_kaas")


def _snap_so3(r):
    """One Newton-Schulz polar step, r <- r (3 - r^T r)/2, on components.

    Written as 1.5 r - 0.5 (r r^T) r.  Equals the orthogonal polar factor
    to machine precision for the near-orthogonal matrices produced by
    exponential updates; far cheaper than an SVD in the per-step repair.
    The Gram matrix r r^T is symmetric, so only its six distinct entries
    are formed, each as `so3._matmul_t` forms it.
    """
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = r
    g01 = r0 * r3 + r1 * r4 + r2 * r5
    g02 = r0 * r6 + r1 * r7 + r2 * r8
    g12 = r3 * r6 + r4 * r7 + r5 * r8
    gram = (r0 * r0 + r1 * r1 + r2 * r2, g01, g02,
            g01, r3 * r3 + r4 * r4 + r5 * r5, g12,
            g02, g12, r6 * r6 + r7 * r7 + r8 * r8)
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = _matmul(gram, r)
    return (1.5 * r0 - 0.5 * m0, 1.5 * r1 - 0.5 * m1, 1.5 * r2 - 0.5 * m2,
            1.5 * r3 - 0.5 * m3, 1.5 * r4 - 0.5 * m4, 1.5 * r5 - 0.5 * m5,
            1.5 * r6 - 0.5 * m6, 1.5 * r7 - 0.5 * m7, 1.5 * r8 - 0.5 * m8)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    The horizon is realized as round(duration / step) uniform steps, so a
    duration that is not a multiple of the step is rounded to the nearest
    whole number of steps.  The count must stay below 2**53, past which
    floats skip whole numbers and k * step no longer separates steps;
    below it a history of up to 128 floats per sample stays within
    numpy's size limit, so a run too long for memory raises MemoryError.
    """

    step: float = 1e-3
    duration: float = 30.0
    scheme: str = "rk4_munthe_kaas"
    reproject: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.step) and math.isfinite(self.duration)):
            raise ValueError("step and duration must be finite")
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.duration < self.step:
            raise ValueError("step must not exceed duration")
        if not self.duration / self.step < 2.0 ** 53:
            raise ValueError("duration / step must be below 2**53 steps")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")

    @property
    def n_steps(self):
        return int(round(self.duration / self.step))


@dataclass
class History:
    """Dense output of `integrate_components` over a product state.

    rotations[k] has shape (n+1, 3, 3) for the k-th rotation component;
    vectors has shape (n+1, m).
    """

    times: np.ndarray
    rotations: list
    vectors: np.ndarray


def _dexpinv_right(sigma, b):
    """Inverse right-trivialized dexp, truncated for 4th-order accuracy.

    For R(t) = R0 expm(sigma(t)) and dR = R hat(b):
    d(sigma)/dt = b + 1/2 sigma x b + 1/12 sigma x (sigma x b).
    """
    s0, s1, s2 = sigma
    b0, b1, b2 = b
    x0, x1, x2 = s1 * b2 - s2 * b1, s2 * b0 - s0 * b2, s0 * b1 - s1 * b0
    return (b0 + 0.5 * x0 + (s1 * x2 - s2 * x1) / 12.0,
            b1 + 0.5 * x1 + (s2 * x0 - s0 * x2) / 12.0,
            b2 + 0.5 * x2 + (s0 * x1 - s1 * x0) / 12.0)


def _finite(rots, vec):
    """True if every component is finite.  A finite sum proves it; only a
    NaN or inf entry, or an overflowing sum, needs the entrywise check."""
    if math.isfinite(sum(vec) + sum(map(sum, rots))):
        return True
    return all(math.isfinite(x) for c in (vec, *rots) for x in c)


def step_lie(vector_field, t, state, h, scheme="rk4_munthe_kaas",
             reproject=False):
    """Advance ``state = (rotations, vectors)`` by one step of size h.

    Attitudes update as R <- R expm(sigma) with the stage combination of
    the chosen scheme; vector components follow the matching classical
    Runge-Kutta stages.  With ``reproject`` the updated rotations are
    snapped back to SO(3) by polar projection.  All on components; each
    update R expm(sigma) is `so3._mul_expm`.
    """
    rots, vec = state
    if scheme == "lie_euler":
        omegas, vdot = vector_field(t, rots, vec)
        new_rots = [_mul_expm(r, (h * w0, h * w1, h * w2))
                    for r, (w0, w1, w2) in zip(rots, omegas)]
        new_vec = [x + h * d for x, d in zip(vec, vdot)]
    elif scheme == "rk4_munthe_kaas":
        k, v = vector_field(t, rots, vec)
        ks, vs = [k], [v]
        # stages 2-4 start from the previous stage scaled by c = h/2, h/2, h
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
    else:
        raise ValueError(f"unknown scheme '{scheme}'")

    if reproject:
        new_rots = [_snap_so3(r) for r in new_rots]
    return new_rots, new_vec


def integrate_components(vector_field, initial, cfg):
    """Integrate a vector field on components over cfg.duration.

    ``initial`` holds arrays at t = 0.  Returns a dense `History` with
    n_steps+1 uniformly spaced samples (duration == step gives two).  Raises
    DivergedStateError with the first offending step index if any state
    entry turns non-finite.
    """
    rots, vec = initial
    state = ([components(r, 2) for r in rots], components(vec))
    n = cfg.n_steps
    times = cfg.step * np.arange(n + 1)
    rot_hist = [np.empty((n + 1, 3, 3)) for _ in rots]
    vec_hist = np.empty((n + 1, len(state[1])))
    # sample i goes to row i of each attitude's (n+1, 9) view and of vec_hist
    rows = [r.reshape(n + 1, 9) for r in rot_hist] + [vec_hist]
    for i in range(n + 1):
        if i:   # step_lie is looked up per call, so it can be wrapped
            state = step_lie(vector_field, times.item(i - 1), state,
                             cfg.step, scheme=cfg.scheme,
                             reproject=cfg.reproject)
            if not _finite(*state):
                raise DivergedStateError(i, times.item(i))
        for hist, x in zip(rows, (*state[0], state[1])):
            hist[i] = x
    return History(times=times, rotations=rot_hist, vectors=vec_hist)

