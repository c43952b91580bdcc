"""Deterministic fixed-step integration on SO(3) x R^n.

State convention: a pair ``(r, vec)`` on components, as the kernels of
`so3` take them: ``r`` the attitude's 9 entries in row-major order and
``vec`` one flat sequence of Python floats holding every vector-valued
state.  A vector field maps ``(t, r, vec)`` to exactly ``(omega,
rates)``: the attitude's 3 floats of body velocity and one rate per
vector slot (a longer value fails to unpack, ValueError at the first
step); on a non-finite state it returns inf or NaN, as the kernels of
`so3` do, rather than raising.  The integrator owns the group update,
advancing the attitude by a right-multiplied exponential, each update
R expm(c k) one call of `so3._mul_expm` at the stage scale c.

`_blocks` is the one integration loop, a generator of a run's unchecked
blocks that holds no more of it than the block in progress, for the
package's own fields (`scenario`'s two rotor bodies,
`dynamics.free_body_field`, `control.error_field`), and `checked` the one
finiteness check of a block.  `integrate_blocks` is the two together;
`scenario` checks instead each row of its two bodies side by side.
`integrate_components` collects a run into the dense `History`.

Two schemes are provided: first-order Lie-Euler and a fourth-order
Munthe-Kaas variant of the classical RK4 tableau, whose algebra-valued
stages are corrected with the inverse-dexp series truncated at two
commutators (sufficient for order 4).  Both are written once, in
`_step_source`; the step that runs (`step_lie`) is generated from it
(`codegen.generate`) for each scheme, reprojection flag and width of the
vector state, with the field and `so3._mul_expm` left as calls and the
stage sums (`_rk4_sum`), `_dexpinv_right` and `_snap_so3` as inline
arithmetic.

Everything is pure float arithmetic with a fixed step, so rerunning an
integration reproduces it bit for bit on the same platform.  The step
runs on Python floats; arrays appear only in the blocks of samples,
formed and checked for non-finite entries 128 rows at a time (the
reference body of `scenario` forms its rows 16 at a time).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codegen import Call, generate
from .errors import DivergedStateError
from .so3 import _cross, _matmul, _mul_expm, _transpose, components

SCHEMES = ("lie_euler", "rk4_munthe_kaas")
_BLOCK = 128   # sample rows gathered, checked and yielded at once


def _snap_so3(r):
    """One Newton-Schulz polar step, r <- r (3 - r^T r)/2, on components.

    Written as 1.5 r - 0.5 (r r^T) r.  Equals the orthogonal polar factor
    to machine precision for the near-orthogonal matrices produced by
    exponential updates; far cheaper than an SVD in the per-step repair.
    """
    m = _matmul(_matmul(r, _transpose(r)), r)
    return tuple(1.5 * a - 0.5 * b for a, b in zip(r, m))


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    The horizon is realized as round(duration / step) uniform steps, so a
    duration that is not a multiple of the step is rounded to the nearest
    whole number of steps.  The count must stay below 2**53, past which
    floats skip whole numbers and k * step no longer separates steps;
    below it a whole run of up to 128 floats per sample stays within
    numpy's size limit, so those that hold one (`integrate_components`,
    `scenario.run_closed_loop`) raise MemoryError when it is too long.
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
    """Dense output of `integrate_components`: the attitudes R, of shape
    (n+1, 3, 3), and the vector states, of shape (n+1, m)."""

    times: np.ndarray
    R: np.ndarray
    vectors: np.ndarray


def _dexpinv_right(c, k, b):
    """Inverse right-trivialized dexp, truncated for 4th-order accuracy.

    For R(t) = R0 expm(sigma(t)) and dR = R hat(b):
    d(sigma)/dt = b + 1/2 sigma x b + 1/12 sigma x (sigma x b), at
    sigma = c k, the stage scale c times the previous stage's slope k.
    """
    sigma = [c * kj for kj in k]
    x = _cross(sigma, b)
    return tuple(bj + 0.5 * xj + yj / 12.0
                 for bj, xj, yj in zip(b, x, _cross(sigma, x)))


def _rk4_sum(a, b, c, d):
    """a + 2 b + 2 c + d, entry by entry: the RK4 weights of four
    stages."""
    return tuple(x + 2.0 * y + 2.0 * z + w for x, y, z, w in zip(a, b, c, d))


def _step_source(vector_field, t, state, h, scheme, reproject):
    """Advance ``state = (r, vec)`` by one step of size h: the source of
    the steps `_step` generates.

    The attitude updates as R <- R expm(sigma) with the stage combination
    of the chosen scheme; the vector state follows the matching classical
    Runge-Kutta stages.  With ``reproject`` the updated attitude is
    snapped back to SO(3) by polar projection.  All on components.  Each
    RK4 stage after the first corrects its slope by dexp^{-1}, then forms
    the next stage's exponential or, in the last stage, the update and
    snap.
    """
    r, vec = state
    if scheme == "lie_euler":
        omega, vdot = vector_field(t, r, vec)
        r = _mul_expm(r, h, omega)
        return (_snap_so3(r) if reproject else r,
                [x + h * d for x, d in zip(vec, vdot)])
    if scheme != "rk4_munthe_kaas":
        raise ValueError(f"unknown scheme '{scheme}'")

    half, sixth = 0.5 * h, h / 6.0
    k1, v1 = vector_field(t, r, vec)
    # stages 2 and 3 at t + h/2 start from the previous slope k scaled by
    # c = h/2 and correct theirs by dexp^{-1} at sigma = c k
    w, v2 = vector_field(t + half, _mul_expm(r, half, k1),
                         [x + half * d for x, d in zip(vec, v1)])
    k2 = _dexpinv_right(half, k1, w)
    w, v3 = vector_field(t + half, _mul_expm(r, half, k2),
                         [x + half * d for x, d in zip(vec, v2)])
    k3 = _dexpinv_right(half, k2, w)
    # stage 4 at t + h starts from h k3; then the update
    w, v4 = vector_field(t + h, _mul_expm(r, h, k3),
                         [x + h * d for x, d in zip(vec, v3)])
    r = _mul_expm(r, sixth, _rk4_sum(k1, k2, k3, _dexpinv_right(h, k3, w)))
    return (_snap_so3(r) if reproject else r,
            [x + sixth * s for x, s in zip(vec, _rk4_sum(v1, v2, v3, v4))])


@functools.cache
def _step(scheme, reproject, width):
    """`_step_source` for one scheme, reprojection flag and width of the
    vector state, generated (`codegen.generate`) as a function of
    ``(vector_field, t, state, h)``: the field and `so3._mul_expm` stay
    calls, the stage sums, `_dexpinv_right` and `_snap_so3` become
    inline arithmetic.  An unknown scheme raises ValueError."""
    return generate(_step_source, Call((3, width)), None, (9, width), None,
                    calls={"_mul_expm": 9}, scheme=scheme,
                    reproject=reproject)


def step_lie(vector_field, t, state, h, scheme="rk4_munthe_kaas",
             reproject=False):
    """Advance ``state = (r, vec)`` by one step of size h under the
    vector field, by the step `_step` generates from `_step_source` for
    the scheme, the reprojection flag and the width of vec."""
    return _step(scheme, reproject, len(state[1]))(vector_field, t, state, h)


def checked(start, block, step):
    """``block``, the rows of samples ``start`` on of a run of the given
    step, once one `np.isfinite` has found them finite; a non-finite entry
    raises DivergedStateError at its step instead.  A non-finite initial
    state fails at step 1."""
    finite = np.isfinite(block).all(axis=1)
    finite[:1] |= not start
    if not finite.all():
        i = start + int(finite.argmin())
        raise DivergedStateError(i, step * i)
    return block


def _blocks(vector_field, initial, cfg, length=_BLOCK):
    """The blocks of `integrate_blocks`, of up to ``length`` rows and
    unchecked: after a non-finite sample the run goes on, on inf or NaN
    (the field contract above).  A field that raises has the block's rows
    so far `checked` first, so one that raises on a diverged state reports
    the divergence.  An initial attitude that is not one 3x3 array raises
    ValueError naming its shape."""
    r0, vec = initial
    if np.shape(r0) != (3, 3):
        raise ValueError("the initial attitude must be one 3x3 array, got "
                         f"shape {np.shape(r0)}")
    state = components(r0, 2), components(vec)
    n = cfg.n_steps
    width = 9 + len(state[1])
    h, scheme, reproject = cfg.step, cfg.scheme, cfg.reproject
    for start in range(0, n + 1, length):
        rows, stop = [], start
        try:
            for i in range(start, min(start + length, n + 1)):
                if i:   # step_lie is looked up per call, so it can be wrapped
                    state = step_lie(vector_field, h * (i - 1), state, h,
                                     scheme, reproject)
                rows += state[0]
                rows += state[1]
                stop = i + 1
        except BaseException:
            checked(start, np.array(rows).reshape(stop - start, width), h)
            raise
        yield start, np.array(rows).reshape(stop - start, width)


def integrate_blocks(vector_field, initial, cfg):
    """Integrate a vector field on components from ``initial = (R0,
    vec0)``, arrays at t = 0, over cfg.duration: yield the n_steps+1
    samples (duration == step gives two), sample i at time step * i, as
    ``(start, block)``: the first sample's index and up to 128 rows, the
    attitude's 9 entries, then the vector state.  Each block is `checked`
    first; a non-finite entry raises DivergedStateError at its step
    instead, so the steps after a divergence up to the block's end run on
    inf or NaN (the field contract above), and a field that raises there
    still reports it.
    """
    for start, block in _blocks(vector_field, initial, cfg):
        yield start, checked(start, block, cfg.step)


def integrate_components(vector_field, initial, cfg):
    """The blocks of `integrate_blocks` collected into a dense `History`."""
    n = cfg.n_steps
    rows = np.empty((n + 1, 9 + np.size(initial[1])))
    for start, block in integrate_blocks(vector_field, initial, cfg):
        rows[start:start + len(block)] = block
    return History(cfg.step * np.arange(n + 1),
                   rows[:, :9].reshape(n + 1, 3, 3), rows[:, 9:])
