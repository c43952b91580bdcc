"""Exact primitives for the rotation group SO(3) and its Lie algebra so(3).

Conventions used throughout the package are fixed here:

* ``hat(e3)`` carries +1 at entry (2, 1) (0-based: [1, 0]), i.e. the
  standard right-handed cross-product matrix, ``hat(v) @ w == cross(v, w)``.
* ``connection_term(I, a, a) == -I^{-1}((I a) x a)``: the Euler term
  carries the sign that turns the geodesic equation
  dOmega/dt = -nabla_Omega Omega into the classical Euler equation
  ``I dOmega/dt = (I Omega) x Omega``.  The free-body value and
  conservation tests pin this sign.

Componentwise kernels.  Each per-sample formula of the closed loop
(here: the primitives below, the Levi-Civita connection and the
exponential update R expm(c v)) is written once, as a private function
over scalar components: a vector is a
sequence of 3 components, a matrix a sequence of 9 in row-major order.
The same source runs on Python floats for one sample (``components`` of
a (3,) or (3, 3) array, i.e. its ``tolist()``), which is what the
integrator's hot path uses, and on (n,) sample columns for a stack
(``components`` of an (n, 3) or (n, 3, 3) array, the transposed stack),
which is what the run post-pass uses.  numpy arrays appear only at the
adapters: the public functions (``cross3``, ``skew_vee``,
``connection_term``, ``expm``, ...) unpack their arguments with
``components``, call the kernel and pack the result with
``from_components``.  Python floats raise where numpy returns inf or NaN
(``**`` overflow, division by zero, ``math.sin(inf)``), so the kernels
use no ``**`` and divide by a state-derived value only behind a branch
that keeps it away from zero and from inf (`_expm_coeffs`):
an overflowing state gives inf or NaN on floats as on arrays, not an
exception.

The primitives are `_cross`, `_matvec`, `_transpose` and `_skew_vee`.
`_matvec`, M v, is the one matrix product written out: `_matmul`, A B,
is `_matvec` of A on each column of B, transposed back to rows, so each
entry keeps the products and the left-to-right sum of A B written out;
A B^T is `_matmul(a, _transpose(b))`.

The paper's formulas are kernels that call each other: `_euler` and
`_mul_expm` here, the error, feedback, control and torque-conversion
kernels of `control`, the block solve of `dynamics` and the dexp^{-1}
series of `integrators`.  Each is written as the composition of the
primitives, the form the paper's equations take.  The kernels that the
integrator's vector fields and steps call are replaced at import by
straight-line code generated from that source (`codegen.generate`):
the same products in the same order, with no Python call per product
on the hot path, and bit-equal to the source, which each keeps as
``__wrapped__``.  `_mul_expm(r, c, v)`, the exponential update
R expm(c v), scales v by the stage scale c, forms the Rodrigues entries
Q of expm(c v), then R Q with `_matmul`.  Its one branch, on the angle,
is `_expm_coeffs`, which picks the coefficients a and b from theta^2 on
floats and stays a call in the generated `_mul_expm`; the generated
step calls `_mul_expm` in turn.  `expm(v)` is `_mul_expm` of the
identity, c = 1.

The connection is written once, as the matrix C(a) of b -> nabla_a b
(`_conn_matrix`), from the table Gamma in its own layout: row 3 i + j
is nabla_{e_i} e_j, so row k of C(a) is `_matvec` of a 3x3 matrix of
Gamma's k-th components on a.  nabla_a b is C(a) b, and a caller that
needs nabla_a of two vectors forms C(a) once.  Its diagonal nabla_a a,
the Euler term, has the closed form I^{-1}(a x (I a)) (`_euler`, 39
operations against 60 through Gamma), which needs only
`metric_inverse`, not the table.
"""

import math

import numpy as np

from .codegen import kernel
from .errors import NotSkewError, SingularMetricError

_SMALL_ANGLE = 1e-8
_SKEW_TOL = 1e-12
_ROTATION_TOL = 1e-9
_IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
_METRIC = (9, 9, 27)   # the `codegen` spec of `metric_constants`


def hat(v):
    """Map a 3-vector to its skew-symmetric (cross-product) matrix.

    Satisfies hat(v) @ w == np.cross(v, w) for any w.
    """
    x, y, z = v
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def components(x, rank=1):
    """Scalar components of a rank-``rank`` array or of a stack of them.

    One vector (rank 1) or matrix (rank 2) gives its entries in row-major
    order as Python floats; a stack with a leading sample axis gives one
    (n,) column per entry.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == rank:
        return x.ravel().tolist()
    return np.moveaxis(x.reshape(x.shape[:-rank] + (-1,)), -1, 0)


def from_components(c, shape=(3,)):
    """Array of the given per-sample shape from kernel output components.

    Floats give one sample of that shape, columns an (n,) + shape stack.
    """
    if isinstance(c[0], np.ndarray):
        a = np.stack(c, axis=-1)
        return a.reshape(a.shape[:-1] + shape)
    return np.array(c).reshape(shape)


def _cross(a, b):
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _matvec(m, v):
    """M v."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    v0, v1, v2 = v
    return (m0 * v0 + m1 * v1 + m2 * v2,
            m3 * v0 + m4 * v1 + m5 * v2,
            m6 * v0 + m7 * v1 + m8 * v2)


def _matmul(a, b):
    """A B: `_matvec` of A on each column of B, transposed back to rows."""
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return _transpose(_matvec(a, (b0, b3, b6)) + _matvec(a, (b1, b4, b7))
                      + _matvec(a, (b2, b5, b8)))


def _transpose(m):
    """M^T."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    return m0, m3, m6, m1, m4, m7, m2, m5, m8


def _skew_vee(m):
    """vee(M - M^T)."""
    _, m1, m2, m3, _, m5, m6, m7, _ = m
    return m7 - m5, m2 - m6, m3 - m1


def cross3(a, b):
    """Cross product of two 3-vectors, or row by row of (n, 3) stacks.

    One pair is multiplied out in Python floats: the same arithmetic as
    np.cross without its axis bookkeeping.
    """
    return from_components(_cross(components(a), components(b)))


def skew_vee(m):
    """vee(M - M^T) of a 3x3 matrix, or of each matrix of an (n, 3, 3) stack.

    Twice the vee of the skew part of M; zero exactly for symmetric M.
    """
    return from_components(_skew_vee(components(m, 2)))


def vee(m):
    """Inverse of ``hat``: extract the 3-vector from a skew matrix.

    Entries are read off directly, so ``vee(hat(v)) == v`` bit-exactly.
    ``m`` must be one 3x3 matrix; any other shape raises ValueError
    naming it.

    Raises:
        NotSkewError: if ``m + m.T`` deviates from zero by more than 1e-12.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"vee takes one 3x3 matrix, got shape {m.shape}")
    if np.abs(m + m.T).max() > _SKEW_TOL:
        raise NotSkewError(
            f"matrix is not skew-symmetric within {_SKEW_TOL:g}")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _expm_coeffs(theta2):
    """The Rodrigues coefficients (a, b) = (sin t / t, (1 - cos t) / t^2)
    of the angle t = sqrt(theta2): the exponential's one branch, a
    two-term Taylor series below t = 1e-8 and NaN for an infinite or NaN
    angle."""
    theta = math.sqrt(theta2)
    if theta < _SMALL_ANGLE:
        return 1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0
    if theta < math.inf:
        return math.sin(theta) / theta, (1.0 - math.cos(theta)) / theta2
    return math.nan, math.nan


@kernel(9, None, 3, calls={"_expm_coeffs": 2})
def _mul_expm(r, c, v):
    """Entries of R expm(c v), row-major; see `expm`.  The scale c is
    applied to each entry of v first, then the Rodrigues entries Q of
    expm(c v) are formed from `_expm_coeffs`, then R Q."""
    v0, v1, v2 = v
    x, y, z = c * v0, c * v1, c * v2
    theta2 = x * x + y * y + z * z
    a, b = _expm_coeffs(theta2)
    d = 1.0 - b * theta2
    ax, ay, az = a * x, a * y, a * z
    bxy, byz, bxz = b * x * y, b * y * z, b * x * z
    q = (d + b * x * x, bxy - az, bxz + ay,
         bxy + az, d + b * y * y, byz - ax,
         bxz - ay, byz + ax, d + b * z * z)
    return _matmul(r, q)


def expm(v):
    """Exponential map so(3) -> SO(3) via the Rodrigues formula.

    A two-term Taylor branch below ||v|| < 1e-8 avoids the 0/0 in the
    Rodrigues coefficients.  Assembled entrywise (hat(v)^2 = v v^T - |v|^2)
    to keep the integration hot path cheap.  An infinite or NaN angle, as
    from an overflowed state, gives a NaN matrix, which the integrator's
    finiteness check reports as a divergence.  ``v`` must be one
    3-vector; any other shape raises ValueError naming it.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expm takes one 3-vector, got shape {v.shape}")
    return from_components(_mul_expm(_IDENTITY, 1.0, v.tolist()), (3, 3))


def logm(r):
    """Logarithm map SO(3) -> so(3), returned in vee form.

    The rotation angle comes from atan2 of the skew/symmetric parts, which
    stays well conditioned near 0 and near pi.  So does the axis: for
    angles past pi/2 (cos < 0) it comes from the symmetric part,
    n n^T = (sym(R) - cos I) / (1 - cos), with its sign from the skew
    part, since the skew part sin(theta) n loses its relative precision
    as the angle nears pi.  Output norm is <= pi.  For angles at (or
    numerically indistinguishable from) pi the axis sign is arbitrary;
    either choice is a valid logarithm.
    """
    r = np.asarray(r, dtype=float)
    w = 0.5 * skew_vee(r)
    s = np.linalg.norm(w)                     # == sin(theta) for exact input
    c = 0.5 * (np.trace(r) - 1.0)             # == cos(theta)
    theta = np.arctan2(s, c)
    if c < 0.0:
        nnt = (0.5 * (r + r.T) - c * np.eye(3)) / (1.0 - c)
        j = int(np.argmax(np.diag(nnt)))
        axis = nnt[:, j] / np.linalg.norm(nnt[:, j])
        return theta * (-axis if axis @ w < 0.0 else axis)
    if s > 1e-6:
        return (theta / s) * w
    # Tiny rotation: w already equals sin(theta)*axis ~ theta*axis.
    return w * (1.0 + theta * theta / 6.0)


def metric_inverse(i_metric):
    """Float components of (I, I^{-1}) for the metric ``i_metric``.  The
    one place the metric is inverted; the Euler term (`_euler`) and the
    rotor block solve read nothing else of it.

    Raises:
        SingularMetricError: if ``i_metric`` is not invertible.
    """
    i_metric = np.asarray(i_metric, dtype=float)
    try:
        i_inv = np.linalg.inv(i_metric)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError("metric tensor is singular") from exc
    return components(i_metric, 2), components(i_inv, 2)


def metric_constants(i_metric):
    """Float components of (I, I^{-1}, Gamma) for the metric ``i_metric``:
    `metric_inverse` plus the connection table, for the kernels that read
    the connection.

    Gamma is the Levi-Civita connection of the left-invariant metric
    induced by the SPD tensor ``i_metric``, trivialized to the algebra:

        nabla_a b = 1/2 ( [a, b] - I^{-1} ad*_a (I b) - I^{-1} ad*_b (I a) )

    with [a, b] = a x b and the coadjoint action ad*_a m = m x a, so that
    geodesics satisfy the free rigid-body equation:
    nabla_a a = -I^{-1}((I a) x a), the Euler term (`_euler`).  The
    formula is bilinear, so it is evaluated once on the basis pairs: row
    3 i + j of the (9, 3) table Gamma is nabla_{e_i} e_j.  `_conn_matrix`
    contracts it with a, and applied to b that matrix gives nabla_a b.

    Raises:
        SingularMetricError: if ``i_metric`` is not invertible.
    """
    i_c, i_inv_c = metric_inverse(i_metric)
    i_metric = from_components(i_c, (3, 3))
    i_inv = from_components(i_inv_c, (3, 3))
    # rows a, b run over the basis pairs (e_i, e_j); I and I^{-1} are
    # symmetric, so they act on these row vectors from the right
    a = np.repeat(np.eye(3), 3, axis=0)
    b = np.tile(np.eye(3), (3, 1))
    rhs = cross3(b @ i_metric, a) + cross3(a @ i_metric, b)
    gamma = 0.5 * (cross3(a, b) - rhs @ i_inv)
    return i_c, i_inv_c, components(gamma, 2)


def spd_eigenvalues(m, name):
    """``m`` as a float array and its ascending eigenvalues; a ValueError
    that starts with ``name`` unless ``m`` is a finite 3x3 matrix,
    symmetric within 1e-12 and positive definite."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or not np.isfinite(m).all():
        raise ValueError(f"{name} must be a finite 3x3 matrix")
    if np.abs(m - m.T).max() > 1e-12:
        raise ValueError(f"{name} must be symmetric within 1e-12")
    eig = np.linalg.eigvalsh(m)
    if eig.min() <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    return m, eig


def _conn_matrix(gamma, a):
    """Row-major entries of the matrix of b -> nabla_a b, from the
    components of a `metric_constants` table Gamma: row k is the
    transpose of the 3x3 matrix of the entries Gamma[3 i + j, k] applied
    to a, so entry (k, j) is sum_i Gamma[3 i + j, k] a_i.  One matrix
    serves every b."""
    return sum((_matvec(_transpose(gamma[k::3]), a) for k in range(3)), ())


def _euler(i_metric, i_inv, a):
    """The Euler term nabla_a a = -I^{-1}((I a) x a), in closed form as
    I^{-1}(a x (I a)), from the components of `metric_inverse`."""
    return _matvec(i_inv, _cross(a, _matvec(i_metric, a)))


def connection_term(i_metric, a, b):
    """nabla_a b for the metric ``i_metric``; see `metric_constants`.

    ``a`` and ``b`` are 3-vectors or (n, 3) stacks.
    ``connection_term(I, a, a) == -I^{-1}((I a) x a)``, the Euler term.

    Raises:
        SingularMetricError: if ``i_metric`` is not invertible.
    """
    c_a = _conn_matrix(metric_constants(i_metric)[2], components(a))
    return from_components(_matvec(c_a, components(b)))


def geodesic_distance(r1, r2):
    """Angle of the relative rotation between two attitudes, in [0, pi]."""
    return float(rotation_angle(np.asarray(r1).T @ np.asarray(r2)))


def rotation_angle(r):
    """Rotation angle in [0, pi] (== ||logm(r)||), per matrix of a stack."""
    r = np.asarray(r, dtype=float)
    s = 0.5 * np.linalg.norm(skew_vee(r), axis=-1)
    c = 0.5 * (np.trace(r, axis1=-2, axis2=-1) - 1.0)
    return np.arctan2(s, c)


def orthogonality_defect(r):
    """||R^T R - 1||_F, per matrix of a stack."""
    r = np.asarray(r, dtype=float)
    gram = r.mT @ r - np.eye(3)
    return np.sqrt((gram ** 2).sum(axis=(-2, -1)))


def is_rotation(r):
    """True if ||R^T R - I||_F <= 1e-9 and det(R) > 0: the attitude
    contract of `scenario.BodySetup`."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return False
    return orthogonality_defect(r) <= _ROTATION_TOL and np.linalg.det(r) > 0.0
