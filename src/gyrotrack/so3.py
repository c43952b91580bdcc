"""Exact primitives for the rotation group SO(3) and its Lie algebra so(3).

All functions are pure and operate on plain numpy arrays: vectors are
shape (3,), matrices shape (3, 3).  ``cross3``, ``skew_vee``, the
connection and ``rotation_angle`` also take stacks with a
leading sample axis, (n, 3) and (n, 3, 3), and return row k of the
stacked result equal to the single call on row k; the integrator calls
them one sample at a time and the run post-pass on every stored sample.
Conventions used throughout the package are fixed here:

* ``hat(e3)`` carries +1 at entry (2, 1) (0-based: [1, 0]), i.e. the
  standard right-handed cross-product matrix, ``hat(v) @ w == cross(v, w)``.
* ``adstar(xi, mu) == cross(mu, xi)``, the sign that turns the reduced
  rigid-body equation into the classical Euler equation
  ``I dOmega/dt = (I Omega) x Omega``.  The free-spin conservation tests
  pin this choice.
"""

import math

import numpy as np

from .errors import DegenerateMatrixError, NotSkewError, SingularMetricError

_SMALL_ANGLE = 1e-8
_SKEW_TOL = 1e-12


def hat(v):
    """Map a 3-vector to its skew-symmetric (cross-product) matrix.

    Satisfies hat(v) @ w == np.cross(v, w) for any w.
    """
    x, y, z = v
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def cross3(a, b):
    """Cross product of two 3-vector arrays, or row by row of (n, 3) stacks.

    Both arguments must be numpy arrays; wrap sequences in np.asarray.

    A single pair is multiplied out in Python floats: the same arithmetic
    as np.cross without its axis bookkeeping, which would dominate the
    integration hot path.
    """
    if a.ndim + b.ndim > 2:
        return np.cross(a, b)
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def skew_vee(m):
    """vee(M - M^T) of a 3x3 matrix, or of each matrix of an (n, 3, 3) stack.

    Twice the vee of the skew part of M; zero exactly for symmetric M.
    ``m`` must be a numpy array.
    """
    if m.ndim == 2:
        (_, m01, m02), (m10, _, m12), (m20, m21, _) = m.tolist()
        return np.array([m21 - m12, m02 - m20, m10 - m01])
    return np.stack([m[..., 2, 1] - m[..., 1, 2],
                     m[..., 0, 2] - m[..., 2, 0],
                     m[..., 1, 0] - m[..., 0, 1]], axis=-1)


def vee(m):
    """Inverse of ``hat``: extract the 3-vector from a skew matrix.

    Entries are read off directly, so ``vee(hat(v)) == v`` bit-exactly.

    Raises:
        NotSkewError: if ``m + m.T`` deviates from zero by more than 1e-12.
    """
    m = np.asarray(m, dtype=float)
    if np.abs(m + m.T).max() > _SKEW_TOL:
        raise NotSkewError(
            f"matrix is not skew-symmetric within {_SKEW_TOL:g}")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def expm(v):
    """Exponential map so(3) -> SO(3) via the Rodrigues formula.

    A two-term Taylor branch below ||v|| < 1e-8 avoids the 0/0 in the
    Rodrigues coefficients.  Assembled entrywise (hat(v)^2 = v v^T - |v|^2)
    to keep the integration hot path cheap.  An infinite or NaN angle, as
    from an overflowed state, gives a NaN matrix, which the integrator's
    finiteness check reports as a divergence.
    """
    x, y, z = v.tolist() if isinstance(v, np.ndarray) else \
        (float(v[0]), float(v[1]), float(v[2]))
    theta2 = x * x + y * y + z * z
    theta = math.sqrt(theta2)
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    elif theta < math.inf:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta2
    else:
        a = b = math.nan
    d = 1.0 - b * theta2
    ax, ay, az = a * x, a * y, a * z
    bxy, byz, bxz = b * x * y, b * y * z, b * x * z
    return np.array([
        [d + b * x * x, bxy - az, bxz + ay],
        [bxy + az, d + b * y * y, byz - ax],
        [bxz - ay, byz + ax, d + b * z * z],
    ])


def logm(r):
    """Logarithm map SO(3) -> so(3), returned in vee form.

    The rotation angle comes from atan2 of the skew/symmetric parts, which
    stays well conditioned near 0 and near pi.  Output norm is <= pi.
    For angles at (or numerically indistinguishable from) pi the axis sign
    is arbitrary; either choice is a valid logarithm.
    """
    r = np.asarray(r, dtype=float)
    w = 0.5 * skew_vee(r)
    s = np.linalg.norm(w)                     # == sin(theta) for exact input
    c = 0.5 * (np.trace(r) - 1.0)             # == cos(theta)
    theta = np.arctan2(s, c)
    if s > 1e-6:
        return (theta / s) * w
    if c > 0.0:
        # Tiny rotation: w already equals sin(theta)*axis ~ theta*axis.
        return w * (1.0 + theta * theta / 6.0)
    # Angle near pi: recover the axis from the symmetric part,
    # n n^T = (sym(R) - cos(theta) I) / (1 - cos(theta)).
    nnt = (0.5 * (r + r.T) - c * np.eye(3)) / (1.0 - c)
    j = int(np.argmax(np.diag(nnt)))
    axis = nnt[:, j]
    axis = axis / np.linalg.norm(axis)
    if s > 0.0 and axis @ w < 0.0:
        axis = -axis
    return theta * axis


def project_so3(m):
    """Project a near-rotation matrix onto SO(3) (orthogonal polar factor).

    Used to repair orthogonality drift accumulated by the integrator.
    Idempotent on members of SO(3).

    Raises:
        DegenerateMatrixError: if a singular value falls below 1e-12 or the
            input has non-positive determinant.
    """
    u, sv, vt = np.linalg.svd(np.asarray(m, dtype=float))
    if sv[-1] < 1e-12:
        raise DegenerateMatrixError("matrix is numerically rank deficient")
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        raise DegenerateMatrixError("input has negative determinant")
    return r


def adstar(xi, mu):
    """Coadjoint action ad*_xi mu on so(3)* ~ R^3.

    Sign convention: ad*_xi mu = mu x xi, so the forced Euler-Poincare
    equation reads I dOmega/dt = (I Omega) x Omega + torque.
    """
    return np.cross(mu, xi)


def connection_tensor(i_metric):
    """Levi-Civita connection of the left-invariant metric, trivialized.

    For the metric induced by an SPD tensor ``i_metric`` the connection on
    the algebra is

        nabla_a b = 1/2 ( [a, b] - I^{-1} ad*_a (I b) - I^{-1} ad*_b (I a) )

    so that geodesics satisfy the free rigid-body equation:
    nabla_a a = -I^{-1}((I a) x a), the Euler term.  The formula is
    bilinear, so it is evaluated once on the basis pairs: row 3 i + j of
    the returned (9, 3) table is nabla_{e_i} e_j.  `apply_connection`
    extends it to any a, b.

    Raises:
        SingularMetricError: if ``i_metric`` is not invertible.
    """
    i_metric = np.asarray(i_metric, dtype=float)
    try:
        i_inv = np.linalg.inv(i_metric)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError("metric tensor is singular") from exc
    # rows a, b run over the basis pairs (e_i, e_j); I and I^{-1} are
    # symmetric, so they act on these row vectors from the right
    a = np.repeat(np.eye(3), 3, axis=0)
    b = np.tile(np.eye(3), (3, 1))
    rhs = cross3(b @ i_metric, a) + cross3(a @ i_metric, b)
    return 0.5 * (cross3(a, b) - rhs @ i_inv)


def apply_connection(gamma, a, b):
    """nabla_a b from a `connection_tensor` table ``gamma``.

    ``a`` and ``b`` are 3-vector arrays or (n, 3) stacks; callers on a hot
    path build ``gamma`` once.
    """
    outer = a[..., :, None] * b[..., None, :]
    return outer.reshape(outer.shape[:-2] + (9,)).dot(gamma)


def connection_term(i_metric, a, b):
    """nabla_a b for the metric ``i_metric``; see `connection_tensor`.

    ``connection_term(I, a, a) == -I^{-1}((I a) x a)``, the Euler term.

    Raises:
        SingularMetricError: if ``i_metric`` is not invertible.
    """
    return apply_connection(connection_tensor(i_metric),
                            np.asarray(a, dtype=float),
                            np.asarray(b, dtype=float))


def geodesic_distance(r1, r2):
    """Angle of the relative rotation between two attitudes, in [0, pi]."""
    return float(np.linalg.norm(logm(np.asarray(r1).T @ np.asarray(r2))))


def rotation_angle(r):
    """Rotation angle in [0, pi] (== ||logm(r)||), per matrix of a stack."""
    r = np.asarray(r, dtype=float)
    s = 0.5 * np.linalg.norm(skew_vee(r), axis=-1)
    c = 0.5 * (np.trace(r, axis1=-2, axis2=-1) - 1.0)
    return np.arctan2(s, c)


def is_rotation(r, tol=1e-9):
    """True if ||R^T R - I||_F <= tol and det(R) > 0."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return False
    return (np.linalg.norm(r.T @ r - np.eye(3)) <= tol
            and np.linalg.det(r) > 0.0)
