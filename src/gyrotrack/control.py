"""Tracking control on SO(3) with proportional, derivative and integral action.

The controller drives a fully actuated rigid body (metric given by its
inertia tensor I) toward a moving reference attitude from almost every
initial condition.  The error rotation is E = R_d R^T with left-trivialized
error velocity eta = R (Omega_d - Omega).  The commanded body-frame
acceleration is

    u = dOmega_d + Omega x Omega_d - I^{-1}((I Omega) x Omega) + R^T fb,
    fb = k_p grad + k_d eta + k_I xi_I + conn(eta, eta),

where grad = I^{-1} dpsi(E), dpsi is the differential of the navigation
function psi(E) = trace(P (1 - E)) and conn is the trivialized
Levi-Civita connection of the I metric.  With this u and the integral
state's rate xi_dot = grad - conn(eta, xi_I), the closed-loop error obeys

    dE/dt = E hat(eta),   d(eta)/dt = -fb,   d(xi_I)/dt = xi_dot,

an autonomous flow (`error_field`) of I, P and the gains alone.
Covariantly, d(eta)/dt = -k_p grad - k_d eta - k_I xi_I: a dissipative
system whose energy function `ecl_value` decreases at a rate bounded by
the quadratic form of `q_matrix` whenever the gains satisfy the
inequalities checked by `gain_feasible`.

Each per-sample formula of the law is a componentwise kernel
(`_error`, `_dpsi`, `_feedback`, `_loop_kernel`, `_uint`; see the `so3`
module docstring): it runs on Python floats for one sample, which is how
the integrator's vector field calls it, and on (n,) sample columns for a
stack, which is how the run post-pass calls it.  `_feedback` is the one
formula of fb and xi_dot; `_loop_kernel` adds the feed-forward and the
Euler term (in closed form, `so3._euler`).  Each is a composition of
the `so3` primitives; `_feedback`, `_loop_kernel` and `_uint`, which
the vector fields call once per evaluation, run as straight-line code
generated from it (`codegen.kernel`).  Arrays appear only at the
adapters (`error_state`, `nav_dpsi`, `control_uext`, `control_uint`),
which unpack their arguments, call the kernel and pack the result; the
metric's constants come from `so3.metric_constants`.
The functions of psi take the weights P as a 3x3 matrix
(`NavigationWeights.P`).

The same behavior is realized on the rotor-driven plant by converting the
realized torque through `control_uint`; torques applied to the rotors are
internal, so the plant's spatial angular momentum stays conserved while it
tracks.

Sign and frame choices in the torque expression are pinned by four
oracles in the test suite: a plant started exactly on the reference stays
on it (feed-forward), the rotor plant under `control_uint` reproduces the
externally actuated closed loop in (R, Omega), the error of a run is
`error_field` integrated alone from the run's initial error, and the
energy decrease bound holds along certified trajectories.
"""

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .codegen import kernel
from .dynamics import _CONSTANTS, kernel_constants
from .errors import GainSynthesisError, KappaOutOfRangeError
from .so3 import (_METRIC, _conn_matrix, _cross, _euler, _matmul, _matvec,
                  _skew_vee, _transpose, components, from_components,
                  metric_constants, metric_inverse, spd_eigenvalues)

# Certification constants used by the bundled benchmark gain set (k_p, k_d,
# k_I) = (1, 3, 1).  The Hessian-bound constant does not match
# `mu_hess_formula` for any SPD inertia (the formula is >= 4); both values
# are reported by the tuning commands, the benchmark one is kept verbatim.
BENCHMARK_MU_HESS = 2.0048
BENCHMARK_LAMBDA_SUP = 1.42


@dataclass(frozen=True)
class NavigationWeights:
    """SPD weight matrix P of the navigation function psi(E) = tr(P(1-E)).

    Repeated eigenvalues produce a degenerate critical set (a continuum of
    maxima), which weakens the almost-global convergence guarantee; a
    warning is emitted in that case but the weights remain usable.
    """

    P: np.ndarray

    def __init__(self, P):
        P, eig = spd_eigenvalues(P, "P")
        gaps = np.diff(eig)
        if np.any(gaps <= 1e-9 * max(1.0, eig.max())):
            warnings.warn(
                "navigation weights have repeated eigenvalues; critical "
                "points are degenerate, distinct values recommended",
                stacklevel=2)
        object.__setattr__(self, "P", P)


@dataclass(frozen=True)
class GainSet:
    """PID gains plus the bounds that certify them.

    The six fields are what a user chooses; alpha, beta, tau, delta and
    sigma are read-only views fixed by the gain-selection calculus, so
    ``dataclasses.replace`` keeps them consistent: alpha = beta/k_d,
    beta = k_I/k_d, tau = k_p beta + alpha k_I (the cross-term weights of
    `ecl_value`), delta = 2 kappa k_I, sigma = 2 - mu_hess*kappa with kappa
    constrained to (1/mu_hess, 2/mu_hess).  mu_hess bounds the
    navigation-function Hessian on the certified region; lambda_sup bounds
    <grad psi, grad psi>/(2 psi) there.  kp_floor_q = 2 kappa k_d^2 and
    ki_bound = (k_d^3/mu_hess)(1 - sigma^2) are the k_p floor and k_I
    bound of the gain inequalities (`q_matrix`, `gain_feasible`).
    """

    kp: float
    kd: float
    ki: float
    kappa: float
    mu_hess: float
    lambda_sup: float

    # read-only views, in the order the calculus derives them
    beta = property(lambda g: g.ki / g.kd)
    alpha = property(lambda g: g.beta / g.kd)
    tau = property(lambda g: g.kp * g.beta + g.alpha * g.ki)
    delta = property(lambda g: 2.0 * g.kappa * g.ki)
    sigma = property(lambda g: 2.0 - g.mu_hess * g.kappa)
    kp_floor_q = property(lambda g: 2.0 * g.kappa * g.kd ** 2)
    ki_bound = property(lambda g: (g.kd ** 3 / g.mu_hess) * (1.0 - g.sigma ** 2))


def _default_kappa(mu_hess):
    """Mid-(1/mu_hess, 2/mu_hess), the kappa when none is given; or NaN."""
    return 1.5 / mu_hess if mu_hess > 0.0 else math.nan


def gain_derive(kp, kd, ki, kappa, mu_hess, lambda_sup=BENCHMARK_LAMBDA_SUP):
    """Check a gain triple with its certification inputs; a `GainSet`.

    Raises:
        KappaOutOfRangeError: unless 1/mu_hess < kappa < 2/mu_hess (open).
        ValueError: for a non-finite input or a non-positive gain or bound,
            with a message that starts with the input's name, or when a
            quantity of the certificate (the derived constants,
            `gain_feasible`, `q_matrix`) leaves the float range.
    """
    inputs = {"kp": kp, "kd": kd, "ki": ki, "mu_hess": mu_hess,
              "lambda_sup": lambda_sup, "kappa": kappa}
    for name, value in inputs.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if name != "kappa" and value <= 0.0:
            raise ValueError(f"{name} must be positive")
    if not (1.0 / mu_hess < kappa < 2.0 / mu_hess):
        raise KappaOutOfRangeError(
            f"kappa {kappa:g} outside open interval "
            f"({1.0 / mu_hess:g}, {2.0 / mu_hess:g})")
    g = GainSet(**{name: float(value) for name, value in inputs.items()})
    try:   # float ** raises OverflowError; 0 from ** underflow divides
        verdict = gain_feasible(g)
        certificate = [g.alpha, g.beta, g.tau, g.delta, g.sigma,
                       verdict.kp_floor_any_kappa,
                       *q_matrix(g).ravel().tolist()]
        certificate += [x for lhs, rhs, _ in verdict.checks.values()
                        for x in (lhs, rhs)]
    except OverflowError:
        certificate = [math.inf]
    except ZeroDivisionError:
        raise ValueError("gain certificate underflows the float range")
    if not all(map(math.isfinite, certificate)):
        raise ValueError("gain certificate overflows the float range")
    return g


def pd_variant(gains):
    """Same proportional/derivative action with the integral channel removed.

    Used as the comparison baseline in control-effort studies.  The derived
    energy constants other than sigma collapse to zero; the result is not
    certifiable.
    """
    return dataclasses.replace(gains, ki=0.0)


# ---------------------------------------------------------------------------
# navigation function and configuration error
# ---------------------------------------------------------------------------

def nav_psi(p, e):
    """Navigation function psi(E) = trace(P (1 - E)), per matrix of a stack.

    Nonnegative on SO(3) for SPD P, zero exactly at E = identity.
    """
    return np.trace(p) - np.einsum("ij,...ji->...", p, np.asarray(e, dtype=float))


def _dpsi(p_mat, e):
    """Trivialized differential of psi: vee(PE - (PE)^T).

    d/dt psi(E expm(t v))|_0 = <_dpsi(P, E), v>; vanishes at critical points.
    """
    return _skew_vee(_matmul(p_mat, e))


def nav_dpsi(p, e):
    """`_dpsi` of one rotation or of each of a stack; its scale is pinned
    by the finite-difference tests."""
    return from_components(_dpsi(components(p, 2), components(e, 2)))


def _error(r, omega, r_d, omega_d):
    """E = R_d R^T and eta = R (Omega_d - Omega)."""
    slip = [d - w for d, w in zip(omega_d, omega)]
    return _matmul(r_d, _transpose(r)), _matvec(r, slip)


def error_state(r, omega, r_d, omega_d):
    """Configuration error and left-trivialized error velocity.

    E = R_d R^T and eta = R (Omega_d - Omega), the closed form of
    vee(E^{-1} dE/dt) for the attitude kinematics dR = R hat(Omega).
    Arguments may carry a leading sample axis.
    """
    e, eta = _error(components(r, 2), components(omega),
                    components(r_d, 2), components(omega_d))
    return from_components(e, (3, 3)), from_components(eta)


# ---------------------------------------------------------------------------
# the feedback, its error flow and the tracking laws
# ---------------------------------------------------------------------------

@kernel(_METRIC, 9, "kp kd ki", 9, 3, 3)
def _feedback(metric, p_mat, gains, e, eta, xi_i):
    """(fb, xi_dot) of the module docstring, with the connection matrix
    C(eta) (`so3._conn_matrix`) formed once for both; ``metric`` is the
    (I, I^{-1}, Gamma) of `so3.metric_constants`."""
    _, i_inv, gamma = metric
    c_eta = _conn_matrix(gamma, eta)
    grad = _matvec(i_inv, _dpsi(p_mat, e))
    fb = (gains.kp * g + gains.kd * v + gains.ki * x + n for g, v, x, n
          in zip(grad, eta, xi_i, _matvec(c_eta, eta)))
    return tuple(fb), tuple(g - n for g, n in zip(grad,
                                                  _matvec(c_eta, xi_i)))


def error_field(i_metric, p, gains):
    """The closed-loop error flow as a vector field for
    `integrators.integrate_components`, ``field(t, E, vec) -> (eta,
    rates)``: the attitude E moves with body velocity eta, and the vector
    state eta 0:3 | xi_I 3:6 with rates (-fb, xi_dot) of `_feedback`.
    Any run of the tracking law moves its (E, eta, xi_I) by this flow.

    Raises:
        SingularMetricError: if ``i_metric`` is not invertible.
    """
    metric = metric_constants(i_metric)
    p_mat = components(p, 2)

    def field(t, r, vec):
        e0, e1, e2, x0, x1, x2 = vec
        (f0, f1, f2), xi_dot = _feedback(metric, p_mat, gains, r,
                                         (e0, e1, e2), (x0, x1, x2))
        return (e0, e1, e2), (-f0, -f1, -f2, *xi_dot)
    return field


@kernel(_METRIC, 9, "kp kd ki", 9, 3, 9, 3, 3, 3)
def _loop_kernel(metric, p_mat, gains, r, omega, r_d, omega_d,
                 omega_d_dot, xi_i):
    """Commanded acceleration u, the carrier torque I u that realizes it
    and the integral-state rate, componentwise: `_error`, then
    `_feedback`, then u of the module docstring.

    ``metric`` is the (I, I^{-1}, Gamma) of `so3.metric_constants` and
    ``p_mat`` the components of the weights, precomputed by the caller;
    the state arguments are components of one sample (floats, the
    integrator's hot path) or of a stack (columns, the run post-pass).
    """
    e, eta = _error(r, omega, r_d, omega_d)
    fb, xi_dot = _feedback(metric, p_mat, gains, e, eta, xi_i)
    u = tuple(a + w + n + f for a, w, n, f in zip(
        omega_d_dot, _cross(omega, omega_d),
        _euler(metric[0], metric[1], omega), _matvec(_transpose(r), fb)))
    return u, _matvec(metric[0], u), xi_dot


def control_uext(i_metric, p, gains, r, omega, r_d, omega_d, omega_d_dot, xi_i):
    """Tracking control for the externally actuated body: the command u
    (rad/s^2) of the module docstring, entering
    dOmega = I^{-1}((I Omega) x Omega) + u; the physical torque realized on
    the body is I @ u, the second output of `_loop_kernel`."""
    u = _loop_kernel(metric_constants(i_metric), components(p, 2), gains,
                     components(r, 2), components(omega),
                     components(r_d, 2), components(omega_d),
                     components(omega_d_dot), components(xi_i))[0]
    return from_components(u)


@kernel(_CONSTANTS, 3, 3, 3)
def _uint(consts, u_ext, omega, omega_r):
    """u_int = -u_ext + K (Omega + OmegaR) x Omega; ``consts`` from
    `dynamics.kernel_constants`."""
    spin = [k * (w + r) for k, w, r in zip(consts[1], omega, omega_r)]
    return tuple(c - u for c, u in zip(_cross(spin, omega), u_ext))


def control_uint(params, u_ext, omega, omega_r):
    """Rotor torque realizing a commanded carrier-body torque.

    ``u_ext`` is the torque (N·m) to be realized on the carrier body; for
    the algebra-valued command of `control_uext` pass I @ u.  Driving the
    rotor plant with the returned u_int reproduces the externally actuated
    closed loop in (R, Omega):

        u_int = -u_ext + K (Omega + OmegaR) x Omega
    """
    return from_components(_uint(kernel_constants(params), components(u_ext),
                                 components(omega), components(omega_r)))


# ---------------------------------------------------------------------------
# energy function and decay bound
# ---------------------------------------------------------------------------

def ecl_value(p_metric, p, gains, e, eta, xi):
    """Closed-loop energy: kinetic + k_p psi + weighted cross terms.

    With inner products <a, b> = a^T I b and grad = I^{-1} dpsi:

        E = 1/2 <eta, eta> + k_p psi(E) + tau/2 <xi, xi>
            + alpha <grad, eta> + beta <xi, eta> + delta <grad, xi>

    Positive definite on the certified region when `gain_feasible` holds;
    zero exactly at (identity, 0, 0).  The error rotation E, error
    velocity eta and integral state xi may carry a leading sample axis,
    (n, 3, 3) and (n, 3), giving one value per sample.
    """
    i = np.asarray(p_metric, dtype=float)
    eta, xi = np.asarray(eta, dtype=float), np.asarray(xi, dtype=float)
    dpsi = nav_dpsi(p, e)
    i_eta = eta @ i
    # <grad, eta> = dpsi^T eta and <grad, xi> = dpsi^T xi since I^{-1} I = 1.
    return (0.5 * np.vecdot(eta, i_eta)
            + gains.kp * nav_psi(p, e)
            + 0.5 * gains.tau * np.vecdot(xi, xi @ i)
            + gains.alpha * np.vecdot(dpsi, eta)
            + gains.beta * np.vecdot(xi, i_eta)
            + gains.delta * np.vecdot(dpsi, xi))


def ecl_rate_bound(p_metric, p, gains, e, eta, xi):
    """Upper bound -v Q v^T on the energy decay rate.

    v collects the metric norms (||eta||, ||grad psi||, ||xi_I||); Q is the
    symmetric matrix of `q_matrix`.  Valid as a bound inside the region
    where the Hessian bound mu_hess holds.  Arguments as for `ecl_value`.
    """
    i = np.asarray(p_metric, dtype=float)
    i_inv = from_components(metric_inverse(i)[1], (3, 3))
    dpsi = nav_dpsi(p, e)
    eta, xi = np.asarray(eta, dtype=float), np.asarray(xi, dtype=float)
    v = np.sqrt(np.stack([np.vecdot(eta, eta @ i),
                          np.vecdot(dpsi, dpsi @ i_inv),
                          np.vecdot(xi, xi @ i)], axis=-1))
    return -np.vecdot(v, v @ q_matrix(gains))


def q_matrix(gains):
    """Symmetric matrix bounding the energy decay rate.

        Q11 = k_d - mu k_I / k_d^2      Q13 = Q31 = -sigma k_I
        Q22 = (k_I/k_d^2)(k_p - 2 kappa k_d^2)
        Q33 = k_I^2 / k_d               all other entries zero

    Positive definite iff k_p > 2 kappa k_d^2 and
    0 < k_I < (k_d^3/mu)(1 - sigma^2).
    """
    g = gains
    q = np.zeros((3, 3))
    q[0, 0] = g.kd - g.mu_hess * g.ki / g.kd ** 2
    q[1, 1] = (g.ki / g.kd ** 2) * (g.kp - g.kp_floor_q)
    q[2, 2] = g.ki ** 2 / g.kd
    q[0, 2] = q[2, 0] = -g.sigma * g.ki
    return q


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the gain inequalities for ``gains``.

    checks maps a label to (lhs, rhs, ok) with the convention lhs > rhs;
    the rest are read-only views of the two fields: feasible (every check
    ok), kp_floor (the larger of the two k_p floors of checks), ki_bound
    (`GainSet.ki_bound`) and kp_floor_any_kappa = 2 k_d^2 / mu_hess, the
    infimum of the k_p floor over admissible kappa; k_p below it fails
    for every kappa choice.
    """

    gains: GainSet
    checks: dict

    feasible = property(lambda v: all(ok for _, _, ok in v.checks.values()))
    kp_floor = property(lambda v: max(v.checks["kp_gt_2_kappa_kd2"][1],
                                      v.checks["kp_gt_positivity_floor"][1]))
    ki_bound = property(lambda v: v.gains.ki_bound)
    kp_floor_any_kappa = property(
        lambda v: 2.0 * v.gains.kd ** 2 / v.gains.mu_hess)


def gain_feasible(gains):
    """The checks of both certification inequalities for a derived
    GainSet, as a `FeasibilityVerdict`.

    feasible requires k_p above 2 kappa k_d^2 and above the positivity
    floor

        (lambda k_I^2 / 2 k_d^4) (1 + sqrt(1 + 4 k_d^3 (k_I^2 + 4 kappa^2
        k_d^6) / (lambda k_I^3)))

    (0 when k_I = 0), together with 0 < k_I < (k_d^3/mu)(1 - sigma^2).
    """
    g = gains
    floor_q, ki_bound = g.kp_floor_q, g.ki_bound
    if g.ki > 0.0:
        inner = 1.0 + 4.0 * g.kd ** 3 * (g.ki ** 2 + 4.0 * g.kappa ** 2 * g.kd ** 6) \
            / (g.lambda_sup * g.ki ** 3)
        floor_pos = (g.lambda_sup * g.ki ** 2 / (2.0 * g.kd ** 4)) \
            * (1.0 + math.sqrt(inner))
    else:
        floor_pos = 0.0
    return FeasibilityVerdict(g, {
        "kp_gt_2_kappa_kd2": (g.kp, floor_q, g.kp > floor_q),
        "kp_gt_positivity_floor": (g.kp, floor_pos, g.kp > floor_pos),
        "ki_gt_zero": (g.ki, 0.0, g.ki > 0.0),
        "ki_lt_bound": (ki_bound, g.ki, g.ki < ki_bound),
    })


# ---------------------------------------------------------------------------
# certification inputs
# ---------------------------------------------------------------------------

def mu_hess_formula(i_metric):
    """Eigenvalue expression 2 (l_min + l_max) / l_min for the Hessian bound.

    Always >= 4 for SPD input (inf past the float range).
    """
    eig = np.linalg.eigvalsh(np.asarray(i_metric, dtype=float))
    with np.errstate(all="ignore"):
        return float(2.0 * (eig[0] + eig[-1]) / eig[0])


def lambda_sup_formula(i_metric):
    """Eigenvalue expression 2 l_max / l_min^2 for the gradient-ratio
    bound; 0, inf or NaN when a term leaves the float range."""
    eig = np.linalg.eigvalsh(np.asarray(i_metric, dtype=float))
    with np.errstate(all="ignore"):
        return float(2.0 * eig[-1] / eig[0] ** 2)


def nav_hessian(p, i_metric, e):
    """Covariant Hessian of psi at E, trivialized, as a symmetric 3x3 form.

    Hess(v, w) = d/dt [dpsi(E expm(t v)) . w] - dpsi(E) . conn(v, w),
    with the first term's derivative vee(PE hat(v) - (PE hat(v))^T) =
    (tr(PE) 1 - (PE)^T) v, so that its form is tr(PE) 1 - PE.  At E = 1
    the Hessian is tr(P) 1 - P exactly, as dpsi(1) is zero.  E may be a
    stack of rotations, giving an (n, 3, 3) stack of forms.
    """
    pe = p @ np.asarray(e, dtype=float)
    h1 = np.trace(pe, axis1=-2, axis2=-1)[..., None, None] * np.eye(3) - pe
    # conn[v, w] = conn(e_v, e_w), the metric's connection table
    conn = np.reshape(metric_constants(i_metric)[2], (3, 3, 3))
    h = h1 - np.einsum("...k,vwk->...vw", nav_dpsi(p, e), conn)
    return 0.5 * (h + h.mT)


def _metric_spectrum(i_metric, h):
    """Eigenvalues of a symmetric form relative to the metric, per form.

    The spectrum of I^{-1} H, taken as eigvalsh(I^{-1/2} H I^{-1/2}) so
    that it stays symmetric and accepts a stack of forms.
    """
    evals, evecs = np.linalg.eigh(np.asarray(i_metric, dtype=float))
    i_mhalf = (evecs * evals ** -0.5) @ evecs.T
    return np.linalg.eigvalsh(i_mhalf @ h @ i_mhalf)


def synthesize_gains(i_metric, kd=3.0):
    """Produce a certified GainSet for a given metric (carrier inertia).

    The bounds mu_hess and lambda_sup are the eigenvalue formulas of
    ``i_metric``.  Fixed placement: kappa halfway along (1/mu_hess,
    2/mu_hess), k_I at 0.2 of `GainSet.ki_bound`, k_p at 1.1 times its
    floor.  Raises GainSynthesisError when a bound, a gain or its
    certificate leaves the float range, or the result fails to certify.
    """
    mu_hess = mu_hess_formula(i_metric)
    bounds = (_default_kappa(mu_hess), mu_hess, lambda_sup_formula(i_metric))
    try:
        ki = 0.2 * gain_derive(1.0, kd, 1.0, *bounds).ki_bound
        kp = 1.1 * gain_feasible(gain_derive(1.0, kd, ki, *bounds)).kp_floor
        gains = gain_derive(kp, kd, ki, *bounds)
    except ValueError as exc:
        raise GainSynthesisError(
            f"cannot synthesize gains for this inertia: {exc}") from None
    if not gain_feasible(gains).feasible:
        raise GainSynthesisError("synthesized gains fail to certify")
    return gains
