"""End-to-end tracking experiments.

A scenario pairs a rotor-driven plant with a reference attitude produced
by a second ("dummy") rotor body flying under a chosen torque program.
Both bodies move by one rate, (dTheta, dOmega, dOmegaR) = (OmegaR, the
block solve `rotor_accels`).  The reference never depends on the plant,
so a run integrates it on its own and streams it to the plant's
integration 16 steps at a time: the values of R_d, Omega_d and dOmega_d
at every stage of those steps, which the controller reads as they are,
never interpolated, and then the rows the steps made.
A run is a generator of blocks (`closed_loop_blocks`) that no process
holds whole, each row the plant's integrator row and then the
reference's: the bits of the two bodies integrated as one state, checked
once for a non-finite entry where the two halves meet.  The
integrators call their fields, `_rotor_field` and `_plant_loop`, on
floats; the post-pass, `block_records`, calls each once on its body's
columns, so the reported torques are the ones that drove the plant.

Because the control torques are internal, any admissible reference must
carry the same spatial angular momentum as the plant; `consistent_rotor_velocity`
computes the dummy body's initial rotor rates that put it on the plant's
momentum level set.

The bundled benchmark parameter set (`benchmark_config`) exercises three
reference torque programs: zero, constant (0.2, 0.1, 0.2) N·m, and the
sinusoid (sin t, cos t, sin t) N·m.
"""

import contextlib
import dataclasses
import math
import struct
import warnings
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .control import (GainSet, NavigationWeights, _error, _loop_kernel,
                      _metric_spectrum, _uint, ecl_value,
                      error_state, gain_derive, nav_hessian, nav_psi,
                      pd_variant, synthesize_gains, BENCHMARK_MU_HESS,
                      BENCHMARK_LAMBDA_SUP)
# the componentwise block solve (its generated form, `codegen`) under
# its array adapter's public name: the fields call it through this
# binding, as they call `_loop_kernel`, so a tracer that wraps the two
# bindings counts each call
from .dynamics import (InertiaParams, _external_accel, _momentum,
                       kernel_constants, momentum_body, momentum_spatial)
from .dynamics import _rotor_accels as rotor_accels
from .integrators import IntegratorConfig, _blocks, _step, checked
from .so3 import (_matvec, components, from_components, is_rotation,
                  metric_constants, orthogonality_defect, rotation_angle)
from .stream import child


PROGRAM_KINDS = ("zero", "constant", "sinusoid")


@dataclass(frozen=True)
class ReferenceProgram:
    """Torque program driving the reference body's rotors.

    One formula, tau(t) = a_c + a_s * (sin t, cos t, sin t), whose
    coefficients follow from ``kind``: "zero" has a_c = a_s = 0,
    "constant" a_c = amplitude, "sinusoid" a_s = amplitude.  ``kind`` is
    otherwise only the label a config carries.
    """

    kind: str = "zero"
    amplitude: np.ndarray = None

    def __post_init__(self):
        if self.kind not in PROGRAM_KINDS:
            raise ValueError(f"unknown program kind '{self.kind}'")
        amp = np.zeros(3) if self.amplitude is None \
            else np.asarray(self.amplitude, dtype=float)
        if amp.shape != (3,) or not np.isfinite(amp).all():
            raise ValueError("amplitude must be a finite 3-vector")
        object.__setattr__(self, "amplitude", amp)
        # signed zeros as in a_s * s alone (-0.0 + x is x for every float)
        # and in a_c + 0.0 (a -0.0 amplitude entry becomes 0.0)
        a_c = {"zero": (0.0, 0.0, 0.0), "sinusoid": (-0.0, -0.0, -0.0),
               "constant": tuple((amp + 0.0).tolist())}[self.kind]
        a_s = tuple(amp.tolist()) if self.kind == "sinusoid" \
            else (0.0, 0.0, 0.0)
        object.__setattr__(self, "a_c", a_c)
        object.__setattr__(self, "a_s", a_s)

    def _torque(self, t):
        """Torque components at t: floats for a float t, columns for an
        array of times."""
        if isinstance(t, np.ndarray):
            s, c = np.sin(t), np.cos(t)
        else:
            s, c = math.sin(t), math.cos(t)
        (c0, c1, c2), (s0, s1, s2) = self.a_c, self.a_s
        return c0 + s0 * s, c1 + s1 * c, c2 + s2 * s

    def torque(self, t):
        """Torque (N·m) at time t, shape (3,), or at each time of a grid,
        shape (len(t), 3)."""
        t = np.asarray(t, dtype=float)
        return from_components(self._torque(t if t.ndim else t.item()))


@dataclass(frozen=True)
class BodySetup:
    """Inertia parameters plus initial conditions for one rotor body.

    R0 must be a rotation within 1e-9 (`so3.is_rotation`), and Omega0,
    OmegaR0 and Theta0 finite 3-vectors, else ValueError, whose message
    starts with the field's name for the last three.  OmegaR0 may be
    None on the reference body, meaning "derive from the plant's momentum
    level set"; Theta0 None means zero.
    """

    params: InertiaParams
    R0: np.ndarray
    Omega0: np.ndarray
    OmegaR0: np.ndarray = None
    Theta0: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "R0", np.asarray(self.R0, dtype=float))
        if not is_rotation(self.R0):
            raise ValueError("not a rotation matrix within 1e-9")
        if self.Theta0 is None:
            object.__setattr__(self, "Theta0", np.zeros(3))
        for name in ("Omega0", "OmegaR0", "Theta0"):
            v = getattr(self, name)
            if name == "OmegaR0" and v is None:
                continue
            v = np.asarray(v, dtype=float)
            if v.shape != (3,) or not np.isfinite(v).all():
                raise ValueError(f"{name} must be a finite 3-vector")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class ScenarioConfig:
    """One tracking experiment: the plant, the reference ("dummy") body
    with its torque program, the navigation weights P, the PID gains and
    the integrator settings.  `config.load_config` reads one from a file;
    `benchmark_config` builds the bundled ones.
    """

    plant: BodySetup
    reference: BodySetup
    program: ReferenceProgram
    weights: NavigationWeights
    gains: GainSet
    integrator: IntegratorConfig


@dataclass
class ClosedLoopTrajectory:
    """Plant + reference trajectories with per-sample control records.

    ``rows`` are the run's samples as `closed_loop_blocks` yields them;
    R, Theta, Omega, OmegaR, xi_I, R_d, Theta_d, Omega_d and OmegaR_d are
    read-only views of their columns, in the order a row holds them.
    """

    times: np.ndarray
    rows: np.ndarray           # (n, 39), as `closed_loop_blocks` yields them
    Omega_d_dot: np.ndarray
    u_ext: np.ndarray          # realized carrier-body torque, N·m
    u_int: np.ndarray          # rotor torque, N·m (zero for external runs)

    R = property(lambda t: t.rows[:, :9].reshape(-1, 3, 3))
    Theta = property(lambda t: t.rows[:, 9:12])
    Omega = property(lambda t: t.rows[:, 12:15])
    OmegaR = property(lambda t: t.rows[:, 15:18])
    xi_I = property(lambda t: t.rows[:, 18:21])
    R_d = property(lambda t: t.rows[:, 21:30].reshape(-1, 3, 3))
    Theta_d = property(lambda t: t.rows[:, 30:33])
    Omega_d = property(lambda t: t.rows[:, 33:36])
    OmegaR_d = property(lambda t: t.rows[:, 36:39])

    def __len__(self):
        return len(self.times)


@dataclass
class RunMetrics:
    """Per-sample diagnostics of a closed-loop run.

    momentum_drift_series is the sup-norm deviation of the plant's
    spatial angular momentum from its value at t = 0, momentum_drift
    (a read-only view) its worst; ortho_drift the worst Frobenius defect
    ||R^T R - 1|| over every stored rotation.  The energy's decay bound
    `control.ecl_rate_bound` certifies nothing outside
    `certified_region_mask`, so a caller computes both on demand.
    """

    psi_e: np.ndarray
    geo_err: np.ndarray
    effort_l2: np.ndarray
    effort_uext_l2: np.ndarray
    ecl: np.ndarray
    momentum_drift_series: np.ndarray
    ortho_drift: float

    momentum_drift = property(lambda m: float(m.momentum_drift_series.max()))


# ---------------------------------------------------------------------------
# benchmark parameter set
# ---------------------------------------------------------------------------

BENCHMARK_PLANT_I = np.array([[4.0, 1.0, 1.0],
                              [1.0, 5.2, 2.0],
                              [1.0, 2.0, 6.3]])
BENCHMARK_PLANT_K = (5.0, 6.0, 7.0)
BENCHMARK_PLANT_R0 = np.array([[0.36, 0.48, -0.8],
                               [-0.8, 0.6, 0.0],
                               [0.48, 0.64, 0.6]])
BENCHMARK_PLANT_IOMEGA0 = np.array([1.0, 2.2, 5.1])   # Omega0 = I^{-1} @ this
BENCHMARK_PLANT_OMEGAR0 = np.array([0.5, 1.9, 1.5])
BENCHMARK_REF_I = np.diag([1.0, 1.2, 2.0])
BENCHMARK_REF_K = (4.0, 3.0, 2.0)
BENCHMARK_REF_IOMEGA0 = np.array([-0.8, -0.3, -0.5])  # Omega_d0 = I_d^{-1} @ this
BENCHMARK_GAINS = (1.0, 3.0, 1.0)                     # (k_p, k_d, k_I)
BENCHMARK_KAPPA = 0.6
_PROGRAM_AMPLITUDES = {
    "zero": np.zeros(3),
    "constant": np.array([0.2, 0.1, 0.2]),
    "sinusoid": np.ones(3),
}


def benchmark_plant():
    """The bundled plant body, built from the ``BENCHMARK_PLANT_*``
    constants; Omega0 solves I Omega0 = ``BENCHMARK_PLANT_IOMEGA0``."""
    params = InertiaParams(BENCHMARK_PLANT_I, BENCHMARK_PLANT_K)
    omega0 = np.linalg.solve(BENCHMARK_PLANT_I, BENCHMARK_PLANT_IOMEGA0)
    return BodySetup(params=params, R0=BENCHMARK_PLANT_R0, Omega0=omega0,
                     OmegaR0=BENCHMARK_PLANT_OMEGAR0)


def benchmark_reference():
    """The bundled reference body, built from the ``BENCHMARK_REF_*``
    constants, starting at R0 = 1.  Its rotor rates are left unset for
    `resolve_reference` to put it on the plant's momentum level set."""
    params = InertiaParams(BENCHMARK_REF_I, BENCHMARK_REF_K)
    omega0 = np.linalg.solve(BENCHMARK_REF_I, BENCHMARK_REF_IOMEGA0)
    return BodySetup(params=params, R0=np.eye(3), Omega0=omega0, OmegaR0=None)


def benchmark_gains():
    """The bundled (1, 3, 1) gain triple with its certification inputs.

    These gains fail their own feasibility inequalities (k_p never clears
    2 kappa k_d^2 for any admissible kappa), as `gain_feasible` reports.
    """
    kp, kd, ki = BENCHMARK_GAINS
    return gain_derive(kp, kd, ki, BENCHMARK_KAPPA,
                       BENCHMARK_MU_HESS, BENCHMARK_LAMBDA_SUP)


def certified_gains():
    """A certified gain set (k_d = 3) for the benchmark plant."""
    return synthesize_gains(BENCHMARK_PLANT_I)


def benchmark_config(program="zero", gains=None, duration=30.0):
    """A full benchmark scenario for one torque program, RK4 Munthe-Kaas
    with 1e-3 s steps.

    ``gains`` is a GainSet, such as `certified_gains()`, or None for the
    bundled (1, 3, 1) set (`benchmark_gains`); anything else raises
    ValueError naming ``gains``.  An unknown ``program`` raises
    ValueError from `ReferenceProgram`.
    """
    if gains is None:
        gains = benchmark_gains()
    elif not isinstance(gains, GainSet):
        raise ValueError(f"gains must be a GainSet or None, not {gains!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # identity P: repeated eigenvalues
        weights = NavigationWeights(np.eye(3))
    return ScenarioConfig(
        plant=benchmark_plant(),
        reference=benchmark_reference(),
        program=ReferenceProgram(program, _PROGRAM_AMPLITUDES.get(program)),
        weights=weights,
        gains=gains,
        integrator=IntegratorConfig(step=1e-3, duration=duration),
    )


# ---------------------------------------------------------------------------
# momentum-consistent initialization
# ---------------------------------------------------------------------------

def consistent_rotor_velocity(ref_params, r_d0, omega_d0, mu_spatial):
    """Initial rotor rates putting the reference on a given momentum level.

        OmegaR_d(0) = K_d^{-1} (R_d(0)^T mu - (I_d + K_d) Omega_d(0))

    K_d is the three rotor inertias (positive by `InertiaParams`); an
    overflowing rate is for `BodySetup` to reject.  Feeding the result
    back through the momentum map reproduces mu exactly.
    """
    r_d0 = np.asarray(r_d0, dtype=float)
    residual = r_d0.T @ np.asarray(mu_spatial, dtype=float) \
        - ref_params.locked @ np.asarray(omega_d0, dtype=float)
    return residual / ref_params.rotor_inertia


def plant_spatial_momentum(setup):
    """Spatial angular momentum R Pi of a body setup at its initial state."""
    return momentum_spatial(setup.R0, momentum_body(setup.params, setup.Omega0,
                                                    setup.OmegaR0))


def resolve_reference(cfg):
    """Fill a derive-from-momentum reference rotor velocity, if requested."""
    if cfg.reference.OmegaR0 is not None:
        return cfg
    mu = plant_spatial_momentum(cfg.plant)
    omega_r0 = consistent_rotor_velocity(cfg.reference.params,
                                         cfg.reference.R0,
                                         cfg.reference.Omega0, mu)
    reference = dataclasses.replace(cfg.reference, OmegaR0=omega_r0)
    return dataclasses.replace(cfg, reference=reference)


def on_reference_variant(cfg):
    """Start the plant exactly on the reference (zero initial error)."""
    cfg = resolve_reference(cfg)
    plant = dataclasses.replace(cfg.plant, R0=cfg.reference.R0.copy(),
                                Omega0=cfg.reference.Omega0.copy())
    return dataclasses.replace(cfg, plant=plant)


# ---------------------------------------------------------------------------
# the rotor body
# ---------------------------------------------------------------------------

_STAGE = 15    # floats of stage values per evaluation: R 9 | Omega | dOmega
_ROWS = 16     # reference rows per message, after their steps' stage values
#                (a 1 s run was measured slower with 8 rows and with 128)


def _rotor_field(params, torque, record=None):
    """Vector field of a rotor body under a componentwise torque program
    ``torque(t)`` (`ReferenceProgram._torque`), ``field(t, R, vec) ->
    (Omega, rates)``.

    Vector state Theta 0:3 | Omega 3:6 | OmegaR 6:9, with rates
    (dTheta, dOmega, dOmegaR) = (OmegaR, block solve); the attitude moves
    with body velocity Omega.  ``record``, if given, is called with each
    evaluation's stage values: the attitude's 9 entries, Omega and dOmega.
    """
    consts = kernel_constants(params)

    def field(t, r, vec):
        _, _, _, w0, w1, w2, r0, r1, r2 = vec
        omega = w0, w1, w2
        (a0, a1, a2), (b0, b1, b2) = rotor_accels(consts, omega,
                                                  (r0, r1, r2), torque(t))
        if record is not None:
            record((*r, w0, w1, w2, a0, a1, a2))
        return omega, (r0, r1, r2, a0, a1, a2, b0, b1, b2)
    return field


def _stream_reference(cfg):
    """The reference body of cfg as a writing `stream.child`: for each of
    its unchecked blocks of up to `_ROWS` rows of 18 (R_d 9 | Theta_d |
    Omega_d | OmegaR_d), the stage values of the steps that made it, rows
    of 15 (`_rotor_field`) from start 0, and then the block."""
    ref = cfg.reference
    stages = []
    field = _rotor_field(ref.params, cfg.program._torque, stages.extend)
    vec0 = np.concatenate([ref.Theta0, ref.Omega0, ref.OmegaR0])
    for start, block in _blocks(field, (ref.R0, vec0), cfg.integrator,
                                _ROWS):
        # struct packs a list of floats several times faster than numpy
        values = struct.pack(f"{len(stages)}d", *stages)
        stages.clear()
        yield 0, np.frombuffer(values).reshape(-1, _STAGE)
        yield start, block


# ---------------------------------------------------------------------------
# closed-loop runs
# ---------------------------------------------------------------------------

_ZERO3 = np.zeros(3)


def _plant_loop(cfg, actuation):
    """``plant(t, r, vec, ref) -> (omega, vdot, u_ext, u_int)``: the
    plant + integral-state field of the plant's attitude r and vector
    state vec, given the reference's stage values
    ``ref`` (R_d 9 | Omega_d | dOmega_d, as `_rotor_field` records them),
    with the torques it applies, u_ext = I u on the carrier body and the
    rotor torque u_int realizing it.

    vec: Theta 0:3 | Omega 3:6 | OmegaR 6:9 | xi_I 9:12.
    The plant is a rotor body moved by (dTheta, dOmega, dOmegaR) =
    (OmegaR, block solve), as in `_rotor_field`, under u_int; dOmega_d is
    the control's feed-forward.  Under external actuation the carrier
    body is torqued directly, u_int is zero and the plant's Theta and
    OmegaR slots stay zero.  On components (see `integrators`): floats in
    the stepper, columns in the post-pass.  Any other actuation raises
    ValueError.
    """
    if actuation not in ("internal", "external"):
        raise ValueError("actuation must be 'internal' or 'external'")
    plant = cfg.plant.params
    plant_c = kernel_constants(plant)
    gains = cfg.gains
    p_mat = components(cfg.weights.P, 2)
    metric = metric_constants(plant.body_inertia)
    i_metric, i_inv, _ = metric
    internal = actuation == "internal"

    def loop(t, r, vec, ref):
        _, _, _, w0, w1, w2, r0, r1, r2, x0, x1, x2 = vec
        q0, q1, q2, q3, q4, q5, q6, q7, q8, v0, v1, v2, a0, a1, a2 = ref
        omega, omega_r = (w0, w1, w2), (r0, r1, r2)
        u, u_ext, (y0, y1, y2) = _loop_kernel(
            metric, p_mat, gains, r, omega,
            (q0, q1, q2, q3, q4, q5, q6, q7, q8), (v0, v1, v2),
            (a0, a1, a2), (x0, x1, x2))
        if internal:
            u_int = _uint(plant_c, u_ext, omega, omega_r)
            (c0, c1, c2), (d0, d1, d2) = rotor_accels(plant_c, omega,
                                                      omega_r, u_int)
        else:
            zero = 0.0 * t   # +0.0 as a float, or a column like t (t >= 0)
            u_int = d0, d1, d2 = zero, zero, zero
            c0, c1, c2 = _external_accel(i_metric, i_inv, omega, u)
        return (omega, (r0, r1, r2, c0, c1, c2, d0, d1, d2, y0, y1, y2),
                u_ext, u_int)
    return loop


def closed_loop_blocks(cfg, actuation="internal"):
    """The tracking loop of cfg, as a generator of its checked blocks.

    It yields ``(start, rows)`` as `integrators.integrate_blocks` does,
    each row the plant's integrator row and then the reference's: R 9 |
    Theta Omega OmegaR xi_I 12 | R_d 9 | Theta_d Omega_d OmegaR_d 9.
    actuation "internal" drives the rotor plant through the torque
    conversion, "external" the bare carrier body directly.  The reference
    body (`_stream_reference`) runs apart, forked and ahead of the plant
    or in this process 16 steps at a time, when the plant's field has
    read all it sent, and the field takes its next stage values at each
    evaluation.  Neither body checks its own rows: each joined block is
    `checked`, so a run diverges at the first non-finite sample of either
    half, and a body that diverged runs on inf or NaN until then.  A
    caller that leaves early closes the generator (`contextlib.closing`),
    which reaps the child.  An actuation other than these two raises
    ValueError before the child starts.
    """
    loop = _plant_loop(cfg, actuation)
    cfg = resolve_reference(cfg)
    plant = cfg.plant
    theta0, omega_r0 = (plant.Theta0, plant.OmegaR0) \
        if actuation == "internal" else (_ZERO3, _ZERO3)
    vec0 = np.concatenate([theta0, plant.Omega0, omega_r0, _ZERO3])
    stages = deque()   # the reference's stage values the plant has not read
    ref_rows = []      # the reference's rows of the plant's block so far
    # the reference body's step, generated here once rather than in each
    # forked child
    _step(cfg.integrator.scheme, cfg.integrator.reproject, 9)

    def field(t, r, vec):
        if not stages:
            stages.extend(next(messages)[1].tolist())
            ref_rows.append(next(messages)[1])
        return loop(t, r, vec, stages.popleft())[:2]

    with child(lambda: _stream_reference(cfg), child_reads=False,
               what="reference body") as messages:
        for start, block in _blocks(field, (plant.R0, vec0), cfg.integrator):
            rows = np.concatenate([block, np.concatenate(ref_rows)], axis=1)
            ref_rows.clear()
            yield start, checked(start, rows, cfg.integrator.step)
        next(messages, None)   # its end mark, before its pipe closes


def run_closed_loop(cfg, actuation="internal"):
    """(ClosedLoopTrajectory, RunMetrics) of the run of cfg: its blocks
    (`closed_loop_blocks`) collected into rows allocated first (MemoryError
    before anything runs), and their record (`block_records`), whose `_d`
    half is the reference body's record under either actuation."""
    rows = np.empty((cfg.integrator.n_steps + 1, 39))
    with contextlib.closing(closed_loop_blocks(cfg, actuation)) as blocks:
        for start, block in blocks:
            rows[start:start + len(block)] = block
    return next(block_records(cfg, [(0, rows)], actuation))


def block_records(cfg, blocks, actuation="internal"):
    """The ``(ClosedLoopTrajectory, RunMetrics)`` record of each block of
    ``blocks``, contiguous samples of a run of cfg as `closed_loop_blocks`
    yields them, whose trajectory holds the block's rows as they are.
    The reference's `_rotor_field` and the `_plant_loop` are each called
    once on their own body's columns, for Omega_d_dot and the torques.
    Every value of a record is a function of its own sample and cfg, the
    momentum drift measured from the spatial momentum of cfg's initial
    plant state, so any blocks give, row for row, the bits of the whole
    run's record.
    """
    reference = _rotor_field(cfg.reference.params, cfg.program._torque)
    loop = _plant_loop(cfg, actuation)
    plant = cfg.plant
    gains, p = cfg.gains, cfg.weights.P
    i_metric = plant.params.body_inertia
    internal = actuation == "internal"
    consts, i_comps = kernel_constants(plant.params), components(i_metric, 2)

    def spatial_momentum(r, omega, omega_r):
        """R Pi, on floats or on columns: the plant's spatial momentum."""
        pi = _momentum(consts, omega, omega_r) if internal \
            else _matvec(i_comps, omega)
        return from_components(_matvec(r, pi))

    # the bits of the first sample's, as the integrators store the
    # initial state as it is
    momentum0 = spatial_momentum(components(plant.R0, 2),
                                 components(plant.Omega0),
                                 components(plant.OmegaR0))
    for start, rows in blocks:
        times = cfg.integrator.step * np.arange(start, start + len(rows))
        col = components(rows)
        r, omega, r_d, omega_d = col[:9], col[12:15], col[21:30], col[33:36]
        _, ref_rates = reference(times, r_d, col[30:39])
        _, _, u_ext, u_int = loop(times, r, col[9:21],
                                  (*r_d, *omega_d, *ref_rates[3:6]))
        traj = ClosedLoopTrajectory(
            times, rows, from_components(ref_rates[3:6]),
            from_components(u_ext), from_components(u_int))

        # conservation diagnostics
        drift_series = np.abs(spatial_momentum(r, omega, col[15:18])
                              - momentum0).max(axis=1)
        ortho = max(float(orthogonality_defect(rot).max())
                    for rot in (traj.R, traj.R_d))

        e, eta = _error(r, omega, r_d, omega_d)
        e, eta = from_components(e, (3, 3)), from_components(eta)
        yield traj, RunMetrics(
            psi_e=nav_psi(p, e),
            geo_err=rotation_angle(e),
            effort_l2=np.linalg.norm(traj.u_int if internal else traj.u_ext,
                                     axis=1),
            effort_uext_l2=np.linalg.norm(traj.u_ext, axis=1),
            ecl=ecl_value(i_metric, p, gains, e, eta, traj.xi_I),
            momentum_drift_series=drift_series,
            ortho_drift=ortho,
        )


# ---------------------------------------------------------------------------
# certification diagnostics
# ---------------------------------------------------------------------------

def certified_region_mask(cfg, traj):
    """Samples where the gain-certification argument applies.

    The energy decay bound `ecl_rate_bound` is derived under two
    state-dependent conditions: the navigation-function Hessian at E is
    positive definite with metric operator norm at most mu_hess, and the
    signed Hessian inequality

        Hess_E(eta, alpha*eta + delta*xi_I) <= mu_hess <eta, alpha*eta + delta*xi_I>

    holds at the sample.  Returns the boolean array marking samples where
    both conditions are met; outside them the bound carries no guarantee.
    """
    gains = cfg.gains
    i_metric = cfg.plant.params.body_inertia
    e, eta = error_state(traj.R, traj.Omega, traj.R_d, traj.Omega_d)
    w = gains.alpha * eta + gains.delta * traj.xi_I

    h = nav_hessian(cfg.weights.P, i_metric, e)
    spectrum = _metric_spectrum(i_metric, h)
    shape_ok = (spectrum[:, 0] > 0.0) & (spectrum[:, -1] <= gains.mu_hess)

    lhs = np.vecdot((h @ eta[:, :, None])[:, :, 0], w)
    rhs = gains.mu_hess * np.vecdot(eta @ i_metric, w)
    return shape_ok & (lhs <= rhs + 1e-12)


# ---------------------------------------------------------------------------
# control-effort comparison
# ---------------------------------------------------------------------------

@dataclass
class EffortComparison:
    """Paired closed-loop runs of the proposed law and a baseline, by
    their effort columns: row k of ``proposed`` and of ``baseline`` holds
    the rotor torque's norm ||u_int|| and the carrier torque's ||I u||
    (`RunMetrics.effort_l2` and ``effort_uext_l2``) of its run at time
    ``step * k``, the time `block_records` gives sample k.
    ``proposed_integral`` and ``baseline_integral`` are read-only views:
    the trapezoid rule of each run's ||u_int|| column at ``step``."""

    step: float
    proposed: np.ndarray         # (n+1, 2): ||u_int||, ||I u||
    baseline: np.ndarray

    proposed_integral = property(
        lambda c: float(np.trapezoid(c.proposed[:, 0], dx=c.step)))
    baseline_integral = property(
        lambda c: float(np.trapezoid(c.baseline[:, 0], dx=c.step)))


def compare_efforts(cfg):
    """Run the proposed law and its PD baseline on the same reference.

    The baseline is `pd_variant` of the gains: the same P, k_p and k_d
    with the integral channel removed.  Both runs see identical initial
    states; each `closed_loop_blocks` resolves the same reference.  Each
    run's checked blocks are folded as they come, four to a post-pass
    (`block_records`), into its two effort columns; both runs' columns
    are allocated first (MemoryError before either run starts), and no
    run is held whole.  The result holds the step and the columns.
    """
    efforts = np.empty((2, cfg.integrator.n_steps + 1, 2))
    for out, gains in zip(efforts, (cfg.gains, pd_variant(cfg.gains))):
        run, stop = dataclasses.replace(cfg, gains=gains), 0
        with contextlib.closing(closed_loop_blocks(run)) as blocks:
            # four blocks to a post-pass, in about half the time of one each
            joined = ((group[0][0], np.concatenate([b for _, b in group]))
                      for group in iter(lambda: list(islice(blocks, 4)), []))
            for _, metrics in block_records(run, joined):
                start, stop = stop, stop + len(metrics.effort_l2)
                out[start:stop, 0] = metrics.effort_l2
                out[start:stop, 1] = metrics.effort_uext_l2
    return EffortComparison(cfg.integrator.step, *efforts)
