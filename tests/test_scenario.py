import dataclasses
import json

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gyrotrack import cli, control, dynamics, scenario, so3
from gyrotrack.config import serialize_config
from gyrotrack.errors import DivergedStateError
from gyrotrack.integrators import (SCHEMES, IntegratorConfig,
                                   integrate_components)
from gyrotrack.so3 import components, from_components

from conftest import (joint_initial, joint_loop, joint_rows, oracle_integrate,
                      random_rotation)


def short_config(program="zero", duration=2.0, **kw):
    return scenario.benchmark_config(program=program, duration=duration, **kw)


class TestReferenceProgram:
    def test_kinds(self):
        t = 0.7
        zero = scenario.ReferenceProgram("zero")
        const = scenario.ReferenceProgram("constant", [0.2, 0.1, 0.2])
        sin = scenario.ReferenceProgram("sinusoid", [1.0, 1.0, 1.0])
        assert np.array_equal(zero.torque(t), np.zeros(3))
        assert np.array_equal(const.torque(t), [0.2, 0.1, 0.2])
        assert np.allclose(sin.torque(t),
                           [np.sin(t), np.cos(t), np.sin(t)], atol=1e-15)

    def test_series_matches_pointwise(self):
        prog = scenario.ReferenceProgram("sinusoid", [0.5, 1.0, 2.0])
        times = np.linspace(0.0, 3.0, 13)
        series = prog.torque(times)
        for k, t in enumerate(times):
            assert np.allclose(series[k], prog.torque(t), atol=1e-15)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            scenario.ReferenceProgram("ramp")

    @pytest.mark.parametrize("amplitude", [
        [1.0, np.nan, 0.0], [np.inf, 0.0, 0.0], [1.0, 2.0], np.eye(3)])
    def test_rejects_bad_amplitude(self, amplitude):
        with pytest.raises(ValueError,
                           match="^amplitude must be a finite 3-vector$"):
            scenario.ReferenceProgram("constant", amplitude)


class TestMomentumConsistentInit:
    def test_constructed_zero_residual(self):
        ref = scenario.benchmark_reference()
        mu = ref.R0 @ (ref.params.locked @ ref.Omega0)
        out = scenario.consistent_rotor_velocity(ref.params, ref.R0,
                                                 ref.Omega0, mu)
        assert np.abs(out).max() < 1e-12

    def test_formula_arithmetic(self):
        cfg = scenario.resolve_reference(short_config())
        ref = cfg.reference
        mu = scenario.plant_spatial_momentum(cfg.plant)
        expected = np.linalg.solve(
            np.diag(ref.params.rotor_inertia),
            ref.R0.T @ mu - ref.params.locked @ ref.Omega0)
        assert np.abs(ref.OmegaR0 - expected).max() < 1e-12

    def test_roundtrip_reproduces_momentum(self):
        rng = np.random.default_rng(3)
        ref = scenario.benchmark_reference()
        for _ in range(20):
            mu = rng.normal(size=3) * 5.0
            omega_r = scenario.consistent_rotor_velocity(
                ref.params, ref.R0, ref.Omega0, mu)
            back = dynamics.momentum_spatial(
                ref.R0, dynamics.momentum_body(ref.params, ref.Omega0, omega_r))
            assert np.abs(back - mu).max() < 1e-12

    def test_reference_on_plant_level_set(self, certified_zero_run):
        cfg, traj, _ = certified_zero_run
        cfg = scenario.resolve_reference(cfg)
        mu_plant = scenario.plant_spatial_momentum(cfg.plant)
        ref = cfg.reference.params
        pi_d = traj.Omega_d @ ref.locked.T + traj.OmegaR_d * ref.rotor_inertia
        mu_d = np.einsum("nij,nj->ni", traj.R_d, pi_d)
        assert np.abs(mu_d[0] - mu_plant).max() < 1e-9
        assert np.abs(mu_d - mu_plant).max() < 1e-6


def reference_alone(cfg):
    """``(field, history)``: the reference body integrated alone by the
    production rotor field."""
    cfg = scenario.resolve_reference(cfg)
    ref = cfg.reference
    field = scenario._rotor_field(ref.params, cfg.program._torque)
    hist = integrate_components(
        field, (ref.R0, np.concatenate([ref.Theta0, ref.Omega0,
                                        ref.OmegaR0])), cfg.integrator)
    return field, hist


@pytest.fixture(scope="module")
def two_second_runs():
    """One 2 s closed loop per torque program, keyed by program."""
    runs = {}
    for program in scenario.PROGRAM_KINDS:
        cfg = scenario.resolve_reference(short_config(program))
        runs[program] = cfg, scenario.run_closed_loop(cfg)[0]
    return runs


class TestMakeReference:
    def test_zero_program_at_rest_is_constant(self):
        cfg = short_config()
        rest = dataclasses.replace(
            cfg, reference=dataclasses.replace(
                cfg.reference, Omega0=np.zeros(3), OmegaR0=np.zeros(3)))
        _, hist = reference_alone(rest)
        rot = hist.R
        assert np.abs(rot - rot[0]).max() < 1e-12
        assert np.abs(hist.vectors[:, 3:6]).max() < 1e-12

    def test_momentum_conserved_any_program(self):
        for program in ("zero", "sinusoid"):
            cfg = scenario.resolve_reference(short_config(program, duration=5.0))
            _, hist = reference_alone(cfg)
            p = cfg.reference.params
            pi = hist.vectors[:, 3:6] @ p.locked.T \
                + hist.vectors[:, 6:9] * p.rotor_inertia
            mu = np.einsum("nij,nj->ni", hist.R, pi)
            assert np.abs(mu - mu[0]).max() < 1e-6

    def test_omega_dot_sampled_from_field(self, two_second_runs):
        cfg, traj = two_second_runs["sinusoid"]
        # exact field values at the stored states, not finite differences
        p = cfg.reference.params
        for k in (0, 37, 1999):
            expected, _ = dynamics.rotor_accels(
                p, traj.Omega_d[k], traj.OmegaR_d[k],
                cfg.program.torque(traj.times[k]))
            assert np.abs(traj.Omega_d_dot[k] - expected).max() < 1e-12
        # and consistent with differencing to truncation order (the dummy
        # body carries large stored momentum, so third derivatives are big)
        h = cfg.integrator.step
        fd = (traj.Omega_d[2:] - traj.Omega_d[:-2]) / (2.0 * h)
        assert np.abs(traj.Omega_d_dot[1:-1] - fd).max() < 5e-3

    def test_sinusoid_bounded(self):
        cfg = short_config("sinusoid", duration=10.0)
        _, hist = reference_alone(cfg)
        omega = hist.vectors[:, 3:6]
        assert np.isfinite(omega).all()
        assert np.abs(omega).max() < 10.0

    @pytest.mark.parametrize("program", scenario.PROGRAM_KINDS)
    def test_run_reference_half_is_the_body_alone(self, two_second_runs,
                                                  program):
        # the reference half of a closed loop is the reference body
        # integrated alone, bit for bit, and its Omega_d_dot the field's
        cfg, traj = two_second_runs[program]
        field, hist = reference_alone(cfg)
        vec = hist.vectors
        _, vdot = field(hist.times, components(hist.R, 2), components(vec))
        assert np.array_equal(traj.times, hist.times)
        assert np.array_equal(traj.R_d, hist.R)
        assert np.array_equal(traj.Theta_d, vec[:, 0:3])
        assert np.array_equal(traj.Omega_d, vec[:, 3:6])
        assert np.array_equal(traj.OmegaR_d, vec[:, 6:9])
        assert np.array_equal(traj.Omega_d_dot,
                              from_components(vdot[3:6]))


class TestClosedLoop:
    def test_on_reference_stays_with_zero_integral(self):
        cfg = scenario.on_reference_variant(short_config("constant",
                                                         duration=3.0))
        traj, metrics = scenario.run_closed_loop(cfg)
        assert metrics.psi_e.max() < 1e-8
        assert np.abs(traj.xi_I).max() < 1e-8

    @pytest.mark.parametrize("program", scenario.PROGRAM_KINDS)
    @pytest.mark.parametrize("actuation", ["internal", "external"])
    def test_block_records_are_the_run_record(self, program, actuation):
        # 1 s: seven full 128-row blocks and a last one of 105 rows, whose
        # records are, row for row, the bits of the whole run's
        cfg = short_config(program, duration=1.0,
                           gains=scenario.certified_gains())
        blocks = list(scenario.closed_loop_blocks(cfg, actuation))
        traj, metrics = scenario.run_closed_loop(cfg, actuation)
        records = list(scenario.block_records(cfg, blocks, actuation))
        assert [len(t) for t, _ in records] == [128] * 7 + [105]
        for whole, parts in ((traj, [t for t, _ in records]),
                             (metrics, [m for _, m in records])):
            for field in dataclasses.fields(whole):
                value = getattr(whole, field.name)
                if isinstance(value, np.ndarray) and value.shape[:1] == (1001,):
                    joined = np.concatenate([getattr(p, field.name)
                                             for p in parts])
                    assert joined.tobytes() == value.tobytes(), field.name

    @pytest.mark.parametrize("program", scenario.PROGRAM_KINDS)
    @pytest.mark.parametrize("actuation", ["internal", "external"])
    def test_a_lone_block_gives_the_same_record(self, program, actuation):
        # samples 300-699 alone, with no block before them: every array of
        # their record is, row for row, the bits of the whole run's
        cfg = short_config(program, duration=1.0,
                           gains=scenario.certified_gains())
        rows = np.concatenate([block for _, block in
                               scenario.closed_loop_blocks(cfg, actuation)])
        traj, metrics = scenario.run_closed_loop(cfg, actuation)
        (part_traj, part_metrics), = scenario.block_records(
            cfg, [(300, rows[300:700])], actuation)
        for whole, part in ((traj, part_traj), (metrics, part_metrics)):
            for field in dataclasses.fields(whole):
                value = getattr(whole, field.name)
                if isinstance(value, np.ndarray):
                    assert getattr(part, field.name).tobytes() == \
                        value[300:700].tobytes(), field.name

    @pytest.mark.parametrize("program", scenario.PROGRAM_KINDS)
    @pytest.mark.parametrize("actuation", ["internal", "external"])
    def test_run_is_the_bodies_integrated_as_one(self, program, actuation):
        # 0.3 s, under each scheme: the two bodies integrated apart give,
        # bit for bit, the record of the two integrated as one state by
        # the oracle (`joint_loop`), and each row of the run's blocks is
        # the plant's integrator row, then the reference's.  Lie-Euler
        # evaluates each field once a step, so its reference messages hold
        # 16 stage rows where RK4's hold 64
        for scheme in SCHEMES:
            cfg = short_config(program, duration=0.3,
                               gains=scenario.certified_gains())
            cfg = scenario.resolve_reference(dataclasses.replace(
                cfg, integrator=dataclasses.replace(cfg.integrator,
                                                    scheme=scheme)))
            blocks = [block for _, block in
                      scenario.closed_loop_blocks(cfg, actuation)]
            traj, metrics = scenario.run_closed_loop(cfg, actuation)
            loop = joint_loop(cfg, actuation)
            times, (r, r_d), vec = oracle_integrate(
                loop, joint_initial(cfg, actuation), cfg.integrator)
            _, vdot, u_ext, u_int = loop(
                times, [components(r, 2), components(r_d, 2)],
                components(vec))
            joint = dict(
                times=times, R=r, Theta=vec[:, 0:3], Omega=vec[:, 3:6],
                OmegaR=vec[:, 6:9], R_d=r_d, Theta_d=vec[:, 9:12],
                Omega_d=vec[:, 12:15], OmegaR_d=vec[:, 15:18],
                Omega_d_dot=from_components(vdot[12:15]), xi_I=vec[:, 18:21],
                u_ext=from_components(u_ext), u_int=from_components(u_int))
            for name, value in joint.items():
                assert getattr(traj, name).tobytes() == value.tobytes(), name
            rows = joint_rows(r, r_d, vec)
            assert blocks[-1][-1].tobytes() == rows[-1].tobytes()
            (_, joint_metrics), = scenario.block_records(cfg, [(0, rows)],
                                                         actuation)
            for name, value in vars(metrics).items():
                if isinstance(value, np.ndarray):
                    assert value.tobytes() == \
                        getattr(joint_metrics, name).tobytes(), name

    def test_fourth_order(self):
        # the whole loop, torque program included, converges at fourth
        # order: 2 s of the certified sinusoid against h = 2.5e-4 (largest
        # final-state errors 0.376, 0.0248 and 0.00142, orders 3.92, 4.13)
        def final_state(h):
            cfg = short_config("sinusoid", gains=scenario.certified_gains())
            cfg = dataclasses.replace(
                cfg, integrator=IntegratorConfig(step=h, duration=2.0))
            *_, (_, block) = scenario.closed_loop_blocks(cfg)
            return block[-1]

        fine = final_state(2.5e-4)
        errs = [np.abs(final_state(h) - fine).max() for h in (0.04, 0.02, 0.01)]
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert ((3.7 <= orders) & (orders <= 4.3)).all(), orders

    def test_feasibility_verdict_recorded_for_any_gains(self, tmp_path):
        # a run's sidecar records its gains' verdict, infeasible or not
        for name, gains, feasible in (
                ("stored", None, False),
                ("certified", scenario.certified_gains(), True)):
            path = tmp_path / f"{name}.cfg"
            path.write_text(serialize_config(
                short_config(duration=0.5, gains=gains)))
            out = tmp_path / f"{name}.csv"
            assert cli.main(["simulate", str(path), "-o", str(out)]) == 0
            meta = json.loads(out.with_suffix(".meta.json").read_text())
            assert meta["feasibility"]["feasible"] is feasible

    def test_trajectory_columns_are_views_of_its_rows(self):
        traj, metrics = scenario.run_closed_loop(short_config(duration=0.5))
        assert traj.rows.shape == (501, 39)
        names = ("R", "Theta", "Omega", "OmegaR", "xi_I", "R_d", "Theta_d",
                 "Omega_d", "OmegaR_d")
        for name in names:
            assert np.shares_memory(getattr(traj, name), traj.rows), name
            with pytest.raises(AttributeError):
                setattr(traj, name, getattr(traj, name))
        widths = [getattr(traj, name).reshape(501, -1).shape[1]
                  for name in names]
        assert np.concatenate([getattr(traj, name).reshape(501, -1)
                               for name in names], axis=1).tobytes() == \
            traj.rows.tobytes() and widths == [9, 3, 3, 3, 3, 9, 3, 3, 3]
        assert metrics.momentum_drift == metrics.momentum_drift_series.max()
        assert not hasattr(metrics, "ecl_bound")

    def test_metrics_aligned_with_trajectory(self):
        traj, metrics = scenario.run_closed_loop(short_config(duration=1.0))
        n = len(traj)
        for arr in (metrics.psi_e, metrics.geo_err, metrics.effort_l2,
                    metrics.effort_uext_l2, metrics.ecl,
                    metrics.momentum_drift_series):
            assert arr.shape == (n,)

    def test_momentum_drift_small_with_infeasible_gains_too(self):
        _, metrics = scenario.run_closed_loop(short_config(duration=5.0))
        assert metrics.momentum_drift < 1e-7

    def test_orthogonality_maintained(self, certified_zero_run):
        _, _, metrics = certified_zero_run
        assert metrics.ortho_drift < 1e-9

    def test_external_actuation_has_no_rotor_channel(self):
        traj, _ = scenario.run_closed_loop(short_config(duration=0.5),
                                           actuation="external")
        assert np.abs(traj.u_int).max() == 0.0
        assert np.abs(traj.OmegaR).max() == 0.0

    @pytest.mark.parametrize("actuation", ["internal", "external"])
    @pytest.mark.parametrize("program", scenario.PROGRAM_KINDS)
    def test_loop_on_floats_is_row_of_column_call(self, program, actuation):
        # the stepper calls the loop on floats, the post-pass on columns
        cfg = scenario.resolve_reference(short_config(program, duration=0.2))
        traj, _ = scenario.run_closed_loop(cfg, actuation)
        loop = joint_loop(cfg, actuation)
        rots = (traj.R, traj.R_d)
        vec = np.column_stack([traj.Theta, traj.Omega, traj.OmegaR,
                               traj.Theta_d, traj.Omega_d, traj.OmegaR_d,
                               traj.xi_I])
        n = len(traj)
        _, vdot, u_ext, u_int = loop(traj.times,
                                     [components(r, 2) for r in rots],
                                     components(vec))
        columns = [np.broadcast_to(c, (n,)) for c in (*vdot, *u_ext, *u_int)]
        assert np.array_equal(np.column_stack(columns[21:24]), traj.u_ext)
        assert np.array_equal(np.column_stack(columns[24:27]), traj.u_int)
        for k in (0, (n - 1) // 2, n - 1):
            _, vdot_k, u_ext_k, u_int_k = loop(
                float(traj.times[k]), [components(r[k], 2) for r in rots],
                components(vec[k]))
            floats = (*vdot_k, *u_ext_k, *u_int_k)
            assert all(type(x) is float for x in floats)
            assert np.allclose([c[k] for c in columns], floats,
                               rtol=0.0, atol=1e-12)

    def test_overflow_reported_as_divergence(self):
        # from R0 = I a huge k_p overflows the state within two 1 s steps;
        # the exponential map of the infinite rate must not raise instead
        cfg = scenario.benchmark_config(
            "zero", duration=5.0,
            gains=control.gain_derive(5e5, 3.0, 1.0, 0.6, 2.0048, 1.42))
        cfg = dataclasses.replace(
            cfg, plant=dataclasses.replace(cfg.plant, R0=np.eye(3)),
            integrator=dataclasses.replace(cfg.integrator, step=1.0))
        with np.errstate(all="ignore"), pytest.raises(DivergedStateError):
            scenario.run_closed_loop(cfg)

    def test_rejects_unknown_actuation(self):
        with pytest.raises(ValueError):
            scenario.run_closed_loop(short_config(duration=0.5),
                                     actuation="magnetic")

    def test_certified_region_mask_coverage(self, certified_zero_run):
        # the signed Hessian condition is velocity-dependent, so the mask
        # oscillates with the sign of the cross terms; it must still cover
        # a substantial share of the run on both ends
        cfg, traj, _ = certified_zero_run
        mask = scenario.certified_region_mask(cfg, traj)
        assert 0.3 < mask.mean() < 1.0
        assert mask[:10000].any() and mask[-10000:].any()


def _vectors(low, high):
    return arrays(np.float64, 3, elements=st.floats(low, high))


def _haar_rotation(u1, u2, u3):
    """Rotation of the unit quaternion Shoemake's map takes uniform
    (u1, u2, u3) in [0, 1]^3 to: Haar-distributed on SO(3)."""
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    w, x, y, z = (a * np.sin(2 * np.pi * u2), a * np.cos(2 * np.pi * u2),
                  b * np.sin(2 * np.pi * u3), b * np.cos(2 * np.pi * u3))
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def error_flow_gap(cfg, traj, duration=None):
    """Largest entry gap between a run's (E, eta, xi_I) and
    `control.error_field` integrated alone from the run's initial error,
    over the run's first ``duration`` seconds (all of it by default)."""
    e, eta = control.error_state(traj.R, traj.Omega, traj.R_d, traj.Omega_d)
    integrator = dataclasses.replace(
        cfg.integrator, duration=duration or cfg.integrator.duration)
    field = control.error_field(cfg.plant.params.body_inertia, cfg.weights.P,
                                cfg.gains)
    hist = integrate_components(
        field, (e[0], np.concatenate([eta[0], traj.xi_I[0]])), integrator)
    n = len(hist.times)
    return max(np.abs(hist.R - e[:n]).max(),
               np.abs(hist.vectors - np.hstack([eta, traj.xi_I])[:n]).max())


def _inertia(axes, moments, log_rotors):
    q = so3.expm(axes)
    i = q @ np.diag(moments) @ q.T
    return dynamics.InertiaParams(0.5 * (i + i.T), 10.0 ** log_rotors)


# no shrink phase: each example runs three closed loops, so shrinking a
# failure takes minutes; the failing example is reported as drawn
@settings(max_examples=5, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(axes=_vectors(-3.0, 3.0), moments=_vectors(0.5, 4.0),
       log_rotors=_vectors(-20.0, 1.0), plant_axes=_vectors(-3.0, 3.0),
       plant_moments=_vectors(0.5, 4.0), plant_log_rotors=_vectors(-20.0, 1.0),
       amplitude=_vectors(-5.0, 5.0), haar=_vectors(0.0, 1.0))
def test_error_state_independent_of_reference_program(
        axes, moments, log_rotors, plant_axes, plant_moments,
        plant_log_rotors, amplitude, haar):
    # the feed-forward makes the error dynamics autonomous: under the same
    # initial error, every torque program driving the reference (of any
    # SPD inertia and rotor inertias from 1e-20 to 10) gives one error
    # curve, the error flow `control.error_field` integrated alone from
    # that error, whatever the plant's inertias; a sign or frame error in
    # dOmega_d, Omega x Omega_d, the Euler term or `_uint` breaks it
    base = short_config(duration=0.5)
    reference = dataclasses.replace(
        base.reference, params=_inertia(axes, moments, log_rotors))
    plant = dataclasses.replace(
        base.plant, params=_inertia(plant_axes, plant_moments,
                                    plant_log_rotors),
        R0=_haar_rotation(*haar))
    runs = {}
    for kind in scenario.PROGRAM_KINDS:
        cfg = dataclasses.replace(
            base, plant=plant, reference=reference,
            program=scenario.ReferenceProgram(kind, amplitude))
        traj, metrics = scenario.run_closed_loop(cfg)
        assert error_flow_gap(cfg, traj) <= 1e-10
        _, eta = control.error_state(traj.R, traj.Omega, traj.R_d,
                                     traj.Omega_d)
        runs[kind] = metrics.psi_e, eta, traj.xi_I
    for kind in ("constant", "sinusoid"):
        for zero, other in zip(runs["zero"], runs[kind]):
            assert np.abs(other - zero).max() <= 1e-9


@settings(max_examples=20, deadline=None)
@given(haar=_vectors(0.0, 1.0), omega0=_vectors(-1e3, 1e3),
       omega_r0=_vectors(-1e3, 1e3))
def test_initial_momentum_drift_is_zero(haar, omega0, omega_r0):
    # the drift is measured from the momentum of the config's initial
    # state on floats, and sample 0's on columns: the same bits, so its
    # drift is exactly zero under either actuation
    base = short_config(duration=0.002)
    plant = dataclasses.replace(base.plant, R0=_haar_rotation(*haar),
                                Omega0=omega0, OmegaR0=omega_r0)
    cfg = dataclasses.replace(base, plant=plant)
    for actuation in ("internal", "external"):
        _, metrics = scenario.run_closed_loop(cfg, actuation)
        assert len(metrics.momentum_drift_series) == 3
        assert metrics.momentum_drift_series[0] == 0.0


@pytest.mark.parametrize("fixture, index", [
    ("equivalence_runs", 1), ("equivalence_runs", 2),
    ("certified_zero_run", None)],
    ids=["stored internal", "stored external", "certified internal"])
def test_run_error_is_error_flow(fixture, index, request):
    # 10 s of the bundled runs, both gain sets and both actuations
    run = request.getfixturevalue(fixture)
    traj = run[1] if index is None else run[index][0]
    assert error_flow_gap(run[0], traj, duration=10.0) <= 1e-10


@pytest.fixture(scope="module")
def short_comparison():
    """``(cfg, EffortComparison)`` of a 1 s zero-program run."""
    cfg = short_config(duration=1.0)
    return cfg, scenario.compare_efforts(cfg)


class TestEffortComparison:
    def test_law_against_itself_identical(self, short_comparison):
        # each side's columns are bit for bit those of its own law's run
        # alone, held whole, at the same times
        cfg, cmp_result = short_comparison
        pd_cfg = dataclasses.replace(cfg, gains=control.pd_variant(cfg.gains))
        for effort, run_cfg in ((cmp_result.proposed, cfg),
                                (cmp_result.baseline, pd_cfg)):
            traj, alone = scenario.run_closed_loop(run_cfg)
            assert np.array_equal(
                cmp_result.step * np.arange(len(effort)), traj.times)
            assert np.array_equal(effort, np.column_stack(
                [alone.effort_l2, alone.effort_uext_l2]))

    def test_constant_program_smoke(self):
        cfg = short_config("constant", duration=2.0)
        cmp_result = scenario.compare_efforts(cfg)
        assert cmp_result.proposed.shape == (2001, 2)
        assert np.isfinite(cmp_result.proposed).all()
        assert np.isfinite(cmp_result.baseline).all()
        pd_gains = control.pd_variant(cfg.gains)
        assert control.gain_feasible(pd_gains).feasible is False  # PD only
        assert cmp_result.proposed_integral > 0.0

    def test_integrals_are_trapezoid_of_effort(self, short_comparison):
        cfg, cmp_result = short_comparison
        h = cfg.integrator.step
        assert cmp_result.proposed_integral == float(
            np.trapezoid(cmp_result.proposed[:, 0], dx=h))
        assert cmp_result.baseline_integral == float(
            np.trapezoid(cmp_result.baseline[:, 0], dx=h))
        assert cmp_result.proposed_integral != cmp_result.baseline_integral

    def test_integrals_are_views_of_the_columns(self, short_comparison):
        # the record holds the step and the two runs' columns; each
        # integral follows them: twice the step, exactly twice the integral
        _, cmp_result = short_comparison
        assert [f.name for f in dataclasses.fields(cmp_result)] == [
            "step", "proposed", "baseline"]
        doubled = dataclasses.replace(cmp_result, step=2.0 * cmp_result.step)
        for name in ("proposed_integral", "baseline_integral"):
            assert type(getattr(cmp_result, name)) is float
            assert getattr(doubled, name) == 2.0 * getattr(cmp_result, name)
            with pytest.raises(AttributeError):
                setattr(cmp_result, name, 0.0)

    def test_horizon_too_long_for_memory_fails_before_running(self,
                                                              monkeypatch):
        # both runs' columns are allocated before either run starts
        def never_run(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(scenario, "closed_loop_blocks", never_run)
        with pytest.raises(MemoryError):
            scenario.compare_efforts(short_config(duration=1e12))


class TestBodySetup:
    @pytest.mark.parametrize("r0", [
        2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0]),
        (1.0 + 1e-6) * scenario.BENCHMARK_PLANT_R0],
        ids=["twice identity", "reflection", "scaled rotation"])
    def test_non_rotation_attitude_rejected(self, r0):
        plant = scenario.benchmark_plant()
        with pytest.raises(ValueError, match="rotation"):
            scenario.BodySetup(params=plant.params, R0=r0,
                               Omega0=plant.Omega0, OmegaR0=plant.OmegaR0)
        with pytest.raises(ValueError, match="rotation"):
            dataclasses.replace(plant, R0=r0)

    @pytest.mark.parametrize("name", ["Omega0", "OmegaR0", "Theta0"])
    @pytest.mark.parametrize("value", [[0.0, 0.0], [0.0, np.nan, 0.0],
                                       [np.inf, 0.0, 0.0]],
                             ids=["2-vector", "nan", "inf"])
    def test_velocities_must_be_finite_3_vectors(self, name, value):
        plant = scenario.benchmark_plant()
        with pytest.raises(ValueError, match=f"{name} must be a finite"):
            dataclasses.replace(plant, **{name: value})

    def test_expm_rotations_accepted(self):
        rng = np.random.default_rng(11)
        plant = scenario.benchmark_plant()
        for _ in range(20):
            r0 = random_rotation(rng)
            assert np.array_equal(dataclasses.replace(plant, R0=r0).R0, r0)


class TestBenchmarkSetup:
    def test_initial_attitude_is_rotation(self):
        r0 = scenario.BENCHMARK_PLANT_R0
        assert np.abs(r0.T @ r0 - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(r0) - 1.0) < 1e-12

    def test_momentum_seeds(self):
        plant = scenario.benchmark_plant()
        assert np.allclose(scenario.BENCHMARK_PLANT_I @ plant.Omega0,
                           [1.0, 2.2, 5.1], atol=1e-12)
        ref = scenario.benchmark_reference()
        assert np.allclose(scenario.BENCHMARK_REF_I @ ref.Omega0,
                           [-0.8, -0.3, -0.5], atol=1e-12)

    def test_unknown_program_rejected(self):
        with pytest.raises(ValueError):
            scenario.benchmark_config(program="chirp")

    @pytest.mark.parametrize("gains", [
        "certified", "certifed", (1.0, 3.0, 1.0), 0, False,
        scenario.certified_gains])
    def test_gains_not_a_gain_set_rejected(self, gains, monkeypatch):
        # a GainSet or None; anything else is named before a config
        # exists, not met as an AttributeError inside the run
        def no_config(**fields):
            raise AssertionError("built a config")

        monkeypatch.setattr(scenario, "ScenarioConfig", no_config)
        with pytest.raises(ValueError, match="^gains must be a GainSet"):
            scenario.benchmark_config("zero", gains=gains)

    def test_config_is_replaceable(self):
        cfg = short_config()
        faster = dataclasses.replace(
            cfg, integrator=IntegratorConfig(step=0.01, duration=1.0))
        assert faster.integrator.step == 0.01
        assert cfg.integrator.step == 1e-3
