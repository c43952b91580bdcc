import re

import numpy as np
import pytest

from gyrotrack import dynamics, scenario, so3
from gyrotrack.errors import DivergedStateError
from gyrotrack.integrators import (History, IntegratorConfig,
                                   integrate_blocks, integrate_components,
                                   step_lie)

FREE_I = np.diag([1.0, 2.0, 3.0])
free_body_field = dynamics.free_body_field(FREE_I)


def zero_field(t, r, vec):
    return (0.0, 0.0, 0.0), [0.0] * len(vec)


class TestConfig:
    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.0, duration=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(step=2.0, duration=1.0)
        # the last four give 2**53 steps or more, past the float integers
        for step, duration in ((np.nan, 1.0), (1e-3, np.nan),
                               (np.inf, 1.0), (1e-3, np.inf),
                               (1e-3, 1e308), (1e-300, 30.0),
                               (1.0, 2.0 ** 53), (1e-3, 1e13)):
            with pytest.raises(ValueError):
                IntegratorConfig(step=step, duration=duration)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.1, duration=1.0, scheme="rk5")

    def test_longest_horizon_accepted(self):
        cfg = IntegratorConfig(step=1.0, duration=2.0 ** 53 - 1.0)
        assert cfg.n_steps == 2 ** 53 - 1

    def test_duration_equal_step_gives_two_samples(self):
        hist = integrate_components(zero_field, (np.eye(3), np.zeros(3)),
                                    IntegratorConfig(step=0.5, duration=0.5))
        assert len(hist.times) == 2

    @pytest.mark.parametrize("r0, shape", [
        ((np.eye(3),), (1, 3, 3)),
        (np.zeros((2, 3)), (2, 3)),
    ], ids=["product form", "2x3"])
    def test_initial_attitude_must_be_one_3x3_array(self, r0, shape):
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            integrate_components(zero_field, (r0, np.zeros(3)),
                                 IntegratorConfig(step=0.5, duration=1.0))


class TestStepping:
    @pytest.mark.parametrize("scheme", ["lie_euler", "rk4_munthe_kaas"])
    def test_zero_field_is_identity(self, scheme):
        rng = np.random.default_rng(3)
        r0 = so3.expm(rng.normal(size=3))
        v0 = rng.normal(size=4)
        (r, vec) = step_lie(
            lambda t, r, v: (so3.components(np.zeros(3)),
                             so3.components(np.zeros(4))),
            0.0, (so3.components(r0, 2), so3.components(v0)), 0.1,
            scheme=scheme)
        assert np.array_equal(so3.from_components(r, (3, 3)), r0)
        assert np.array_equal(so3.from_components(vec, (4,)), v0)

    def test_free_body_energy_drift_rk4(self):
        cfg = IntegratorConfig(step=1e-3, duration=10.0, reproject=False)
        hist = integrate_components(
            free_body_field, (np.eye(3), np.array([1.0, 1.0, 1.0])), cfg)
        energy = 0.5 * np.einsum("ni,ij,nj->n", hist.vectors, FREE_I,
                                 hist.vectors)
        assert np.abs(energy - energy[0]).max() < 1e-8

    def test_spatial_momentum_drift_rk4(self):
        cfg = IntegratorConfig(step=1e-3, duration=10.0)
        hist = integrate_components(
            free_body_field, (np.eye(3), np.array([1.0, 1.0, 1.0])), cfg)
        mu = np.einsum("nij,nj->ni", hist.R,
                       hist.vectors @ FREE_I.T)
        assert np.abs(mu - mu[0]).max() < 1e-8

    def test_rk4_vs_tiny_step_euler(self):
        init = (np.eye(3), np.array([1.0, 1.0, 1.0]))
        rk4 = integrate_components(free_body_field, init,
                                   IntegratorConfig(step=1e-3, duration=0.1))
        euler = integrate_components(free_body_field, init,
                                     IntegratorConfig(step=1e-6, duration=0.1,
                                                      scheme="lie_euler"))
        assert np.abs(rk4.R[-1] - euler.R[-1]).max() < 1e-6
        assert np.abs(rk4.vectors[-1] - euler.vectors[-1]).max() < 1e-6

    def test_unknown_scheme_rejected(self):
        state = so3.components(np.eye(3), 2), [0.0]
        with pytest.raises(ValueError, match="^unknown scheme 'rk5'$"):
            step_lie(lambda t, r, v: ((0.0,) * 3, [0.0]), 0.0, state, 0.1,
                     scheme="rk5")


class TestConvergence:
    def test_fourth_order_on_free_body(self):
        init = (np.eye(3), np.array([1.0, 1.0, 1.0]))
        ref = integrate_components(free_body_field, init,
                                   IntegratorConfig(step=1e-4, duration=2.0,
                                                    reproject=False))
        errs = []
        for h in (0.02, 0.01, 0.005):
            out = integrate_components(free_body_field, init,
                                       IntegratorConfig(step=h, duration=2.0,
                                                        reproject=False))
            errs.append(np.linalg.norm(out.R[-1] - ref.R[-1])
                        + np.linalg.norm(out.vectors[-1] - ref.vectors[-1]))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert (orders > 3.7).all() and (orders < 4.3).all()
        # halving the step cuts the endpoint error by roughly 16x
        assert 12.0 < errs[0] / errs[1] < 20.0

    def test_lie_euler_first_order(self):
        init = (np.eye(3), np.array([1.0, 1.0, 1.0]))
        # RK4 at h = 1e-4 is within 3e-14 of h = 1e-5, far below the
        # Euler errors (about 3e-3 and 1.6e-3) measured against it
        ref = integrate_components(free_body_field, init,
                                   IntegratorConfig(step=1e-4, duration=0.5))
        errs = []
        for h in (0.01, 0.005):
            out = integrate_components(free_body_field, init,
                                       IntegratorConfig(step=h, duration=0.5,
                                                        scheme="lie_euler"))
            errs.append(np.linalg.norm(out.vectors[-1] - ref.vectors[-1]))
        order = np.log2(errs[0] / errs[1])
        assert 0.8 < order < 1.2


class TestInvariants:
    def test_determinism_bit_identical(self):
        init = (so3.expm([0.1, 0.2, 0.3]), np.array([0.5, -0.2, 0.9]))
        cfg = IntegratorConfig(step=1e-3, duration=1.0)
        a = integrate_components(free_body_field, init, cfg)
        b = integrate_components(free_body_field, init, cfg)
        assert np.array_equal(a.R, b.R)
        assert np.array_equal(a.vectors, b.vectors)

    def test_group_preservation_with_reproject(self):
        cfg = IntegratorConfig(step=1e-3, duration=5.0, reproject=True)
        hist = integrate_components(
            free_body_field, (np.eye(3), np.array([1.0, 1.0, 1.0])), cfg)
        gram = np.einsum("nji,njk->nik", hist.R,
                         hist.R) - np.eye(3)
        assert np.sqrt((gram ** 2).sum(axis=(1, 2))).max() < 1e-12

    def test_diverged_state_reports_first_bad_step(self):
        def blowup(t, r, vec):
            # float products overflow to inf; the overflow is the point
            return (0.0, 0.0, 0.0), [x * x * x for x in vec]

        with pytest.raises(DivergedStateError) as err:
            integrate_components(
                blowup, (np.eye(3), np.array([5.0, 0.0, 0.0])),
                IntegratorConfig(step=1.0, duration=100.0))
        assert err.value.step_index >= 1
        assert err.value.time > 0.0

    @pytest.mark.parametrize("target", ["vector", "rotation"])
    def test_divergence_reports_exact_step(self, target):
        # RK4 evaluates the field at t, t + h/2 and t + h, so the first
        # evaluation past t = 0.37 is the last stage of the step ending at
        # t = 0.4, step index 4
        cfg = IntegratorConfig(step=0.1, duration=1.0)

        def field(t, r, vec):
            zero = (0.0, 0.0, 0.0)
            bad = (np.nan, 0.0, 0.0) if t > 0.37 else zero
            if target == "vector":
                return zero, bad
            return bad, zero

        with pytest.raises(DivergedStateError) as err:
            integrate_components(field, (np.eye(3), np.ones(3)), cfg)
        assert err.value.step_index == 4
        assert err.value.time == 4 * cfg.step

    def test_finite_state_summing_past_float_range_is_not_diverged(self):
        vec = np.array([1.5e308, 1.5e308, -0.0])
        hist = integrate_components(zero_field, (np.eye(3), vec),
                                    IntegratorConfig(step=0.1, duration=0.3))
        assert np.array_equal(hist.vectors[-1], vec)

    def test_observer_sees_each_block_once_in_order(self):
        # whoever iterates the blocks observes them: 300 steps give blocks
        # of 128, 128 and the last 45 samples, each row the bits of the
        # History's attitude and then its vector state
        init = (so3.expm([0.1, 0.2, 0.3]), np.array([0.5, -0.2, 0.9]))
        cfg = IntegratorConfig(step=1e-3, duration=0.3)
        seen = list(integrate_blocks(free_body_field, init, cfg))
        hist = integrate_components(free_body_field, init, cfg)
        assert [start for start, _ in seen] == [0, 128, 256]
        assert [block.shape for _, block in seen] == [(128, 12), (128, 12),
                                                      (45, 12)]
        rows = np.column_stack([hist.R.reshape(-1, 9), hist.vectors])
        assert np.concatenate([b for _, b in seen]).tobytes() \
            == rows.tobytes()

    @pytest.mark.parametrize("bad_step", [4, 127, 128, 300])
    def test_observer_never_sees_a_failing_block(self, bad_step):
        # the blocks before the failing one are yielded, that one is not
        cfg = IntegratorConfig(step=1.0, duration=400.0)
        seen = []

        def field(t, r, vec):
            return (0.0, 0.0, 0.0), [np.inf if t > bad_step - 1 else 0.0]

        with pytest.raises(DivergedStateError) as err:
            for start, _ in integrate_blocks(
                    field, (np.eye(3), np.zeros(1)), cfg):
                seen.append(start)
        assert err.value.step_index == bad_step
        assert seen == list(range(0, bad_step // 128 * 128, 128))

    def test_rotor_field_matches_array_adapters(self):
        # along an integrated rotor body, the component field's rates are
        # the array adapters' (`rotor_accels`, `ReferenceProgram.torque`)
        # bit for bit
        cfg = scenario.benchmark_config("sinusoid", duration=0.5)
        ref = scenario.resolve_reference(cfg).reference
        program = cfg.program
        field = scenario._rotor_field(ref.params, program._torque)
        hist = integrate_components(
            field, (ref.R0, np.concatenate([ref.Theta0, ref.Omega0,
                                            ref.OmegaR0])),
            cfg.integrator)
        for t, r, vec in zip(hist.times, hist.R, hist.vectors):
            omega, vdot = field(t.item(), so3.components(r, 2), vec.tolist())
            d_omega, d_omega_r = dynamics.rotor_accels(
                ref.params, vec[3:6], vec[6:9], program.torque(t))
            assert np.array_equal(omega, vec[3:6])
            assert np.array_equal(vdot, np.concatenate([vec[6:9], d_omega,
                                                        d_omega_r]))

    def test_history_shapes(self):
        cfg = IntegratorConfig(step=0.1, duration=1.0)
        hist = integrate_components(
            free_body_field, (np.eye(3), np.array([1.0, 1.0, 1.0])), cfg)
        assert isinstance(hist, History)
        assert hist.times.shape == (11,)
        assert hist.R.shape == (11, 3, 3)
        assert hist.vectors.shape == (11, 3)
        assert np.allclose(np.diff(hist.times), 0.1, atol=1e-15)
