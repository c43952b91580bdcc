"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured values they carry.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from gyrotrack import control, dynamics, scenario, so3
from gyrotrack.cli import main
from gyrotrack.integrators import IntegratorConfig, integrate_components

REPO = Path(__file__).resolve().parent.parent
PROGRAMS = ("zero", "constant", "sinusoid")


def _report(num, label, ok, detail):
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def certified_runs(certified_zero_run):
    runs = {"zero": certified_zero_run}   # the same 30 s config, run once
    for program in PROGRAMS[1:]:
        cfg = scenario.benchmark_config(
            program=program, gains=scenario.certified_gains(), duration=30.0)
        runs[program] = (cfg,) + scenario.run_closed_loop(cfg)
    return runs


@pytest.fixture(scope="module")
def stored_gain_runs():
    # the bundled (1, 3, 1) triple with its stored certification constants
    runs = {}
    for program in PROGRAMS:
        cfg = scenario.benchmark_config(program=program, duration=30.0)
        runs[program] = (cfg,) + scenario.run_closed_loop(cfg)
    return runs


def test_criterion_1_conservation():
    cfg = scenario.benchmark_config(program="zero", duration=20.0)
    start = time.perf_counter()
    _, metrics = scenario.run_closed_loop(cfg)
    elapsed = time.perf_counter() - start
    ok = (metrics.momentum_drift < 1e-6
          and metrics.ortho_drift < 1e-9
          and elapsed < 10.0)
    _report(1, "conservation on the zero-torque benchmark", ok,
            f"momentum drift {metrics.momentum_drift:.2e} < 1e-6, "
            f"orthogonality {metrics.ortho_drift:.2e} < 1e-9, "
            f"runtime {elapsed:.1f} s < 10 s")


def test_criterion_2_actuation_equivalence(equivalence_runs):
    _, (traj_int, _), (traj_ext, _) = equivalence_runs
    sup = max(np.abs(traj_int.R - traj_ext.R).max(),
              np.abs(traj_int.Omega - traj_ext.Omega).max())
    _report(2, "rotor-torque conversion reproduces the external loop",
            sup < 1e-6, f"sup-norm deviation {sup:.2e} < 1e-6 over 10 s")


def test_criterion_3_tracking_convergence(certified_runs, stored_gain_runs):
    details = []
    ok = True
    for program in PROGRAMS:
        cfg, traj, metrics = certified_runs[program]
        tail = traj.times >= 25.0
        psi_tail = metrics.psi_e[tail].max()
        geo_tail = metrics.geo_err[tail].max()
        ok &= psi_tail < 1e-2 and geo_tail < 1e-1
        ok &= control.gain_feasible(cfg.gains).feasible
        details.append(f"{program}: psi<= {psi_tail:.1e}, geo<= {geo_tail:.1e}")
    # benchmark (1, 3, 1) gains: outcome recorded, verdict must say infeasible
    for program in PROGRAMS:
        cfg, _, metrics = stored_gain_runs[program]
        ok &= not control.gain_feasible(cfg.gains).feasible
        details.append(f"{program}[kp,kd,ki=1,3,1]: psi(30)="
                       f"{metrics.psi_e[-1]:.2e}, verdict=infeasible")
    _report(3, "certified gains converge on all three programs", ok,
            "; ".join(details))


def test_criterion_4_invariance_of_reference():
    cfg = scenario.on_reference_variant(
        scenario.benchmark_config(program="sinusoid", duration=5.0))
    _, metrics = scenario.run_closed_loop(cfg)
    peak = metrics.psi_e.max()
    _report(4, "plant started on the reference stays on it", peak < 1e-8,
            f"max psi {peak:.2e} < 1e-8 over 5 s")


def test_criterion_5_energy_decay(certified_runs):
    ok = True
    details = []
    for program in PROGRAMS:
        cfg, traj, metrics = certified_runs[program]
        h = cfg.integrator.step
        rate = np.diff(metrics.ecl) / h
        mask = scenario.certified_region_mask(cfg, traj)
        both = mask[:-1] & mask[1:]
        bound = control.ecl_rate_bound(
            cfg.plant.params.body_inertia, cfg.weights.P, cfg.gains,
            *control.error_state(traj.R, traj.Omega, traj.R_d, traj.Omega_d),
            traj.xi_I)
        worst = (rate[both] - bound[:-1][both]).max()
        step_rise = np.diff(metrics.ecl).max()
        ok &= worst <= 1e-4 and step_rise <= 1e-6 and both.any()
        details.append(f"{program}: rate-bound gap {worst:.1e} <= 1e-4 on "
                       f"{both.mean():.0%} certified samples, "
                       f"max step rise {step_rise:.1e} <= 1e-6")
    _report(5, "energy function decays within its certified bound", ok,
            "; ".join(details))


def test_criterion_6_gain_certification():
    rng = np.random.default_rng(2024)
    disagreements = 0
    for _ in range(1000):
        mu = rng.uniform(1.2, 8.0)
        kappa = np.clip(rng.uniform(1.0 / mu, 2.0 / mu),
                        1.001 / mu, 1.999 / mu)
        gains = control.gain_derive(rng.uniform(0.1, 60.0),
                                    rng.uniform(0.5, 6.0),
                                    rng.uniform(0.01, 8.0),
                                    kappa, mu, rng.uniform(0.3, 3.0))
        q = control.q_matrix(gains)
        minors_pd = (q[0, 0] > 0.0 and np.linalg.det(q[:2, :2]) > 0.0
                     and np.linalg.det(q) > 0.0)
        eig_pd = bool(np.linalg.eigvalsh(q).min() > 0.0)
        disagreements += minors_pd != eig_pd

    mu, kappa, kd = 2.0048, 0.6, 3.0
    sigma = 2.0 - mu * kappa
    ki_boundary = (kd ** 3 / mu) * (1.0 - sigma ** 2)
    g = control.gain_derive(2.5 * kappa * kd ** 2, kd, ki_boundary, kappa, mu)
    lam_min = abs(np.linalg.eigvalsh(control.q_matrix(g)).min())
    ok = disagreements == 0 and lam_min < 1e-8
    _report(6, "principal-minor test agrees with the eigenvalue oracle", ok,
            f"{disagreements} disagreements in 1000 draws, "
            f"boundary |lambda_min| {lam_min:.1e} < 1e-8")


def test_criterion_7_numerics():
    # gradient vs central differences
    rng = np.random.default_rng(7)
    h = 1e-6
    worst_fd = 0.0
    for _ in range(100):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        p = q @ np.diag(np.sort(rng.uniform(0.5, 3.0, 3))
                        + [0.0, 0.3, 0.6]) @ q.T
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        e = so3.expm(rng.uniform(0.0, np.pi - 0.1) * axis)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        fd = (control.nav_psi(p, e @ so3.expm(h * v))
              - control.nav_psi(p, e @ so3.expm(-h * v))) / (2.0 * h)
        worst_fd = max(worst_fd, abs(fd - control.nav_dpsi(p, e) @ v))

    # measured convergence order of the group integrator
    field = dynamics.free_body_field(np.diag([1.0, 2.0, 3.0]))
    init = (np.eye(3), np.array([1.0, 1.0, 1.0]))
    ref = integrate_components(field, init,
                               IntegratorConfig(step=1e-4, duration=2.0))
    errs = []
    for step in (0.02, 0.01, 0.005):
        out = integrate_components(field, init,
                                   IntegratorConfig(step=step, duration=2.0))
        errs.append(np.linalg.norm(out.R[-1] - ref.R[-1])
                    + np.linalg.norm(out.vectors[-1] - ref.vectors[-1]))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))

    # scheme cross-check
    rk4 = integrate_components(field, init,
                               IntegratorConfig(step=1e-3, duration=0.1))
    euler = integrate_components(field, init,
                                 IntegratorConfig(step=1e-6, duration=0.1,
                                                  scheme="lie_euler"))
    cross = max(np.abs(rk4.R[-1] - euler.R[-1]).max(),
                np.abs(rk4.vectors[-1] - euler.vectors[-1]).max())

    ok = (worst_fd < 1e-6 and (orders > 3.7).all() and (orders < 4.3).all()
          and cross < 1e-6)
    _report(7, "gradient, order and cross-scheme checks", ok,
            f"max FD error {worst_fd:.1e} < 1e-6, orders "
            f"{np.round(orders, 2).tolist()} in [3.7, 4.3], "
            f"rk4-vs-euler {cross:.1e} < 1e-6")


def test_criterion_8_determinism(tmp_path):
    text = (REPO / "configs" / "benchmark_zero.cfg").read_text().replace(
        "integrator.duration = 30", "integrator.duration = 2")
    cfg = tmp_path / "short.cfg"
    cfg.write_text(text)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", str(cfg), "-o", str(out_a)]) == 0
    assert main(["simulate", str(cfg), "-o", str(out_b)]) == 0
    same_csv = out_a.read_bytes() == out_b.read_bytes()
    same_meta = out_a.with_suffix(".meta.json").read_bytes() \
        == out_b.with_suffix(".meta.json").read_bytes()
    _report(8, "simulate reruns are byte-identical", same_csv and same_meta,
            f"csv identical: {same_csv}, metadata identical: {same_meta}")
