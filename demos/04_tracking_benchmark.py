"""Closed-loop attitude tracking with rotor actuation.

Runs the bundled benchmark scenario with a certified gain set, prints the
convergence and conservation record, and plots reference-vs-plant attitude
entries in the usual style (reference red, controlled trajectory blue).

Run:  python demos/04_tracking_benchmark.py     (writes tracking.png)
"""

import numpy as np

from gyrotrack import benchmark_config, certified_gains, run_closed_loop

cfg = benchmark_config(program="constant", gains=certified_gains(),
                       duration=30.0)
print("running the constant-torque benchmark with certified gains "
      f"(kp={cfg.gains.kp:.3f}, kd={cfg.gains.kd:.1f}, ki={cfg.gains.ki:.3f})...")
traj, metrics = run_closed_loop(cfg)

print(f"navigation error psi: {metrics.psi_e[0]:.3f} -> {metrics.psi_e[-1]:.2e}")
print(f"geodesic error      : {metrics.geo_err[0]:.3f} -> "
      f"{metrics.geo_err[-1]:.2e} rad")
print(f"momentum drift      : {metrics.momentum_drift:.2e} "
      "(internal torques cannot change it)")
print(f"orthogonality drift : {metrics.ortho_drift:.2e}")
print(f"energy function     : {metrics.ecl[0]:.3f} -> {metrics.ecl[-1]:.2e}, "
      f"largest step increase {np.diff(metrics.ecl).max():.1e}")
print(f"rotor torque peak   : {metrics.effort_l2.max():.2f} N m")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 3, figsize=(12, 6))
    for ax, (i, j) in zip(axes.flat[:4], [(0, 0), (0, 1), (1, 0), (1, 1)]):
        ax.plot(traj.times, traj.R_d[:, i, j], "r", label="reference")
        ax.plot(traj.times, traj.R[:, i, j], "b", label="plant", alpha=0.7)
        ax.set_title(f"entry ({i + 1},{j + 1})")
        ax.set_xlabel("t [s]")
    axes.flat[0].legend()
    axes.flat[4].semilogy(traj.times, metrics.psi_e + 1e-18)
    axes.flat[4].set_title("psi(E)")
    axes.flat[4].set_xlabel("t [s]")
    axes.flat[5].plot(traj.times, metrics.effort_l2)
    axes.flat[5].set_title("|u_int| [N m]")
    axes.flat[5].set_xlabel("t [s]")
    fig.tight_layout()
    fig.savefig("tracking.png", dpi=120)
    print("wrote tracking.png")
except ImportError:
    print("matplotlib not available; skipped the figure")
