"""Free rigid body: conservation and integrator order.

A torque-free rigid body conserves kinetic energy and the spatial angular
momentum R I Omega.  Both are preserved to ~1e-13 over ten seconds by the
fourth-order group integrator, and the measured convergence order is 4.

The body's vector field is `free_body_field`: the Euler equation
I dOmega/dt = (I Omega) x Omega on Python floats, with its connection
table built once, as ``field(t, R, Omega) -> (Omega, dOmega)``.
`integrate_components` runs it directly from ``(R0, Omega0)`` and
collects the attitudes in ``hist.R``.

Run:  python demos/02_free_rigid_body.py        (writes free_body.png)
"""

import numpy as np

from gyrotrack import IntegratorConfig, free_body_field, integrate_components

I = np.diag([1.0, 2.0, 3.0])
free_body = free_body_field(I)

initial = (np.eye(3), np.array([1.0, 1.0, 1.0]))
hist = integrate_components(free_body, initial,
                            IntegratorConfig(step=1e-3, duration=10.0))

energy = 0.5 * np.einsum("ni,ij,nj->n", hist.vectors, I, hist.vectors)
momentum = np.einsum("nij,nj->ni", hist.R, hist.vectors @ I.T)
print(f"energy drift          : {np.abs(energy - energy[0]).max():.2e}")
print(f"spatial momentum drift: {np.abs(momentum - momentum[0]).max():.2e}")

# Convergence study against a much finer reference solution.
ref = integrate_components(free_body, initial,
                           IntegratorConfig(step=1e-4, duration=2.0))
errors = []
steps = (0.02, 0.01, 0.005)
for h in steps:
    out = integrate_components(free_body, initial,
                               IntegratorConfig(step=h, duration=2.0))
    errors.append(np.linalg.norm(out.R[-1] - ref.R[-1]))
orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
print(f"endpoint errors at h={steps}: {[f'{e:.2e}' for e in errors]}")
print(f"measured order: {np.round(orders, 3)}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 3.5))
    ax1.plot(hist.times, hist.vectors)
    ax1.set_xlabel("t [s]")
    ax1.set_ylabel("Omega [rad/s]")
    ax1.set_title("tumbling body rates")
    ax2.semilogy(hist.times, np.abs(energy - energy[0]) + 1e-18)
    ax2.set_xlabel("t [s]")
    ax2.set_ylabel("|energy drift|")
    ax2.set_title("conservation")
    fig.tight_layout()
    fig.savefig("free_body.png", dpi=120)
    print("wrote free_body.png")
except ImportError:
    print("matplotlib not available; skipped the figure")
