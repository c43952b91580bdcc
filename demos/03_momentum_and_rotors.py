"""The rotor-carrying body: momentum map, connection, admissible references.

Internal torques cannot change the total angular momentum, so the plant's
spatial momentum R Pi is a hard invariant and any reference the plant can
follow must carry the same value.  This script builds the bundled
benchmark bodies, derives the reference's initial rotor rates from that
constraint, and verifies the invariant numerically on both bodies of one
tracking run, the reference under a forcing torque program.

Run:  python demos/03_momentum_and_rotors.py
"""

import numpy as np

from gyrotrack import (benchmark_config, benchmark_plant,
                       benchmark_reference, consistent_rotor_velocity,
                       mechanical_connection, momentum_body, momentum_spatial,
                       plant_spatial_momentum, resolve_reference,
                       run_closed_loop)

np.set_printoptions(precision=6, suppress=True)

plant = benchmark_plant()
print("plant body momentum Pi(0)   :",
      momentum_body(plant.params, plant.Omega0, plant.OmegaR0))
mu = plant_spatial_momentum(plant)
print("plant spatial momentum mu   :", mu)

# The locked inertia tensor (rotors frozen) relates the momentum to the
# mechanical connection: A = (I+K)^{-1} Pi.
conn = mechanical_connection(plant.params, plant.Omega0, plant.OmegaR0)
check = np.linalg.solve(plant.params.locked,
                        momentum_body(plant.params, plant.Omega0,
                                      plant.OmegaR0))
print("connection A                :", conn)
print("locked^{-1} Pi              :", check)

# A much smaller dummy body can still carry the same total momentum: the
# difference is absorbed by its rotors.
ref = benchmark_reference()
omega_r0 = consistent_rotor_velocity(ref.params, ref.R0, ref.Omega0, mu)
print("\nreference rotor rates making J = mu:", omega_r0)
back = momentum_spatial(ref.R0, momentum_body(ref.params, ref.Omega0, omega_r0))
print("momentum reproduced          :", back, "(residual",
      np.abs(back - mu).max(), ")")

# The invariant survives arbitrary rotor torque programs.  A closed-loop
# run carries the reference body's record as its _d half; the plant,
# driven by the control's rotor torques, keeps its own momentum too.
cfg = resolve_reference(benchmark_config(program="sinusoid", duration=10.0))
traj, metrics = run_closed_loop(cfg)
p = cfg.reference.params
pi = traj.Omega_d @ p.locked.T + traj.OmegaR_d * p.rotor_inertia
mu_t = np.einsum("nij,nj->ni", traj.R_d, pi)
print(f"\nsinusoid-driven reference, 10 s: spatial momentum drift "
      f"{np.abs(mu_t - mu_t[0]).max():.2e}")
print(f"body rates stay bounded: max |Omega_d| = "
      f"{np.abs(traj.Omega_d).max():.3f} rad/s")
print(f"tracking plant, same run: spatial momentum drift "
      f"{metrics.momentum_drift:.2e}")
