"""Gain selection: certification inequalities and the PD-vs-PID effort cost.

The energy-decay certificate requires k_p above a floor and k_I below a
bound, both functions of (k_d, kappa) and two navigation-function bounds
(the Hessian bound mu and the gradient ratio lambda).  The bundled
benchmark gain triple (1, 3, 1) fails its own floor for every admissible
kappa; a synthesized set passes and converges faster.

Run:  python demos/05_gain_certification.py
"""

import numpy as np

from gyrotrack import (benchmark_config, benchmark_gains, certified_gains,
                       compare_efforts, gain_feasible, lambda_sup_formula,
                       mu_hess_formula, q_matrix, synthesize_gains)
from gyrotrack.scenario import BENCHMARK_PLANT_I

np.set_printoptions(precision=5, suppress=True)

# The certification bounds of the plant inertia, from its eigenvalues.
i_plant = BENCHMARK_PLANT_I
print("mu    (formula):", mu_hess_formula(i_plant))
print("lambda(formula):", lambda_sup_formula(i_plant))

for label, gains in (("stored benchmark", benchmark_gains()),
                     ("synthesized", synthesize_gains(i_plant))):
    verdict = gain_feasible(gains)
    print(f"\n{label}: kp={gains.kp:.4g} kd={gains.kd:.4g} ki={gains.ki:.4g} "
          f"kappa={gains.kappa:.4g}")
    print("  Q eigenvalues :", np.linalg.eigvalsh(q_matrix(gains)))
    print(f"  kp floor      : {verdict.kp_floor:.4g} "
          f"(any kappa: >= {verdict.kp_floor_any_kappa:.4g})")
    print(f"  ki bound      : {verdict.ki_bound:.4g}")
    print(f"  verdict       : {'feasible' if verdict.feasible else 'infeasible'}")

# Control-effort comparison on the same reference: full PID vs the same law
# with the integral channel removed.
print("\ncomparing effort on the constant-torque benchmark (10 s)...")
cfg = benchmark_config(program="constant", gains=certified_gains(),
                       duration=10.0)
result = compare_efforts(cfg)
print(f"integral of |u_int| dt, PID: {result.proposed_integral:.3f}")
print(f"integral of |u_int| dt, PD : {result.baseline_integral:.3f}")
print(f"ratio                      : "
      f"{result.proposed_integral / result.baseline_integral:.4f}")
