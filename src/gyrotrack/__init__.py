"""Geometric attitude tracking for rigid bodies with internal reaction rotors.

The package combines exact SO(3) primitives, the interconnected
body-plus-rotors dynamics with their conserved momentum map, an
almost-globally convergent PID tracking law with gain certification, a
fixed-step Lie-group integrator, and a scenario harness with a CLI.
"""

__version__ = "0.1.0"

from .control import (BENCHMARK_LAMBDA_SUP, BENCHMARK_MU_HESS,
                      FeasibilityVerdict, GainSet, NavigationWeights,
                      control_uext, control_uint, ecl_rate_bound, ecl_value,
                      error_field, error_state, gain_derive, gain_feasible,
                      lambda_sup_formula, mu_hess_formula, nav_dpsi,
                      nav_hessian, nav_psi, pd_variant, q_matrix,
                      synthesize_gains)
from .dynamics import (InertiaParams, free_body_field, mechanical_connection,
                       momentum_body, momentum_spatial)
from .errors import (ConfigParseError, DivergedStateError, GainSynthesisError,
                     GyrotrackError, KappaOutOfRangeError, NotSkewError,
                     SchemaMismatchError, SingularMetricError)
from .integrators import (History, IntegratorConfig, integrate_components,
                          step_lie)
from .scenario import (BodySetup, ClosedLoopTrajectory, EffortComparison,
                       ReferenceProgram, RunMetrics, ScenarioConfig,
                       benchmark_config, benchmark_gains, benchmark_plant,
                       benchmark_reference, certified_gains,
                       certified_region_mask, compare_efforts,
                       consistent_rotor_velocity, on_reference_variant,
                       plant_spatial_momentum, resolve_reference,
                       run_closed_loop)
from .so3 import (connection_term, cross3, expm, geodesic_distance, hat,
                  is_rotation, logm, rotation_angle, vee)
