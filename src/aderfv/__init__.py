"""One-dimensional ADER finite-volume solver for hyperbolic balance laws.

High-order (2..5) one-step finite-volume schemes whose space-time predictor
combines an implicit Taylor expansion with a recursive simplified
Cauchy-Kowalewskaya procedure, handling stiff source terms implicitly.
"""
from .ck import (NodeDerivativeStack, binom, leibniz_expand, m_vector,
                 matrix_c, matrix_d, pascal_coeffs, taylor_terms)
from .harness import (ConvergenceReport, MeshResult, PresetCase, build_config,
                      convergence_study, empirical_orders, error_norms,
                      field_interpolant, make_case, shu_osher_reference)
from .nodes import (NodeGrid, build_grid, gauss_legendre, newton_cotes_weights,
                    space_derivative, time_derivative)
from .predictor import (PredictorConfig, PredictorError, initial_guess,
                        newton_sweep, populate_stacks, predictor_solve)
from .scheme import (RunConfig, RunResult, SchemeError, StepStats,
                     cell_source, cfl_timestep, interface_flux,
                     project_initial, run, rusanov_flux, step)
from .systems import (HyperbolicSystem, InadmissibleStateError, PrimitiveState,
                      RootFindError, euler_conserved_to_primitive,
                      euler_primitive_to_conserved, euler_system,
                      leveque_yee_system, linear_system, nonlinear_exact,
                      nonlinear_system, shu_osher_initial)
from .weno import CellField, ReconstructionSet, WenoConfig, reconstruct

__version__ = "0.1.0"
