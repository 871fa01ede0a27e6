"""One-dimensional ADER finite-volume solver for hyperbolic balance laws.

High-order (2..5) one-step finite-volume schemes whose space-time predictor
combines an implicit Taylor expansion with a recursive simplified
Cauchy-Kowalewskaya procedure, handling stiff source terms implicitly.  The
package exports the run surface; the layers below ``RunConfig`` and
``CellField`` are imported from their modules and expect checked inputs.
"""
from .harness import (ConvergenceReport, PresetCase, build_config,
                      convergence_study, error_norms, field_interpolant,
                      make_case, shu_osher_reference)
from .predictor import PredictorConfig, PredictorError
from .scheme import RunConfig, RunResult, SchemeError, StepStats, run
from .systems import (HyperbolicSystem, InadmissibleStateError, RootFindError,
                      euler_system, leveque_yee_system, linear_system,
                      nonlinear_system)
from .weno import CellField, WenoConfig

__version__ = "0.1.0"
