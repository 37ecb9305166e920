"""Envelope-smoothed augmented Lagrangian solvers for linearly constrained
weakly convex minimization, with inexact and prox-linear variants, classic
baselines, and oracle-backed convergence diagnostics."""

__version__ = "0.1.0"

from .envelope import (
    EnvelopeContext,
    InnerProxGradient,
    Paper72FastPath,
    PenaltyPlan,
    alpha_cap,
    alpha_from_beta,
    augmented_lagrangian,
    beta_for_target_alpha,
    lyapunov,
    potential_P,
    solve_subproblem,
    stationarity_stream,
)
from .errors import (
    AllZeroMatrix,
    GammaTooLarge,
    InsufficientData,
    InvalidSubproblemPath,
    MealoptError,
    MissingMetadata,
    NonFiniteValue,
    NonPositiveAlpha,
    NotComposite,
    PenaltyOutOfRange,
    RangeTooSmall,
    SchemaError,
    SubproblemNonconvexUnsupported,
    WindowTooShort,
)
from .experiments import (
    ExperimentBundle,
    ExperimentSpec,
    build_exp1,
    build_exp2,
    run_experiment,
)
from .fileio import load_problem, save_problem, save_trace
from .oracle import (
    KKTReport,
    RateFit,
    active_set_qp_oracle,
    box_qp_faces,
    box_qp_global_min,
    finite_diff_check,
    grid_prox_oracle,
    kkt_residual,
    rate_fit,
)
from .problem import (
    MCP,
    SCAD,
    BoxIndicator,
    ImplicitClass,
    L1,
    LinearConstraint,
    PointwiseMin,
    Problem,
    QuadraticForm,
    QuadraticSmooth,
    SmoothFunction,
    Zero,
    moreau_value_grad,
    objective_value,
    probe_implicit_class,
    prox,
    smallest_positive_eigenvalue,
)
from .rng import SplitMix64
from .solvers import (
    EpsilonSchedule,
    IterateState,
    MonitorFlags,
    SolverConfig,
    StepReport,
    StopRule,
    Trace,
    alm_step,
    imeal_step,
    limeal_step,
    meal_step,
    prox_ialm_step,
    run,
)
