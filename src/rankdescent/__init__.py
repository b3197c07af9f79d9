"""Projected line-search descent on varieties of bounded-rank matrices."""

from .core import (
    FactoredMatrix,
    IndexSet,
    SparseOnMask,
    frob_norm,
    mask_apply,
    numerical_rank,
    svd,
    truncate,
)
from .geometry import (
    ConeTangentVector,
    VarietyPoint,
    affine_update,
    choose_flat_direction,
    g_lower_bound,
    make_point,
    partial_directions,
    project_cone,
    project_tangent_space,
    retract,
    zero_point,
)
from .linesearch import (
    ArmijoConfig,
    LineSearchError,
    StepOutcome,
    angle_check,
    armijo,
    descent_monitors,
    initial_step,
)
from .objectives import MatrixCompletion, Objective, QuadraticDistance
from .solvers import (
    RateFit,
    SolveResult,
    SolveStatus,
    SolverConfig,
    TraceRecord,
    VARIANT_RF,
    VARIANT_SD,
    rate_fit,
    solve,
)
from .bench import (
    CompletionSpec,
    InfeasibleSpecError,
    PRESETS,
    gen_problem,
    initial_guess,
    missing_percent,
    omega_size,
    rel_errors,
    run_experiment,
)

__version__ = "0.1.0"
