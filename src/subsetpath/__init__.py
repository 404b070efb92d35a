"""Best-subset solution paths for linear dimension-reduction models.

Computes, for each subset size k, the best k-variable subset for building
PCA and PLS components, by gradient descent on a penalized continuous
relaxation of the discrete selection problem. Includes multi-component
fitting via deflation, prediction, an exact oracle (pls1 at any p, pls2
and pca at small p), and simulation-study tooling.
"""

__version__ = "0.1.0"

from .components import (
    ComponentState,
    FittedModel,
    PickStrategy,
    Q2Report,
    adjusted_weights,
    deflate,
    fit,
    loading_from_subset,
    pev_cpev,
    predict,
    q2,
    regression_coefficients,
)
from .errors import (
    DegenerateLoadingError,
    DegenerateScoreError,
    DimensionError,
    NonFiniteInputError,
    ParseError,
    SingularMatrixError,
    SizeGuardError,
)
from .linalg import DominantPair, center_columns, top_eigpair
from .objective import (
    ObjectiveContext,
    ObjectiveEval,
    corner_values,
    eval_batch,
    grad_r,
    lambda_max,
    make_context,
    r_of_t,
    t_of_r,
)
from .oracle import OracleResult, exhaustive_path
from .path import (
    GridConfig,
    SizeBucket,
    SolutionPath,
    Subset,
    best_row,
    dynamic_grid,
    path_to_dict,
    prefix_rows,
    score_buckets,
    terminal_subset,
)
from .simulate import MetricsReport, SimConfig, SimInstance, generate, metrics
from .solver import SolverRun, minimize_batch

__all__ = [name for name in dir() if not name.startswith("_")]
