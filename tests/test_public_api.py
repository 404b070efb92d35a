"""The package's public surface, pinned: adding or removing a public name
must show up as a change to this list."""

import subsetpath

PUBLIC_NAMES = sorted([
    # submodules
    "components", "errors", "linalg", "objective", "oracle", "path", "simulate",
    "solver",
    # components
    "ComponentState", "FittedModel", "PickStrategy", "Q2Report", "adjusted_weights",
    "deflate", "fit", "loading_from_subset", "pev_cpev", "predict", "q2",
    "regression_coefficients",
    # errors
    "DegenerateLoadingError", "DegenerateScoreError",
    "DimensionError", "NonFiniteInputError", "ParseError", "SingularMatrixError",
    "SizeGuardError",
    # linalg
    "DominantPair", "center_columns", "top_eigpair",
    # objective
    "ObjectiveContext", "ObjectiveEval", "corner_values",
    "eval_batch", "grad_r", "lambda_max", "make_context", "r_of_t", "t_of_r",
    # oracle
    "OracleResult", "exhaustive_path",
    # path
    "GridConfig", "SizeBucket", "SolutionPath", "Subset", "best_row", "dynamic_grid",
    "path_to_dict", "prefix_rows", "score_buckets", "terminal_subset",
    # simulate
    "MetricsReport", "SimConfig", "SimInstance", "generate", "metrics",
    # solver
    "SolverRun", "minimize_batch",
])


def test_public_names_are_pinned():
    assert sorted(subsetpath.__all__) == PUBLIC_NAMES
