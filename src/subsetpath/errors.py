"""Exception types shared across the package.

The CLI maps these onto stable exit codes (see cli.py): parse errors -> 2,
dimension errors -> 3, solver aborts, convergence failures and non-finite
input -> 4, singular systems -> 5, size guards -> 6, degenerate loadings or
scores -> 7.
"""


class ParseError(ValueError):
    """Malformed input file (CSV/JSON); message names the offending location."""


class DimensionError(ValueError):
    """Shapes or sizes inconsistent with the requested operation."""


class NonFiniteInputError(ValueError):
    """An input matrix holds a NaN or an infinite value."""


class ConvergenceFailure(RuntimeError):
    """An eigen-solve by power iteration (the warm large-matrix route of
    top_eigpair) hit its iteration cap.

    Carries the last iterate in ``last`` so callers can decide whether the
    partial answer is acceptable.
    """

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class SolverAbort(RuntimeError):
    """Gradient descent produced a non-finite value, or no penalty value
    in a grid produced a usable run."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class SingularMatrixError(RuntimeError):
    """A linear system required by the model is singular or ill-conditioned."""


class SizeGuardError(ValueError):
    """Problem size exceeds a hard guard (exhaustive search refusal)."""


class DegenerateLoadingError(RuntimeError):
    """A masked cross-covariance or covariance block is identically zero."""


class DegenerateScoreError(RuntimeError):
    """A component score has zero norm, so deflation is undefined."""
