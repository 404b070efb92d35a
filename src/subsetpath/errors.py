"""Exception types shared across the package.

The CLI maps these onto stable exit codes (see cli.py): parse errors -> 2,
dimension errors -> 3, solver aborts and non-finite input -> 4, singular
systems -> 5, size guards -> 6, degenerate loadings or scores -> 7. No
eigen-solve raises: linalg.top_eigpair finishes every solve its power
steps do not settle with a dense one.
"""


class ParseError(ValueError):
    """Malformed input file (CSV/JSON), or options that cannot be combined;
    the message names the offending location or options."""


class DimensionError(ValueError):
    """Shapes or sizes inconsistent with the requested operation."""


class NonFiniteInputError(ValueError):
    """An input matrix holds a NaN or an infinite value, or (in the oracle)
    its cross-products overflow."""


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
