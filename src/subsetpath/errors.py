"""Exception types shared across the package.

The CLI maps these onto stable exit codes (see cli.py): parse errors -> 2,
dimension errors -> 3, non-finite or oversized input -> 4, singular
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
    """An input matrix holds a NaN or an infinite value, a column mean of
    one overflows, or its cross-products overflow or exceed the bound the
    solver needs (objective.TRACE_LIMIT)."""


class SingularMatrixError(RuntimeError):
    """A linear system required by the model is singular or ill-conditioned."""


class SizeGuardError(ValueError):
    """Problem size exceeds a hard guard (exhaustive search refusal)."""


class DegenerateLoadingError(RuntimeError):
    """A masked cross-covariance or covariance block is identically zero."""


class DegenerateScoreError(RuntimeError):
    """A component score has zero norm, so deflation is undefined."""
