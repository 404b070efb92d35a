"""Dense matrix primitives: the 2-D check every entry point applies to X,
column centering and the package's one dominant-eigenpair routine,
top_eigpair. It solves one matrix cold, by dense eigh, with its vector
sign-normalized, or a (B, d, d) stack cold or warm: the solver passes a
stack to solve the eigenproblems of a whole sweep of penalties in one
call. Warm-started solves of small matrices take one power step with the
64th power of A / tr A, those of larger ones repeated power steps, each
stacked across all the matrices of a call; any matrix the steps do not
settle is finished with dense eigh, so no solve fails.

Everything operates on plain float ndarrays. All functions are pure; the
returned arrays never alias their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonFiniteInputError

# Relative tolerance of the power steps' stopping test.
TOL = 1e-10

# Largest dimension at which a warm-started top_eigpair call takes one
# squared power step; larger ones take repeated power steps, which beat
# dense eigh above it (sweep in CHANGES.md).
EIGH_CROSSOVER = 24

# Squarings in that step: it applies (A / tr A)^64, which settled 62% and
# 89% of the warm solves of pure-noise pca paths at p = 15 and p = 20,
# against 31% and 55% at A^32, and made those paths no slower than dense
# eigh (sweep in CHANGES.md).
_SQUARINGS = 6

# Power steps a matrix may take before dense eigh finishes it (sweep in
# CHANGES.md).
POWER_STEP_CAP = 64


@dataclass(frozen=True)
class DominantPair:
    """Largest eigenvalue of a symmetric PSD matrix and its unit eigenvector;
    ``iterations`` counts power steps (also those a matrix took before its
    dense finish; 0 on a cold solve, 1 on the squared step). Only the
    vector of a single cold matrix is sign-normalized (entry of largest
    magnitude positive); the others keep the sign their solve gives them,
    which the solver's gradient and warm starts do not depend on.

    For a stack of B matrices every field is stacked: value and iterations
    have shape (B,), vector (B, d)."""

    value: float
    vector: np.ndarray
    iterations: int


def column_means(A: np.ndarray, name: str) -> np.ndarray:
    """Column means of a 2-D matrix; NonFiniteInputError, naming the matrix
    ``name`` and the column, for a mean that is not finite, as when a
    column's sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        means = A.mean(axis=0)
    bad = np.flatnonzero(~np.isfinite(means))
    if bad.size:
        raise NonFiniteInputError(f"{name}: the mean of column {bad[0] + 1} is not finite")
    return means


def data_matrix(X) -> np.ndarray:
    """X as a float array; DimensionError unless it is 2-D."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError(f"X must be 2-D, got ndim={X.ndim}")
    return X


def center_columns(X: np.ndarray) -> np.ndarray:
    """Subtract each column mean (column_means) of a 2-D X (data_matrix);
    requires at least two rows."""
    X = data_matrix(X)
    if X.shape[0] < 2:
        raise DimensionError(f"need at least 2 rows to center, got {X.shape[0]}")
    return X - column_means(X, "X")


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # Entry of largest magnitude made positive, for stable serialization.
    j = int(np.argmax(np.abs(v)))
    return -v if v[j] < 0 else v


def top_eigpair(A: np.ndarray, v0: np.ndarray | None = None) -> DominantPair:
    """Dominant eigenpair of a symmetric PSD matrix, such as a Gram product,
    solved cold, or of each matrix in a (B, d, d) stack, solved cold or
    warm-started from the rows of a (B, d) ``v0`` (the pair is then
    stacked, see DominantPair).

    Cold solves (``v0`` None) go to numpy's dense ``eigh``, which reads one
    triangle; only a single matrix's vector is sign-normalized (_fix_sign).
    Warm-started stacks take _squared_step up to EIGH_CROSSOVER rows and
    _power_steps above it; their vectors are not sign-normalized: they
    keep the sign their start gives them. A single matrix with ``v0``, or
    a matrix or stack with a non-finite entry, raises ValueError."""
    A = np.asarray(A, dtype=float)
    if A.ndim == 2 and v0 is not None:
        raise ValueError("a single matrix is solved cold; warm-start a (B, d, d) stack")
    if not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    if A.ndim == 2:
        w, V = np.linalg.eigh(A)
        # The vector stays a view of eigh's column where its sign allows:
        # BLAS products round differently on strided and contiguous
        # vectors, and callers' outputs are pinned to this layout.
        return DominantPair(float(w[-1]), _fix_sign(V[:, -1]), 0)
    B, d = A.shape[:2]
    if v0 is None:
        pair = DominantPair(np.empty(B), np.empty((B, d)), np.zeros(B, dtype=int))
        _dense_finish(A, np.ones(B, dtype=bool), pair.value, pair.vector)
        return pair
    warm = _squared_step if d <= EIGH_CROSSOVER else _power_steps
    return warm(A, np.asarray(v0, dtype=float))


def _squared_step(A: np.ndarray, v0: np.ndarray) -> DominantPair:
    """Dominant eigenpairs of a finite (B, d, d) stack of symmetric PSD
    matrices by one power step with a high matrix power, warm-started from
    the rows of v0: the warm small-matrix route of top_eigpair.

    Each row forms P = A / tr A and squares it _SQUARINGS times, then takes
    v = P v0 / ||P v0|| and eta = v^T A v. P has its eigenvalues in [0, 1]
    and its top one at least 1/d, so the powers neither overflow nor
    vanish; the step damps the other eigendirections by
    (lambda_2 / lambda_1)^(2^_SQUARINGS). A row settles when
    ||A v - eta v||_inf <= TOL * eta; the others (near-tied, zero-trace or
    overflowing ones, and those whose start is orthogonal to the top
    eigenvector) are finished by dense ``eigh``. Every row counts one
    step. Rows share no arithmetic, so each row gets the pair it would get
    alone."""
    B = v0.shape[0]
    with np.errstate(all="ignore"):
        # The trace is summed along a contiguous copy of the diagonal, so
        # the order of its additions does not depend on B.
        P = A / np.diagonal(A, axis1=1, axis2=2).copy().sum(axis=1)[:, None, None]
        for _ in range(_SQUARINGS):
            P = P @ P
        u = P @ v0[:, :, None]
        v = u / np.sqrt((u * u).sum(axis=1, keepdims=True))
        w = A @ v
        eta = (v * w).sum(axis=1, keepdims=True)
        settled = np.abs(w - eta * v).max(axis=1, keepdims=True) <= TOL * eta
    value, vector = eta[:, 0, 0], v[:, :, 0]
    _dense_finish(A, ~settled[:, 0, 0], value, vector)
    return DominantPair(value, vector, np.ones(B, dtype=int))


def _power_steps(A: np.ndarray, v0: np.ndarray) -> DominantPair:
    """Dominant eigenpairs of a finite (B, d, d) stack of symmetric PSD
    matrices by power iteration warm-started from the rows of v0, the warm
    large-matrix route of top_eigpair.

    Every row repeats v <- A v / ||A v|| and tracks the Rayleigh quotient
    eta = v^T A v until both the change in eta and the residual
    ||A v - eta v||_inf fall below TOL * max(1, eta); the rows still
    running take each step together. A row that has not stopped after
    POWER_STEP_CAP steps, or whose product A v vanishes (as from a zero
    start or one in the nullspace) or overflows, is finished by dense
    ``eigh``. Rows share no arithmetic, so each row gets the pair it would
    get alone."""
    B, d = v0.shape
    value, vector = np.empty(B), np.empty((B, d))
    steps = np.full(B, POWER_STEP_CAP)
    solved = np.zeros(B, dtype=bool)
    rows, Ar = np.arange(B), A  # the rows still running and their matrices
    with np.errstate(all="ignore"):
        # Vectors are kept as (B, d, 1) columns and scalars as (B, 1, 1).
        v = v0[:, :, None] / np.sqrt((v0 * v0).sum(axis=1))[:, None, None]
        w = Ar @ v
        eta = (v * w).sum(axis=1, keepdims=True)
        for it in range(1, POWER_STEP_CAP + 1):
            v = w / np.sqrt((w * w).sum(axis=1, keepdims=True))
            w = Ar @ v
            eta_next = (v * w).sum(axis=1, keepdims=True)
            bound = TOL * np.maximum(1.0, np.abs(eta_next))
            # A row ends once both tests hold; a product that vanished or
            # overflowed leaves eta NaN or infinite, which ends the row for
            # the dense finish.
            ended = ~(np.abs(eta_next - eta) > bound)
            eta = eta_next
            if not ended.any():
                continue
            ended &= ~(np.abs(w - eta * v).max(axis=1, keepdims=True) > bound)
            if not ended.any():
                continue
            ended = ended[:, 0, 0]
            settled = ended & np.isfinite(eta[:, 0, 0])
            solved[rows[settled]] = True
            value[rows[settled]] = eta[settled, 0, 0]
            vector[rows[settled]] = v[settled, :, 0]
            steps[rows[ended]] = it
            rows, Ar, w, eta = (a[~ended] for a in (rows, Ar, w, eta))
            if not rows.size:
                break
    _dense_finish(A, ~solved, value, vector)
    return DominantPair(value, vector, steps)


def _dense_finish(A: np.ndarray, rest: np.ndarray, value: np.ndarray,
                  vector: np.ndarray) -> None:
    # Overwrite the pairs of the rows flagged in ``rest`` with dense eigh's.
    rest = np.flatnonzero(rest)
    if rest.size:
        w, V = np.linalg.eigh(A[rest])
        value[rest], vector[rest] = w[:, -1], V[:, :, -1]
