"""Dense matrix primitives: column centering and the package's one
dominant-eigenpair routine, top_eigpair (dense eigh, or warm power
iteration on large matrices). top_eigpair also takes a (B, d, d) stack,
which the solver passes to solve the eigenproblems of a whole sweep of
penalties in one call.

Everything operates on plain float ndarrays. All functions are pure; the
returned arrays never alias their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000

# Largest dimension at which a warm-started top_eigpair call still uses the
# dense solver; above it, warm power iteration is faster (sweep in CHANGES.md).
EIGH_CROSSOVER = 100

# Consecutive zero Rayleigh quotients tolerated before re-drawing the start
# vector (start landed in the nullspace).
_ZERO_STALL_LIMIT = 10
_MAX_REDRAWS = 50


@dataclass(frozen=True)
class DominantPair:
    """Largest eigenvalue of a symmetric PSD matrix and its unit eigenvector;
    ``iterations`` counts power-iteration steps, ``gap`` (dense route only,
    inf at 1 x 1) is the distance to the second eigenvalue.

    For a stack of B matrices every field is stacked: value, iterations and
    gap have shape (B,), vector (B, d); ``row(b)`` is the b-th pair."""

    value: float
    vector: np.ndarray
    iterations: int
    gap: float | None = None

    def row(self, b: int) -> "DominantPair":
        gap = None if self.gap is None else float(self.gap[b])
        return DominantPair(
            float(self.value[b]), self.vector[b], int(self.iterations[b]), gap
        )


def center_columns(X: np.ndarray) -> np.ndarray:
    """Subtract each column mean; requires at least two rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={X.ndim}")
    if X.shape[0] < 2:
        raise DimensionError(f"need at least 2 rows to center, got {X.shape[0]}")
    return X - X.mean(axis=0)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # Entry of largest magnitude made positive (in each row of a stack),
    # for stable serialization.
    if v.ndim == 1:
        j = int(np.argmax(np.abs(v)))
        return -v if v[j] < 0 else v
    j = np.argmax(np.abs(v), axis=1)
    flip = v[np.arange(v.shape[0]), j] < 0
    return np.where(flip[:, None], -v, v)


def _seed_vector(n: int, seed: int, offset: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed + 7919 * offset)
    v = rng.standard_normal(n)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = np.zeros(n)
        v[0] = 1.0
        return v
    return v / norm


def top_eigpair(
    A: np.ndarray,
    v0: np.ndarray | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DominantPair:
    """Dominant eigenpair of a symmetric PSD matrix, such as a Gram product,
    or of each matrix in a (B, d, d) stack (then ``v0`` is (B, d) and the
    pair is stacked, see DominantPair).

    Cold calls (``v0`` None) and matrices up to EIGH_CROSSOVER rows go to
    numpy's dense ``eigh``, which reads one triangle, in one stacked call;
    larger warm-started ones to power iteration from ``v0``, one matrix at
    a time, the only route that uses ``seed``, ``tol`` and ``max_iter``.
    Checks only finiteness: a single matrix with a non-finite entry raises
    ValueError, a stacked one gets a NaN value and vector so that the
    others are still solved."""
    A = np.asarray(A, dtype=float)
    if A.ndim == 3:
        return _top_eigpairs(A, v0, seed, tol, max_iter)
    if not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    n = A.shape[0]
    if v0 is None or n <= EIGH_CROSSOVER:
        w, V = np.linalg.eigh(A)
        gap = float(w[-1] - w[-2]) if n > 1 else np.inf
        # The vector stays a view of eigh's column where its sign allows:
        # BLAS products round differently on strided and contiguous
        # vectors, and callers' outputs are pinned to this layout.
        return DominantPair(float(w[-1]), _fix_sign(V[:, -1]), 0, gap)
    return _power_steps(A, tol, max_iter, seed, v0)


def _top_eigpairs(A, v0, seed, tol, max_iter) -> DominantPair:
    # top_eigpair on a (B, d, d) stack. A matrix with a non-finite entry is
    # solved as the zero matrix, then given a NaN value and vector.
    bad = None
    if not np.isfinite(A).all():
        bad = ~np.isfinite(A).all(axis=(1, 2))
        A = np.where(bad[:, None, None], 0.0, A)
    B, n = A.shape[:2]
    if v0 is None or n <= EIGH_CROSSOVER:
        w, V = np.linalg.eigh(A)
        gap = w[:, -1] - w[:, -2] if n > 1 else np.full(B, np.inf)
        vector = _fix_sign(V[:, :, -1])
        pair = DominantPair(w[:, -1], vector, np.zeros(B, dtype=int), gap)
    else:
        pairs = [_power_steps(A[b], tol, max_iter, seed, v0[b]) for b in range(B)]
        pair = DominantPair(
            np.array([q.value for q in pairs]),
            np.array([q.vector for q in pairs]),
            np.array([q.iterations for q in pairs]),
        )
    if bad is not None:
        pair.value[bad] = np.nan
        pair.vector[bad] = np.nan
    return pair


def _power_steps(
    A: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
    v0: np.ndarray | None = None,
) -> DominantPair:
    """Dominant eigenpair of a finite symmetric PSD matrix by power
    iteration, the warm large-matrix route of top_eigpair.

    Repeats v <- A v / ||A v|| and tracks the Rayleigh quotient
    eta = v^T A v until both the change in eta and the residual
    ||A v - eta v||_inf fall below tol * max(1, eta).

    ``v0`` warm-starts the iteration; otherwise the start vector is drawn
    deterministically from ``seed``, re-drawn with a new offset if the
    Rayleigh quotient stagnates at zero. The zero matrix gives value 0.

    Raises ConvergenceFailure (carrying the last iterate) if ``max_iter``
    is exhausted.
    """
    n = A.shape[0]
    if v0 is not None:
        v = np.asarray(v0, dtype=float)
        norm = np.linalg.norm(v)
        v = v / norm if norm > 0.0 else _seed_vector(n, seed)
    else:
        v = _seed_vector(n, seed)

    w = A @ v
    eta = float(v @ w)
    zero_stall = 0
    redraws = 0
    tiny = 1e-300
    for it in range(1, max_iter + 1):
        norm_w = float(np.linalg.norm(w))
        if norm_w <= tiny:
            if not A.any():
                return DominantPair(0.0, _fix_sign(v), 0)
            zero_stall += 1
            if zero_stall >= _ZERO_STALL_LIMIT:
                redraws += 1
                if redraws > _MAX_REDRAWS:
                    raise ConvergenceFailure(
                        "start vector repeatedly trapped in the nullspace",
                        last=DominantPair(0.0, _fix_sign(v), it),
                    )
                v = _seed_vector(n, seed, offset=redraws)
                w = A @ v
                eta = float(v @ w)
                zero_stall = 0
            continue
        v_next = w / norm_w
        w_next = A @ v_next
        eta_next = float(v_next @ w_next)
        residual = float(np.max(np.abs(w_next - eta_next * v_next)))
        bound = tol * max(1.0, abs(eta_next))
        if abs(eta_next - eta) <= bound and residual <= bound:
            return DominantPair(eta_next, _fix_sign(v_next), it)
        v, w, eta = v_next, w_next, eta_next

    raise ConvergenceFailure(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last eigenvalue estimate {eta:.6e})",
        last=DominantPair(eta, _fix_sign(v), max_iter),
    )
