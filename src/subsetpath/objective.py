"""Penalized relaxed objectives for the three models and their gradients.

Selection over columns is relaxed from binary s in {0,1}^p to t in [0,1]^p,
with X_t scaling column j of X by t_j. For a penalty weight ``lam`` the
objectives minimized over the hypercube are

  pls1:  -||X_t^T y||^2 / n^2 + lam * sum(t)   (univariate response)
  pls2:  -delta_t^2 + lam * sum(t),  delta_t = top singular value of X_t^T Y / n
  pca:   -delta_t + lam * sum(t),    delta_t = top eigenvalue of X_t^T X_t / n

The box constraint is removed through t_j = 1 - exp(-r_j^2), so downstream
solvers work on unconstrained r; grad_r applies the chain rule. Spectral
quantities at relaxed points come from linalg.top_eigpair, on the smaller
of two eigenproblems with the same top eigenvalue (A^T A and A A^T): for
pls2 with q < p and pca with n < p the q x q or n x n one. The data
kernel is fixed per dataset (ObjectiveContext) and the penalty is not:
eval_batch evaluates a stack of points, each under its own penalty, in one
pass. Corner values (a binary t, the column-deleted data) come from
corner_values, which scores a stack of subsets of one size with numpy's
dense eigvalsh; lambda_max is its one-row case, the full subset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLoadingError, DimensionError, NonFiniteInputError
from .linalg import DominantPair, data_matrix, top_eigpair

MODELS = ("pls1", "pls2", "pca")

# Largest Gram trace an ObjectiveContext accepts (see its __post_init__).
TRACE_LIMIT = 2.0**500


def t_of_r(r: np.ndarray) -> np.ndarray:
    """Map unconstrained r to the hypercube: t_j = 1 - exp(-r_j^2)."""
    r = np.asarray(r, dtype=float)
    return -np.expm1(-r * r)


def r_of_t(t: np.ndarray) -> np.ndarray:
    """Non-negative preimage of the map; requires 0 <= t_j < 1."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t >= 1.0):
        raise ValueError("r_of_t needs 0 <= t < 1 (t = 1 has no finite preimage)")
    return np.sqrt(-np.log1p(-t))


@dataclass(frozen=True)
class ObjectiveContext:
    """Per-dataset quantities the objectives need; independent of t and
    of the penalty.

    Exactly one kernel is active: ``z`` for pls1, ``M`` for pls2 with
    q < p (M = X^T Y / n) and for pca with n < p (M = X^T / sqrt(n)), ``G``
    for pls2 with q >= p (G = M M^T) and for pca with n >= p
    (G = X^T X / n). Either way G = M M^T, so the M kernels solve the
    smaller of the two eigenproblems. Construction raises
    NonFiniteInputError when the trace of G is not finite or exceeds
    TRACE_LIMIT.
    """

    model: str
    n: int
    p: int
    q: int
    z: np.ndarray | None = None
    M: np.ndarray | None = None
    G: np.ndarray | None = None

    def __post_init__(self):
        # The trace tau of the Gram matrix G = M M^T the kernel stands for
        # (sum z_j^2, ||M||_F^2 or tr G) bounds every number computed from
        # it. Every entry of the PSD G is at most tau, as |G_jk| <=
        # sqrt(G_jj G_kk), and so is every eigenvalue of a block of G or of
        # M_t^T M_t. minimize_batch takes penalties up to TRACE_LIMIT in
        # magnitude, so the gradient in t (lam - 2 t_j z_j^2,
        # lam - 2 t_j (M_j v)^2 or lam - 2 u_j (G (t u))_j) is at most
        # 3 TRACE_LIMIT; the chain rule's factor 2 r exp(-r^2) is at most
        # sqrt(2 / e) < 0.86, so the gradient in r is at most 2.6 TRACE_LIMIT
        # and Adam's bias-corrected second moment at most its square, below
        # 1e302. The penalized value is at most (1 + p) TRACE_LIMIT. Refusing
        # a larger or non-finite tau here leaves no overflow downstream.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.z is not None:
                trace = float(np.sum(self.z * self.z))
            elif self.M is not None:
                trace = float(np.sum(self.M * self.M))
            else:
                trace = float(np.trace(self.G))
        if not trace <= TRACE_LIMIT:
            raise NonFiniteInputError(
                f"data too large: the cross-products' Gram trace {trace:.3e} exceeds 2^500; "
                "rescale the data" if np.isfinite(trace)
                else "data overflow: the cross-products are non-finite")


@dataclass
class ObjectiveEval:
    """Objective values and gradients in t for a stack of B points: value
    has shape (B,), grad_t (B, p). ``dominant`` is the stacked eigenpair
    behind them (None for pls1); its value is delta_t^2 for pls2 and
    delta_t for pca.
    """

    value: np.ndarray
    grad_t: np.ndarray
    dominant: DominantPair | None = None


def response_matrix(Y, model: str, n: int) -> np.ndarray | None:
    """Y as a 2-D float array of n rows fit for the model; None for pca."""
    if model == "pca":
        if Y is not None:
            raise DimensionError("pca takes no response matrix")
        return None
    if Y is None:
        raise DimensionError(f"{model} requires a response")
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.shape[0] != n:
        raise DimensionError(f"X has {n} rows but Y has {Y.shape[0]}")
    q = Y.shape[1]
    if q == 0:
        raise DimensionError("response matrix has no columns")
    if model == "pls1" and q != 1:
        raise DimensionError(f"pls1 requires a single response column, got {q}")
    return Y


def make_context(
    X: np.ndarray,
    Y: np.ndarray | None = None,
    model: str = "pls1",
) -> ObjectiveContext:
    """Precompute the model kernel from (already centered) data.

    pls2 stores M (a q x q eigenproblem per evaluation) when q < p, and
    G = M M^T (p x p) otherwise; pca likewise stores M = X^T / sqrt(n)
    (n x n) when n < p, and G = X^T X / n otherwise. Finite data whose
    cross-products overflow, or exceed TRACE_LIMIT, raises
    NonFiniteInputError without a warning.
    """
    X = data_matrix(X)
    n, p = X.shape
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")

    Y = response_matrix(Y, model, n)
    if model == "pca":
        if n < p:
            M = np.ascontiguousarray(X.T) / np.sqrt(n)
            return ObjectiveContext("pca", n, p, 0, M=M)
        with np.errstate(over="ignore", invalid="ignore"):
            G = (X.T @ X) / n
        return ObjectiveContext("pca", n, p, 0, G=G)

    q = Y.shape[1]
    if model == "pls1":
        with np.errstate(over="ignore", invalid="ignore"):
            z = (X.T @ Y[:, 0]) / n
        return ObjectiveContext("pls1", n, p, 1, z=z)

    with np.errstate(over="ignore", invalid="ignore"):
        M = (X.T @ Y) / n
        G = None if q < p else M @ M.T
    if G is None:
        return ObjectiveContext("pls2", n, p, q, M=M)
    return ObjectiveContext("pls2", n, p, q, G=G)


def _gradient(
    ctx: ObjectiveContext,
    T: np.ndarray,
    lam: np.ndarray,
    v0: np.ndarray | None = None,
) -> tuple[np.ndarray, DominantPair | None]:
    """eval_batch's gradient part: the gradients in t at the rows of T, as
    a new (B, p) array the caller may overwrite, and the stacked eigenpair
    behind them (None for pls1)."""
    pair = None
    if ctx.model == "pls1":
        grad = np.multiply(T, 2.0)
        grad *= ctx.z * ctx.z
    elif ctx.M is not None:
        Mt = T[:, :, None] * ctx.M
        pair = top_eigpair(Mt.transpose(0, 2, 1) @ Mt, v0=v0)
        mv = (ctx.M @ pair.vector[:, :, None])[:, :, 0]
        grad = np.multiply(T, 2.0)
        grad *= mv
        grad *= mv
    else:
        A = (T[:, :, None] * ctx.G) * T[:, None, :]
        pair = top_eigpair(A, v0=v0)
        grad = (ctx.G @ (T * pair.vector)[:, :, None])[:, :, 0]
        grad *= np.multiply(pair.vector, 2.0)
    return np.subtract(lam[:, None], grad, out=grad), pair


def _value(
    ctx: ObjectiveContext,
    T: np.ndarray,
    lam: np.ndarray,
    delta: np.ndarray | None,
) -> np.ndarray:
    """eval_batch's value part: the penalized values at the rows of T,
    given the top eigenvalues delta of their eigenpair (None for pls1,
    whose delta is the closed form)."""
    if delta is None:
        z2 = ctx.z * ctx.z
        delta = (T * T * z2).sum(axis=1)
    return -delta + lam * T.sum(axis=1)


def eval_batch(
    ctx: ObjectiveContext,
    T: np.ndarray,
    lam: np.ndarray,
    v0: np.ndarray | None = None,
) -> ObjectiveEval:
    """Objectives and gradients in t at the rows of T (B, p), row b
    penalized by lam[b]; eigen-solves are warm-started from the rows of v0
    and run as one stacked top_eigpair call. Each row is computed exactly
    as if it were evaluated alone.

    pls1 has the closed form delta = sum(t^2 z^2), grad = lam - 2 t z^2.
    With M stored (pls2 with q < p, pca with n < p): the dominant
    eigenpair of M_t^T M_t gives delta and v_t, and
    grad = lam - 2 (t * (M v_t) * (M v_t)). With G stored: the eigenpair
    of T_t G T_t gives delta and u_t, and grad = lam - 2 (u_t * (G (t * u_t))).
    The two agree, as u_t = M_t v_t / sqrt(delta).

    This is the composition of two private parts, which the solver calls
    apart: _gradient (grad and the eigenpair) at every iterate, and _value
    (-delta + lam * sum(t), delta from that eigenpair) only on the rows
    that end there. Either part gives bit for bit what this function gives.
    """
    lam = np.asarray(lam, dtype=float)
    grad, pair = _gradient(ctx, T, lam, v0)
    value = _value(ctx, T, lam, None if pair is None else pair.value)
    return ObjectiveEval(value=value, grad_t=grad, dominant=pair)


def grad_r(ev: ObjectiveEval, r: np.ndarray) -> np.ndarray:
    """Gradient in r of f(t_of_r(r)), for ``ev`` evaluated at t_of_r(r):
    dg/dr_j = df/dt_j * 2 r_j exp(-r_j^2)."""
    return ev.grad_t * 2.0 * r * np.exp(-r * r)


def corner_values(ctx: ObjectiveContext, I: np.ndarray) -> np.ndarray:
    """Unpenalized corner objectives of m subsets of one size k >= 1, given
    as an (m, k) array of sorted column indices of any integer type (the
    path passes the solver's narrow unsigned one): -sum(z^2) over the subset
    for pls1, otherwise minus the top eigenvalue of the column-deleted
    Gram block (k x k, or the q x q or n x n one from M when that is
    smaller), each solved by numpy's dense eigvalsh."""
    if ctx.model == "pls1":
        zs = ctx.z[I]
        return -np.sum(zs * zs, axis=1)
    if ctx.M is not None:
        Ms = ctx.M[I]
        k, q = Ms.shape[1:]
        Mt = np.swapaxes(Ms, 1, 2)
        blocks = Ms @ Mt if k <= q else Mt @ Ms
    else:
        blocks = ctx.G[I[:, :, None], I[:, None, :]]
    return -np.linalg.eigvalsh(blocks)[:, -1]


def lambda_max(ctx: ObjectiveContext) -> float:
    """Largest useful penalty: sum(z^2) for pls1, the top eigenvalue of
    M^T M for pls2 and of X^T X / n for pca. Equals -f_0 at the full
    subset for every model; the terminal subset at this penalty is empty.
    """
    value = -float(corner_values(ctx, np.arange(ctx.p)[None])[0])
    if value <= 0.0:
        raise DegenerateLoadingError("data carries no signal: lambda_max is zero")
    return value
