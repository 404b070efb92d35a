"""First-order minimization of the relaxed objective over unconstrained r.

The path builder mines the visited trajectory, not just the terminal point,
for candidate subsets, but it only needs each visited point's top-K
ordering. The solver therefore records those orderings as it goes, in the
narrowest unsigned integer type that holds the column indices 0..p-1,
and keeps no per-iterate copy of t. Each running row holds its orderings
once, as the bytes of each distinct one in an insertion-ordered dict, so
a repeat visit adds nothing and first-visit order is kept; when the row
ends they are joined into its (m, K) trace.

One loop serves every caller: minimize_batch runs a whole sweep of
penalties at once, with r, t and the Adam moments held as (B, p) arrays,
one row per penalty still running, and one stacked objective evaluation
per iteration. Each row ends on its own (converged or capped); rows share
no arithmetic, so every row gives bit for bit what a run of its penalty
alone gives.

The solver has no settings: the method (Adam), the step, the moments, the
stop test and the start point are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objective import (
    TRACE_LIMIT,
    ObjectiveContext,
    eval_batch,
    grad_r,
    r_of_t,
    t_of_r,
)


# Fixed settings, read when minimize_batch runs. Step and moments follow
# common Adam practice (Kingma & Ba, 2015); the stop test (see there) watches
# t, not r, because r drifts unboundedly while t saturates.
LEARNING_RATE = 0.05
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
MAX_ITER = 1000
TOL = 1e-5
T_INIT = 0.5


@dataclass
class SolverRun:
    """``trace`` is an (m, K) array of the distinct top-K orderings of the
    visited points, in first-visit order, of dtype np.min_scalar_type(p - 1)
    (uint8 up to 256 columns, uint16 up to 65,536); ``objective`` is the
    penalized value at ``terminal_t``."""

    trace: np.ndarray
    converged: bool = False
    iterations: int = 0
    terminal_t: np.ndarray | None = None
    objective: float | None = None


def top_k_order(t: np.ndarray, K: int) -> np.ndarray:
    """Indices of the K largest entries of t (or of each row of a 2-D t),
    largest first; among equal entries the lower index comes first, as in
    np.argsort(-t, axis=-1, kind="stable")[..., :K].

    Where K <= p / 4, the K-th largest value is found by partial
    selection, the places of entries tied with it go to the lowest tied
    indices, and only the K winners are sorted."""
    t = np.asarray(t)
    p = t.shape[-1]
    if 4 * K > p:
        return np.argsort(-t, axis=-1, kind="stable")[..., :K]
    T = t.reshape(-1, p)
    B = T.shape[0]
    kth = np.partition(T, p - K, axis=1)[:, p - K, None]
    keep = T >= kth
    if np.count_nonzero(keep) > B * K:  # ties at the K-th value
        above = T > kth
        tied = keep & ~above
        room = K - np.count_nonzero(above, axis=1)
        keep = above | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    top = (np.flatnonzero(keep) % p).reshape(B, K)
    row = np.arange(B)[:, None]
    rank = np.argsort(-T[row, top], axis=1, kind="stable")
    return top[row, rank].reshape(t.shape[:-1] + (K,))


def _initial_t(p: int) -> np.ndarray:
    return np.full(p, T_INIT)


def minimize_batch(
    ctx: ObjectiveContext, lams, K: int | None = None
) -> list[SolverRun]:
    """Run Adam on g(r) = f(t(r)) for every penalty in ``lams``, in one
    loop; entry b is the run of penalty lams[b].

    Every visited point, the initial and the terminal one included, adds
    its top-K ordering (see top_k_order) to the run's ``trace`` unless an
    earlier point of that run had the same one. A running row records
    each ordering at its first visit, as a bytes key of an
    insertion-ordered dict; no view of an iteration's (B, K) order array
    is kept, and the keys are joined into the (m, K) trace when the row
    ends. K defaults to p. This is the one place that picks the orderings'
    index type, np.min_scalar_type(p - 1): column numbers below p fit it,
    and the path's sorts, dedupes and candidate arrays inherit it. An
    empty ``lams`` gives [].

    A row terminates at its first update that moves no t_j by TOL or more
    (converged), or after MAX_ITER updates. The context's bounded kernel
    (ObjectiveContext) and penalties that are finite and at most
    TRACE_LIMIT in magnitude, else ValueError, keep every number finite.
    """
    if K is None:
        K = ctx.p
    if not (1 <= K <= ctx.p):
        raise ValueError(f"K={K} out of range 1..{ctx.p}")
    lams = np.asarray(lams, dtype=float)
    if not (np.abs(lams) <= TRACE_LIMIT).all():
        raise ValueError("penalties must be finite and at most 2^500 in magnitude")
    B = lams.shape[0]
    if B == 0:
        return []
    index_type = np.min_scalar_type(ctx.p - 1)
    width = K * index_type.itemsize  # bytes per ordering
    T = np.tile(_initial_t(ctx.p), (B, 1))
    R = r_of_t(T)
    out: list[SolverRun | None] = [None] * B
    seen: dict[int, dict[bytes, None]] = {b: {} for b in range(B)}  # orderings per row

    rows = list(range(B))  # penalty index of each row still running
    m = np.zeros_like(T)
    v = np.zeros_like(T)
    quiet = np.zeros(B, dtype=bool)
    warm = None
    it = 0

    while True:
        ev = eval_batch(ctx, T, lams, v0=warm)
        G = grad_r(ev, R)
        order = top_k_order(T, K).astype(index_type).tobytes()
        for i, b in enumerate(rows):
            seen[b].setdefault(order[i * width:(i + 1) * width])
        if ev.dominant is not None:
            warm = ev.dominant.vector

        done = quiet | (it >= MAX_ITER)
        if done.any():
            for i in np.flatnonzero(done):
                b = rows[i]
                trace = np.frombuffer(bytearray().join(seen.pop(b)), dtype=index_type)
                out[b] = SolverRun(
                    trace=trace.reshape(-1, K),
                    converged=bool(quiet[i]),
                    iterations=it,
                    # A copy: a view would keep this iterate array alive as
                    # long as the run.
                    terminal_t=T[i].copy(),
                    objective=float(ev.value[i]),
                )
            live = ~done
            if not live.any():
                return out
            rows = [b for b, keep in zip(rows, live) if keep]
            lams, T, R, G, m, v = (a[live] for a in (lams, T, R, G, m, v))
            if warm is not None:
                warm = warm[live]

        it += 1
        m = BETA1 * m + (1.0 - BETA1) * G
        v = BETA2 * v + (1.0 - BETA2) * G * G
        m_hat = m / (1.0 - BETA1**it)
        v_hat = v / (1.0 - BETA2**it)
        R = R - LEARNING_RATE * m_hat / (np.sqrt(v_hat) + EPS)
        T_next = t_of_r(R)
        quiet = np.abs(T_next - T).max(axis=1) < TOL
        T = T_next

