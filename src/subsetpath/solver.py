"""First-order minimization of the relaxed objective over unconstrained r.

The path builder mines the visited trajectory, not just the terminal point,
for candidate subsets, but it only needs each visited point's top-K
ordering. The solver therefore records those orderings as it goes, in the
narrowest unsigned integer type that holds the column indices 0..p-1,
and keeps no per-iterate copy of t. Each running row holds its orderings
once, as the bytes of each distinct one in an insertion-ordered dict, so
a repeat visit adds nothing and first-visit order is kept; when the row
ends they are joined into its (m, K) trace. A row hands its ordering
to its dict only when it differs from the row's ordering at the previous
iterate, which the dict already holds.

One loop serves every caller: minimize_batch runs a whole sweep of
penalties at once, with r, t and the Adam moments held as (B, p) arrays,
one row per penalty still running, and one stacked gradient evaluation
per iteration. An iteration does only the array work a run reads: the
moments, the step, r and t are updated in place in buffers kept across
iterations, the exponent -r^2 of each iterate is formed once for t_of_r
and the next chain rule, and the penalized value is computed only on the
rows that end at that iterate. Each row ends on its own (converged or
capped); rows share no arithmetic, so every row gives bit for bit what a
run of its penalty alone gives, and what the textbook loop over
eval_batch, grad_r and t_of_r gives.

The solver has no settings: the method (Adam), the step, the moments, the
stop test and the start point are module constants.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .objective import TRACE_LIMIT, ObjectiveContext, _gradient, _value, r_of_t


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
    penalized value at ``terminal_t`` under the run's penalty, as
    eval_batch gives it there: the one value the run computes, at the
    iterate where it ends."""

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
    """Run Adam on g(r) = f(t(r)) for every penalty in ``lams``, a 1-D
    sequence, in one loop; entry b is the run of penalty lams[b].

    Every visited point, the initial and the terminal one included, adds
    its top-K ordering (see top_k_order) to the run's ``trace`` unless an
    earlier point of that run had the same one. A running row records
    each ordering at its first visit, as a bytes key of an
    insertion-ordered dict, and hands one over only when it differs from
    the row's ordering at the previous iterate (an unchanged one is
    already there); no view of an iteration's (B, K) order array is kept,
    and the keys are joined into the (m, K) trace when the row ends. K
    defaults to p. This is the one place that picks the orderings' index
    type, np.min_scalar_type(p - 1): column numbers below p fit it, and
    the path's sorts, dedupes and candidate arrays inherit it. An empty
    ``lams`` gives [].

    A row terminates at its first update that moves no t_j by TOL or more
    (converged), or after MAX_ITER updates. Each iteration computes the
    gradients (eval_batch's gradient part) of every running row, and the
    penalized value (its value part) only on the rows that end there. r,
    t, the Adam moments and the step are updated in place, in buffers
    kept across iterations, with the operations, their order and their
    association of the textbook updates, so every number is the one
    eval_batch, grad_r and t_of_r give. The context's bounded kernel
    (ObjectiveContext) and penalties that are finite and at most
    TRACE_LIMIT in magnitude keep every number finite. A ``lams`` that is
    not 1-D, a K that is not an integer in 1..p, or a penalty outside
    that bound raises ValueError before any work.
    """
    if K is None:
        K = ctx.p
    if not isinstance(K, numbers.Integral) or not 1 <= K <= ctx.p:
        raise ValueError(f"K={K!r} must be an integer in 1..{ctx.p}")
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1:
        raise ValueError(f"lams must be a 1-D sequence of penalties, got shape {lams.shape}")
    if not (np.abs(lams) <= TRACE_LIMIT).all():
        raise ValueError("penalties must be finite and at most 2^500 in magnitude")
    B = lams.shape[0]
    if B == 0:
        return []
    index_type = np.min_scalar_type(ctx.p - 1)
    width = K * index_type.itemsize  # bytes per ordering
    T = np.tile(_initial_t(ctx.p), (B, 1))
    R = r_of_t(T)
    E = -R * R  # the exponent of t_of_r and of grad_r's factor exp(-r^2)
    out: list[SolverRun | None] = [None] * B
    seen: dict[int, dict[bytes, None]] = {b: {} for b in range(B)}  # orderings per row

    rows = list(range(B))  # penalty index of each row still running
    m = np.zeros_like(T)
    v = np.zeros_like(T)
    step = np.empty_like(T)
    T_next = np.empty_like(T)
    quiet = np.zeros(B, dtype=bool)
    last = None  # the previous iterate's (B, K) orderings
    warm = None
    it = 0

    while True:
        # grad_r's ev.grad_t * 2.0 * r * np.exp(-r * r), in place.
        G, pair = _gradient(ctx, T, lams, warm)
        G *= 2.0
        G *= R
        G *= np.exp(E, out=E)
        order = top_k_order(T, K).astype(index_type)
        moved = (range(len(rows)) if last is None
                 else np.flatnonzero((order != last).any(axis=1)))
        if len(moved):
            data = order.tobytes()
            for i in moved:
                seen[rows[i]].setdefault(data[i * width:(i + 1) * width])
        last = order
        if pair is not None:
            warm = pair.vector

        done = quiet | (it >= MAX_ITER)
        if done.any():
            ended = np.flatnonzero(done)
            value = _value(ctx, T[ended], lams[ended],
                           None if pair is None else pair.value[ended])
            for i, objective in zip(ended, value):
                b = rows[i]
                trace = np.frombuffer(bytearray().join(seen.pop(b)), dtype=index_type)
                out[b] = SolverRun(
                    trace=trace.reshape(-1, K),
                    converged=bool(quiet[i]),
                    iterations=it,
                    # A copy: a view would keep this iterate array alive as
                    # long as the run.
                    terminal_t=T[i].copy(),
                    objective=float(objective),
                )
            live = ~done
            if not live.any():
                return out
            rows = [b for b, keep in zip(rows, live) if keep]
            lams, T, R, G, m, v, last = (a[live] for a in (lams, T, R, G, m, v, last))
            step, T_next, E = (np.empty_like(T) for _ in range(3))
            if warm is not None:
                warm = warm[live]

        # Adam, as m = BETA1 * m + (1 - BETA1) * G,
        # v = BETA2 * v + (1 - BETA2) * G * G and
        # R = R - LEARNING_RATE * m_hat / (sqrt(v_hat) + EPS), then
        # T_next = t_of_r(R); step is scratch, and G is spent.
        it += 1
        m *= BETA1
        m += np.multiply(G, 1.0 - BETA1, out=step)
        v *= BETA2
        np.multiply(G, 1.0 - BETA2, out=step)
        step *= G
        v += step
        np.divide(v, 1.0 - BETA2**it, out=step)  # v_hat
        np.sqrt(step, out=step)
        step += EPS
        np.divide(m, 1.0 - BETA1**it, out=G)  # m_hat
        G *= LEARNING_RATE
        G /= step
        R -= G
        np.negative(R, out=E)
        E *= R
        np.expm1(E, out=T_next)
        np.negative(T_next, out=T_next)
        np.subtract(T_next, T, out=step)
        quiet = np.abs(step, out=step).max(axis=1) < TOL
        T, T_next = T_next, T
