"""First-order minimization of the relaxed objective over unconstrained r.

The path builder mines the visited trajectory, not just the terminal point,
for candidate subsets, but it only needs each visited point's top-K
ordering. The solver therefore streams those orderings out as it goes,
deduplicated in first-visit order, and keeps no per-iterate copy of t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverAbort
from .objective import (
    ObjectiveContext,
    eval_objective,
    grad_r,
    r_of_t,
    t_of_r,
    T_MAX,
)


@dataclass(frozen=True)
class SolverConfig:
    """Defaults follow common Adam practice; the termination test watches t,
    not r, because r drifts unboundedly while t saturates."""

    method: str = "adam"
    learning_rate: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_iter: int = 1000
    tol: float = 1e-5
    patience: int = 10
    t_init: float | np.ndarray = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("adam", "gd"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("adam betas must lie in (0, 1)")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")


@dataclass
class SolverRun:
    """``trace`` holds the distinct top-K orderings of the visited points, in
    first-visit order; ``objective`` is the penalized value at ``terminal_t``."""

    trace: list[tuple[int, ...]] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    terminal_t: np.ndarray | None = None
    objective: float | None = None


# top_k_order selects before sorting from this many coordinates on, when
# K <= p / 4; below that a full sort is cheaper (CHANGES.md has the sweep).
_SELECT_MIN_P = 500


def top_k_order(t: np.ndarray, K: int) -> tuple[int, ...]:
    """Indices of the K largest entries of t, largest first; among equal
    entries the lower index comes first, as in np.argsort(-t,
    kind="stable")[:K].

    For large p and small K, the K-th largest value is found by partial
    selection, the places of entries tied with it go to the lowest tied
    indices, and only the K winners are sorted."""
    p = t.shape[0]
    if p < _SELECT_MIN_P or 4 * K > p:
        return tuple(np.argsort(-t, kind="stable")[:K].tolist())
    kth = np.partition(t, p - K)[p - K]
    top = np.flatnonzero(t >= kth)
    if top.size > K:
        keep = t > kth
        keep[np.flatnonzero(t == kth)[: K - np.count_nonzero(keep)]] = True
        top = np.flatnonzero(keep)
    return tuple(top[np.argsort(-t[top], kind="stable")].tolist())


def _initial_t(cfg: SolverConfig, p: int) -> np.ndarray:
    t0 = np.asarray(cfg.t_init, dtype=float)
    if t0.ndim == 0:
        t0 = np.full(p, float(t0))
    if t0.shape != (p,):
        raise ValueError(f"t_init has shape {t0.shape}, expected ({p},)")
    if np.any(t0 <= 0.0) or np.any(t0 >= 1.0):
        raise ValueError("t_init must lie strictly inside (0, 1)")
    return np.minimum(t0, T_MAX)


def minimize(
    ctx: ObjectiveContext, cfg: SolverConfig, K: int | None = None
) -> SolverRun:
    """Run Adam or plain gradient descent on g(r) = f(t(r)).

    Every visited point, the initial and the terminal one included, adds
    its top-K ordering (see top_k_order) to ``run.trace`` unless an earlier
    point had the same one. K defaults to p.

    Terminates once max_j |t_j - t_j_prev| < cfg.tol for cfg.patience
    consecutive updates (converged) or after cfg.max_iter updates.
    Raises SolverAbort on a non-finite objective or gradient, naming the
    iteration.
    """
    if K is None:
        K = ctx.p
    if not (1 <= K <= ctx.p):
        raise ValueError(f"K={K} out of range 1..{ctx.p}")
    t = _initial_t(cfg, ctx.p)
    r = r_of_t(t)
    run = SolverRun()
    seen: set[tuple[int, ...]] = set()

    m = np.zeros(ctx.p)
    v = np.zeros(ctx.p)
    warm = None
    stall = 0
    it = 0

    while True:
        try:
            ev = eval_objective(ctx, t, seed=cfg.seed, v0=warm)
        except ValueError as exc:
            if "non-finite" in str(exc):
                raise SolverAbort(
                    f"non-finite objective matrix at iteration {it}", iteration=it
                ) from exc
            raise
        if not math.isfinite(ev.value) or not np.isfinite(ev.grad_t).all():
            raise SolverAbort(
                f"non-finite objective or gradient at iteration {it}", iteration=it
            )
        order = top_k_order(t, K)
        if order not in seen:
            seen.add(order)
            run.trace.append(order)
        if ev.dominant is not None:
            warm = ev.dominant.vector

        if stall >= cfg.patience:
            run.converged = True
            break
        if it >= cfg.max_iter:
            break

        g = grad_r(ev, r)
        if not np.isfinite(g).all():
            raise SolverAbort(f"non-finite gradient at iteration {it}", iteration=it)
        it += 1
        if cfg.method == "adam":
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1**it)
            v_hat = v / (1.0 - cfg.beta2**it)
            r = r - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        else:
            r = r - cfg.learning_rate * g
        t_next = t_of_r(r)
        stall = stall + 1 if np.abs(t_next - t).max() < cfg.tol else 0
        t = t_next

    run.iterations = it
    run.terminal_t = t
    run.objective = ev.value
    return run
