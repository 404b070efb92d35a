"""Subset extraction from solver traces and the dynamic penalty grid.

A single solver run visits a trajectory of points t; every visited point
contributes, for each k up to K, the subset holding its k largest
coordinates. The solver hands over only the distinct top-K orderings it
visited, and subsets are stored as sorted index tuples, so extraction costs
O(K^2) per ordering whatever p is. Buckets collect those candidates per
size and keep the one with the lowest unpenalized corner objective, scored
for a whole bucket at once: a closed form for pls1 and one stacked dense
eigen-solve over the k x k (or q x q) blocks otherwise. The dynamic grid
drives the solver over a data-dependent schedule of penalty values so that
terminal subsets cover all sizes 1..K.
"""

from __future__ import annotations

import bisect
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverAbort
from .objective import ObjectiveContext, lambda_max, make_context
from .solver import SolverConfig, SolverRun, minimize

# Candidates per stacked eigen-solve in select_best; bounds the block stack
# to _BATCH * K^2 floats.
_BATCH = 256


@functools.total_ordering
@dataclass(frozen=True)
class Subset:
    """A selection of columns out of p, stored as its sorted column indices.

    Subsets are hashable and totally ordered, lexicographically on bits, so
    ties break deterministically. On the index tuple that is the order of
    the key ((-i for i in idx), p): the subset holding the lowest column
    outside the other is the larger one.
    """

    p: int
    idx: tuple[int, ...]

    @classmethod
    def from_indices(cls, p: int, indices) -> "Subset":
        idx = tuple(sorted({int(j) for j in indices}))
        if idx and not (0 <= idx[0] and idx[-1] < p):
            raise IndexError(f"subset index out of range 0..{p - 1}")
        return cls(p, idx)

    @classmethod
    def from_bits(cls, bits) -> "Subset":
        return cls(len(bits), tuple(j for j, b in enumerate(bits) if b))

    @classmethod
    def from_bitstring(cls, s: str) -> "Subset":
        if not set(s) <= {"0", "1"}:
            raise ValueError(f"bad bit string {s!r}")
        return cls.from_bits([c == "1" for c in s])

    def _key(self) -> tuple:
        return tuple(-j for j in self.idx), self.p

    def __lt__(self, other: "Subset") -> bool:
        if not isinstance(other, Subset):
            return NotImplemented
        return self._key() < other._key()

    @property
    def bits(self) -> tuple[int, ...]:
        bits = [0] * self.p
        for j in self.idx:
            bits[j] = 1
        return tuple(bits)

    @property
    def size(self) -> int:
        return len(self.idx)

    @property
    def indices(self) -> np.ndarray:
        return np.array(self.idx, dtype=np.intp)

    def bitstring(self) -> str:
        return "".join(map(str, self.bits))


@dataclass
class SizeBucket:
    k: int
    candidates: list[Subset] = field(default_factory=list)
    best: Subset | None = None
    best_value: float | None = None


@dataclass(frozen=True)
class GridConfig:
    """L bounds the number of solver calls; rho thresholds terminal t."""

    K: int
    L: int = 50
    rho: float = 0.9

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("grid budget L must be at least 2")
        if self.K < 1:
            raise ValueError("largest subset size K must be at least 1")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")


@dataclass
class LambdaDiagnostic:
    lam: float
    terminal_size: int
    iterations: int
    converged: bool
    objective: float | None
    failed: bool = False


@dataclass
class SolutionPath:
    model: str
    n: int
    p: int
    q: int
    K: int
    buckets: dict[int, SizeBucket]
    lambda_grid: list[tuple[float, int]]
    diagnostics: list[LambdaDiagnostic] = field(default_factory=list)


def extract_subsets(run: SolverRun, K: int) -> dict[int, list[Subset]]:
    """Per size k = 1..K, the deduplicated subsets formed by the first k
    entries of every top-K ordering in the run's trace, in first-visit
    order."""
    p = run.terminal_t.shape[0]
    if K > p:
        raise ValueError(f"K={K} exceeds p={p}")
    out: dict[int, list[Subset]] = {k: [] for k in range(1, K + 1)}
    seen: set[tuple[int, ...]] = set()
    prev = (-1,) * K
    prefixes: list[tuple[int, ...]] = [()] * (K + 1)  # prev's sorted k-prefixes
    for order in run.trace:
        if len(order) < K:
            raise ValueError(f"run recorded top-{len(order)} orderings, not top-{K}")
        # The first c prefixes are the previous ordering's, already seen.
        c = 0
        while c < K and order[c] == prev[c]:
            c += 1
        prefix = list(prefixes[c])
        for k in range(c + 1, K + 1):
            bisect.insort(prefix, order[k - 1])
            idx = prefixes[k] = tuple(prefix)
            if idx not in seen:
                seen.add(idx)
                out[k].append(Subset(p, idx))
        prev = order
    return out


def _corner_values(ctx: ObjectiveContext, I: np.ndarray) -> np.ndarray:
    """Unpenalized corner objectives of m subsets of one size k >= 1, given
    as an (m, k) array of sorted column indices; the batched counterpart of
    corner_objective. Each block is solved by numpy's dense eigvalsh."""
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


def select_best(
    candidates: list[Subset], ctx0: ObjectiveContext
) -> tuple[Subset, float]:
    """Candidate with the lowest unpenalized corner objective; ties break
    lexicographically on bits. Candidates of one size are scored together
    in _BATCH-sized stacks."""
    if not candidates:
        raise ValueError("empty candidate set")
    by_size: dict[int, list[Subset]] = {}
    for s in candidates:
        by_size.setdefault(s.size, []).append(s)
    best = None
    best_value = np.inf
    for k, group in by_size.items():
        if k == 0:
            values = np.zeros(len(group))
        else:
            I = np.array([s.idx for s in group], dtype=np.intp)
            values = np.concatenate([
                _corner_values(ctx0, I[i:i + _BATCH]) for i in range(0, len(I), _BATCH)
            ])
        low = values.min()
        winner = min(group[i] for i in np.flatnonzero(values == low))
        if low < best_value or (low == best_value and winner < best):
            best, best_value = winner, float(low)
    return best, best_value


def terminal_subset(t: np.ndarray, rho: float) -> Subset:
    """Threshold the terminal point: bit j is set iff t_j > rho (strict)."""
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    t = np.asarray(t)
    return Subset(t.shape[0], tuple(np.flatnonzero(t > rho).tolist()))


def path_objective_curve(path: SolutionPath) -> list[tuple[int, float]]:
    """(k, best corner objective) for k = 1..K."""
    return [(k, path.buckets[k].best_value) for k in sorted(path.buckets)]


def dynamic_grid(
    X: np.ndarray,
    Y: np.ndarray | None,
    model: str,
    grid_cfg: GridConfig,
    solver_cfg: SolverConfig | None = None,
) -> SolutionPath:
    """Build the full solution path with a data-driven penalty schedule.

    The schedule starts at lambda_max (where the terminal subset is empty)
    and halves until the terminal subset reaches size K or the budget L is
    spent; remaining budget bisects adjacent penalties whose terminal sizes
    differ by more than one, sweeping left to right and re-sweeping until
    the budget runs out or no gap remains. All evaluations, the lambda_max
    one included, count against L.

    Every successful run feeds the top-K orderings it visited into the size
    buckets, so buckets are filled for all k = 1..K as soon as one run
    succeeds. A penalty whose run aborts contributes nothing but the grid
    continues; if every run aborts, SolverAbort is raised.
    """
    if solver_cfg is None:
        solver_cfg = SolverConfig()
    ctx0 = make_context(X, Y, model=model, lam=0.0)
    if grid_cfg.K > ctx0.p:
        raise ValueError(f"K={grid_cfg.K} exceeds p={ctx0.p}")
    try:
        lam_top = lambda_max(ctx0)
    except ValueError as exc:
        if "non-finite" in str(exc):
            raise SolverAbort(f"cannot start the grid: {exc}") from exc
        raise

    buckets = {k: SizeBucket(k=k) for k in range(1, grid_cfg.K + 1)}
    seen: set[tuple[int, ...]] = set()  # index tuples of every size
    grid_entries: list[tuple[float, int]] = []
    diagnostics: list[LambdaDiagnostic] = []

    def solve(lam: float) -> int:
        # Terminal size of the run at lam, or -1 if it aborted.
        try:
            run = minimize(ctx0.with_lambda(lam), solver_cfg, grid_cfg.K)
        except SolverAbort as err:
            diagnostics.append(
                LambdaDiagnostic(lam, -1, err.iteration or 0, False, None, failed=True)
            )
            return -1
        k_lam = terminal_subset(run.terminal_t, grid_cfg.rho).size
        grid_entries.append((lam, k_lam))
        diagnostics.append(
            LambdaDiagnostic(lam, k_lam, run.iterations, run.converged, run.objective)
        )
        for k, subs in extract_subsets(run, grid_cfg.K).items():
            for s in subs:
                if s.idx not in seen:
                    seen.add(s.idx)
                    buckets[k].candidates.append(s)
        return k_lam

    # Step 1: from lambda_max (whose terminal subset is empty), halve until
    # the terminal size reaches K or the budget is spent.
    solve(lam_top)
    evals = 1
    ell = 0
    k_lam = 0
    while evals < grid_cfg.L and k_lam < grid_cfg.K:
        ell += 1
        evals += 1
        k_lam = solve(lam_top / 2.0**ell)
    budget = grid_cfg.L - evals

    # Step 2: bisect terminal-size gaps, left to right, re-sweeping.
    while budget > 0:
        entries = sorted(grid_entries)
        mids = []
        for (lam_lo, k_lo), (lam_hi, k_hi) in zip(entries, entries[1:]):
            if k_lo > k_hi + 1:
                mids.append((lam_lo + lam_hi) / 2.0)
            if len(mids) == budget:
                break
        if not mids:
            break
        budget -= len(mids)
        for lam in mids:
            solve(lam)

    if not grid_entries:  # one entry per successful run
        raise SolverAbort("no penalty value produced a successful run")

    # Every successful run visits at least one top-K ordering, so no bucket
    # is empty here.
    for bucket in buckets.values():
        bucket.best, bucket.best_value = select_best(bucket.candidates, ctx0)

    return SolutionPath(
        model=model,
        n=ctx0.n,
        p=ctx0.p,
        q=ctx0.q,
        K=grid_cfg.K,
        buckets=buckets,
        lambda_grid=sorted(grid_entries, reverse=True),
        diagnostics=diagnostics,
    )


def path_to_dict(path: SolutionPath) -> dict:
    """JSON document for a solution path; bits strings follow the input
    column order."""
    return {
        "model": path.model,
        "n": path.n,
        "p": path.p,
        "q": path.q,
        "K": path.K,
        "buckets": [
            {
                "k": k,
                "bits": path.buckets[k].best.bitstring(),
                "objective": path.buckets[k].best_value,
            }
            for k in sorted(path.buckets)
        ],
        "lambda_grid": [
            {"lambda": lam, "terminal_size": size} for lam, size in path.lambda_grid
        ],
    }


def path_to_json(path: SolutionPath) -> str:
    return json.dumps(path_to_dict(path), indent=2)
