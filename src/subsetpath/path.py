"""Bucket scoring from solver traces, and the dynamic penalty grid.

A single solver run visits a trajectory of points t; every visited point
contributes, for each k up to K, the subset holding its k largest
coordinates. The solver hands over only the distinct top-K orderings it
visited, as an (m, K) int array. The grid stacks the orderings of all its
runs into one (M, K) array of distinct rows, and bucket k is scored from
it directly: the k-prefixes of the rows are sorted and deduplicated, and
the resulting (m_k, k) array of index rows, ``SizeBucket.candidates``, is
scored in stacks by objective.corner_values (the closed form for pls1, one
stacked dense eigen-solve over the k x k or q x q blocks otherwise). The
lowest unpenalized corner objective wins; exact ties go to the smallest
bits. For pls1 only the prefixes whose visit-order sum of z^2 comes within
_PLS1_BAND of the best are scored exactly (see there).

The dynamic grid drives the solver over a data-dependent schedule of
penalty values so that terminal subsets cover all sizes 1..K; the
penalties of one bisection sweep (for p <= 100 with the midpoints of the
next sweep), and the halvings of the first phase in chunks, are solved
together in one batched solver call (solver.minimize_batch). Each row of
a batch is bit for bit the run of its penalty alone, so runs solved ahead
and recorded later, or never, leave the path as it would be. Its
eigen-solves cannot fail (linalg.top_eigpair finishes the ones its power
steps do not settle densely), so a batch is never redone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverAbort
from .objective import ObjectiveContext, corner_values, lambda_max, make_context
from .solver import SolverConfig, SolverRun, minimize_batch, unique_rows

# Candidates per stacked eigen-solve in best_row; bounds the block stack to
# _BATCH * K^2 floats.
_BATCH = 256

# pls1 scores a k-prefix exactly only if its visit-order sum of z^2 is at
# least (1 - _PLS1_BAND) times the largest one. That sum and the exact score
# add the same k non-negative terms in different orders, so they differ by
# at most about 2k eps relative (2e-14 at k = 50); any band far above that,
# as this one is for k below 10^6, holds every exact minimizer and tie.
_PLS1_BAND = 1e-9


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
    """``candidates`` is the (m, k) int array of the distinct sorted index
    rows that were scored exactly; ``best`` is the winner among them."""

    k: int
    candidates: np.ndarray
    best: Subset
    best_value: float


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


def best_row(ctx0: ObjectiveContext, I: np.ndarray) -> tuple[Subset, float]:
    """Row of I, an (m, k) array of sorted column indices with m, k >= 1,
    with the lowest unpenalized corner objective; exact ties go to the
    smallest bits. Rows are scored in _BATCH-sized stacks."""
    if I.size == 0:
        raise ValueError("no candidate rows to score")
    values = np.concatenate([
        corner_values(ctx0, I[i:i + _BATCH]) for i in range(0, len(I), _BATCH)
    ])
    low = values.min()
    tied = np.flatnonzero(values == low)
    best = min(Subset(ctx0.p, tuple(I[i].tolist())) for i in tied)
    return best, float(low)


def prefix_rows(orders: np.ndarray, k: int) -> np.ndarray:
    """Distinct sorted k-prefixes of the rows of an (M, K) ordering array,
    as an (m, k) array in order of first occurrence."""
    return unique_rows(np.sort(orders[:, :k], axis=1))


def score_buckets(
    ctx0: ObjectiveContext, orders: np.ndarray, K: int
) -> dict[int, SizeBucket]:
    """Buckets k = 1..K from an (M, K) array of top-K orderings: each k
    scores the distinct k-prefixes of the rows (for pls1 only those within
    _PLS1_BAND of the best visit-order sum) with best_row."""
    if ctx0.model == "pls1":
        sums = np.cumsum((ctx0.z * ctx0.z)[orders], axis=1)
    buckets = {}
    for k in range(1, K + 1):
        rows = orders
        if ctx0.model == "pls1":
            s = sums[:, k - 1]
            rows = orders[s >= s.max() * (1.0 - _PLS1_BAND)]
        I = prefix_rows(rows, k)
        best, value = best_row(ctx0, I)
        buckets[k] = SizeBucket(k, I, best, value)
    return buckets


def _cheap_rows(p: int) -> bool:
    """Whether a solver row at p columns costs little beside the loop's own
    overhead, so that solving runs the grid may not record pays: up to 100
    columns; above that each row pays its own eigen-solve or wide-vector
    work (sweep over p in CHANGES.md)."""
    return p <= 100


def _chunk(p: int) -> int:
    """Halvings solved per batch in step 1 of dynamic_grid; a run past the
    one that reaches K is solved for nothing."""
    return 16 if _cheap_rows(p) else 8


def terminal_subset(t: np.ndarray, rho: float) -> Subset:
    """Threshold the terminal point: bit j is set iff t_j > rho (strict)."""
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    t = np.asarray(t)
    return Subset(t.shape[0], tuple(np.flatnonzero(t > rho).tolist()))


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
    the budget runs out or no gap remains. L counts recorded runs, the
    lambda_max one included. lambda_max and its halvings are solved
    _chunk(p) at a time, so step 1 may solve up to _chunk(p) - 1 runs past
    the one that reaches K; those are discarded and appear in no output, so
    the path is the one the penalties solved one at a time would give.

    Every successful run feeds the top-K orderings it visited into the size
    buckets (score_buckets), so buckets are filled for all k = 1..K as soon
    as one run succeeds. A penalty whose run aborts contributes nothing but
    the grid continues; if every run aborts, SolverAbort is raised.
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

    orders: list[np.ndarray] = []  # the trace of every successful run
    grid_entries: list[tuple[float, int]] = []
    diagnostics: list[LambdaDiagnostic] = []

    def record(lam: float, run: SolverRun | SolverAbort) -> int:
        # Terminal size of the run at lam, or -1 if it aborted.
        if isinstance(run, SolverAbort):
            diagnostics.append(
                LambdaDiagnostic(lam, -1, run.iteration or 0, False, None, failed=True)
            )
            return -1
        k_lam = terminal_subset(run.terminal_t, grid_cfg.rho).size
        grid_entries.append((lam, k_lam))
        diagnostics.append(
            LambdaDiagnostic(lam, k_lam, run.iterations, run.converged, run.objective)
        )
        orders.append(run.trace)
        return k_lam

    # Step 1: from lambda_max (whose terminal subset is empty), halve until
    # the terminal size reaches K or the budget is spent. The next _chunk(p)
    # penalties lambda_max / 2^l, from l = 0 and no more than the budget
    # left, are solved as one batch and recorded in order; the runs after
    # the first one that reaches K are discarded.
    evals = 0
    k_lam = 0
    chunk = _chunk(ctx0.p)
    while evals < grid_cfg.L and k_lam < grid_cfg.K:
        size = min(chunk, grid_cfg.L - evals)
        lams = [lam_top / 2.0**(evals + i) for i in range(size)]
        for lam, run in zip(lams, minimize_batch(ctx0, lams, solver_cfg, grid_cfg.K)):
            evals += 1
            k_lam = record(lam, run)
            if k_lam >= grid_cfg.K:
                break
    budget = grid_cfg.L - evals

    # Step 2: bisect terminal-size gaps, left to right, re-sweeping; the
    # midpoints of one sweep are recorded in order. The runs of a sweep's
    # midpoints are looked up by lambda among those solved before; the
    # missing ones are solved as one batch, and while budget remains after
    # the sweep, for cheap rows, so are the two children (lam_lo + mid) / 2
    # and (mid + lam_hi) / 2 of each: the midpoints of the next sweep when
    # both halves of the gap stay open. A child never recorded is
    # discarded.
    runs: dict[float, SolverRun | SolverAbort] = {}
    speculate = _cheap_rows(ctx0.p)
    while budget > 0:
        entries = sorted(grid_entries)
        gaps = []
        for (lam_lo, k_lo), (lam_hi, k_hi) in zip(entries, entries[1:]):
            if k_lo > k_hi + 1:
                gaps.append((lam_lo, (lam_lo + lam_hi) / 2.0, lam_hi))
            if len(gaps) == budget:
                break
        if not gaps:
            break
        budget -= len(gaps)
        todo = [gap for gap in gaps if gap[1] not in runs]
        lams = [mid for _, mid, _ in todo]
        if speculate and budget > 0:
            lams += [lam for lo, mid, hi in todo
                     for lam in ((lo + mid) / 2.0, (mid + hi) / 2.0)]
        if lams:
            runs.update(zip(lams, minimize_batch(ctx0, lams, solver_cfg, grid_cfg.K)))
        # Recorded runs leave the cache: a run's terminal_t is a row view
        # that keeps the (B, p) iterate array of its batch alive.
        swept = {mid: runs.pop(mid) for mid in {mid for _, mid, _ in gaps}}
        for _, mid, _ in gaps:
            record(mid, swept[mid])

    if not grid_entries:  # one entry per successful run
        raise SolverAbort("no penalty value produced a successful run")

    # Every successful run visits at least one top-K ordering, so no bucket
    # is empty here.
    buckets = score_buckets(ctx0, unique_rows(np.concatenate(orders)), grid_cfg.K)

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
