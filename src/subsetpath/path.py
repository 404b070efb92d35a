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
bits. Only the rows whose k-prefix trace can reach the best are scored
(score_buckets).

The dynamic grid drives the solver over a data-dependent schedule of
penalty values so that terminal subsets cover all sizes 1..K. The rules
of that schedule live in one place, _schedule, which asks for the
terminal size at each penalty it visits; the grid uses it both to decide
what to solve and to record the runs. One rule on the kernel,
_cheap_rows, decides how far ahead a grid solves. Where rows are cheap
(every kernel but the p x p G one above 100 columns) the grid predicts
each run's terminal size from the gradient at the solver's start point
(_first_step_size), plans its whole schedule, solves it in one batched
solver call (solver.minimize_batch) and records it by replaying the
schedule on the real runs, solving there whatever a wrong prediction
left out. Where they are not, and in the replay where a run is missing,
the grid solves as the schedule asks: the halvings of the first phase in
chunks, and the penalties of one bisection sweep (for cheap rows with
the midpoints of the next sweep) in one batch. Each row of a batch is
bit for bit the run of its penalty alone, so runs solved ahead and
recorded later, or never, leave the path as it would be. Its eigen-solves
cannot fail (linalg.top_eigpair finishes the ones its power steps do not
settle densely), so a batch is never redone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NonFiniteInputError, SolverAbort
from .objective import (
    ObjectiveContext,
    corner_values,
    eval_batch,
    lambda_max,
    make_context,
)
from .solver import SolverRun, _initial_t, minimize_batch, unique_rows

# Candidates per stacked eigen-solve in best_row; bounds the block stack to
# _BATCH * K^2 floats.
_BATCH = 256

# Relative slack of score_buckets' trace bound. A trace summed in visit
# order is off from the exact one by about 2k eps relative, and eigvalsh's
# backward error is about k eps lambda (2e-14 and 1e-14 at k = 50); a slack
# far above both, as this one is for k below 10^6, keeps every exact tie.
_TRACE_SLACK = 1e-9


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
    rows that passed score_buckets' trace bound; ``best`` wins among them."""

    k: int
    candidates: np.ndarray
    best: Subset
    best_value: float


@dataclass(frozen=True)
class GridConfig:
    """L bounds the number of runs the grid records, aborted ones included;
    rho thresholds terminal t."""

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
    scores with best_row the distinct k-prefixes of the rows whose trace
    (the sum of its single-column scores z_j^2, ||M_j||^2 or G_jj) reaches
    the value of the largest-trace row's k-prefix, less _TRACE_SLACK. A
    block's top eigenvalue is at most its trace, equal for pls1 (Moghaddam,
    Weiss & Avidan 2006), so no row skipped can win; a NaN skips nothing."""
    d = -corner_values(ctx0, np.arange(ctx0.p)[:, None])
    traces = np.cumsum(d[orders], axis=1)
    buckets = {}
    for k in range(1, K + 1):
        s = traces[:, k - 1]
        top = -corner_values(ctx0, np.sort(orders[np.argmax(s), :k])[None])[0]
        I = prefix_rows(orders[~(s < top * (1.0 - _TRACE_SLACK))], k)
        best, value = best_row(ctx0, I)
        buckets[k] = SizeBucket(k, I, best, value)
    return buckets


def _cheap_rows(ctx0: ObjectiveContext) -> bool:
    """Whether a solver row costs little beside the loop's own overhead, so
    that solving runs the grid may not record pays. Only a row on the p x p
    G kernel (pls2 with q >= p, pca with n >= p) above 100 columns does not:
    it pays a p x p eigen-solve, and a batch's stacks grow with B p^2
    (sweeps in CHANGES.md)."""
    return ctx0.G is None or ctx0.p <= 100


def _chunk(ctx0: ObjectiveContext) -> int:
    """Halvings solved per batch in step 1 of a grid solved on demand; a run
    past the one that reaches K is solved for nothing."""
    return 16 if _cheap_rows(ctx0) else 8


def terminal_subset(t: np.ndarray, rho: float) -> Subset:
    """Threshold the terminal point: bit j is set iff t_j > rho (strict)."""
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    t = np.asarray(t)
    return Subset(t.shape[0], tuple(np.flatnonzero(t > rho).tolist()))


def _schedule(lam_top: float, grid_cfg: GridConfig, sizes) -> list[float]:
    """The penalties the grid records, in record order, given
    sizes(step, lams, ahead): the terminal size of the run at each penalty
    of lams, or -1 for one that aborted. step is 1 or 2; ahead[i] iterates
    over the penalties the schedule may ask for next after lams[i], for a
    solver that solves ahead.

    Step 1 asks for lambda_max / 2^l, one l at a time from l = 0, until a
    size reaches K or L penalties are recorded; ahead holds the halvings
    after it that fit in the budget. Step 2 sweeps the penalties of the
    successful runs in ascending order and asks, in one list, for the
    midpoint (lo + hi) / 2 of every pair of neighbours whose sizes differ
    by more than one, no more of them than the budget left; it re-sweeps
    until the budget runs out or no such gap remains. While budget remains
    after a sweep, ahead holds the two children of each midpoint,
    (lo + mid) / 2 and (mid + hi) / 2: the midpoints of the next sweep
    where both halves of its gap stay open. A penalty whose run aborts is
    recorded (it counts against L) but bounds no gap.
    """
    lams: list[float] = []
    entries: list[tuple[float, int]] = []  # (lam, size) of successful runs

    def record(step: int, batch: list[float], ahead: list) -> list[int]:
        ks = sizes(step, batch, ahead)
        lams.extend(batch)
        entries.extend((lam, k) for lam, k in zip(batch, ks) if k >= 0)
        return ks

    k = 0
    while len(lams) < grid_cfg.L and k < grid_cfg.K:
        l = len(lams)
        halvings = (lam_top / 2.0**i for i in range(l + 1, grid_cfg.L))
        [k] = record(1, [lam_top / 2.0**l], [halvings])

    while len(lams) < grid_cfg.L:
        budget = grid_cfg.L - len(lams)
        bounds = sorted(entries)
        gaps = []
        for (lam_lo, k_lo), (lam_hi, k_hi) in zip(bounds, bounds[1:]):
            if k_lo > k_hi + 1:
                gaps.append((lam_lo, (lam_lo + lam_hi) / 2.0, lam_hi))
            if len(gaps) == budget:
                break
        if not gaps:
            break
        more = len(gaps) < budget
        record(2, [mid for _, mid, _ in gaps],
               [[(lo + mid) / 2.0, (mid + hi) / 2.0] if more else []
                for lo, mid, hi in gaps])
    return lams


def _terminal_size(run: SolverRun | SolverAbort, rho: float) -> int:
    """Terminal size of a run, or -1 if it aborted."""
    if isinstance(run, SolverAbort):
        return -1
    return terminal_subset(run.terminal_t, rho).size


def _first_step_size(ctx0: ObjectiveContext):
    """The terminal size the run at a penalty is expected to have: the
    number of coordinates its first gradient step moves up.

    At the solver's start point t0 the gradient in t is lam - g, with
    g_j = 2 t0_j z_j^2 for pls1; on an M kernel (pls2 with M = X^T Y / n,
    pca with M = X^T / sqrt(n)) g_j = 2 t0_j (M_j v)^2, v the top
    eigenvector there; on a G kernel g_j = 2 u_j (G (t0 * u))_j, u the top
    eigenvector of the t0-scaled G. The pls1 objective is separable and
    concave in each t_j, so t_j moves away from its stationary point
    lam / (2 z_j^2), and the run at lam ends on {j : g_j > lam} if it runs
    long enough to pass rho. For pls2 and pca the eigenvector turns as t
    moves; the runs measured still ended on that set at 65-100% of the
    penalties, and at half of them on a near-tied pca spectrum with
    p = 500 (BENCH_23.json)."""
    t0 = _initial_t(ctx0.p)
    score = -eval_batch(ctx0, t0[None], np.zeros(1)).grad_t[0]
    return lambda lam: int(np.count_nonzero(score > lam))


def _plan_and_solve(ctx0, lam_top, grid_cfg, runs) -> list[float]:
    """For cheap rows, the schedule planned from the terminal sizes
    _first_step_size predicts, solved in one call; then the schedule
    replayed on the real runs by _solve_on_demand, which solves only what
    no plan or a wrong prediction left out (a run may reach
    solver.MAX_ITER before it passes rho; a run may abort; a pls2 or pca
    run may end off the predicted set)."""
    if _cheap_rows(ctx0):
        predicted = _first_step_size(ctx0)
        plan = _schedule(lam_top, grid_cfg,
                         lambda step, lams, ahead: [predicted(lam) for lam in lams])
        plan = list(dict.fromkeys(plan))
        runs.update(zip(plan, minimize_batch(ctx0, plan, grid_cfg.K)))
    return _solve_on_demand(ctx0, lam_top, grid_cfg, runs)


def _solve_on_demand(ctx0, lam_top, grid_cfg, runs) -> list[float]:
    """The schedule, solving each penalty not yet in runs (a dict from
    penalty to run) when it is first asked for, together with runs it may
    ask for next. A halving of lambda_max not yet solved comes with the
    next ones, _chunk(ctx0) in all and no more than the budget left. For
    cheap rows, the missing midpoints of a sweep come with their two
    children, while budget remains after the sweep."""
    chunk = _chunk(ctx0)
    speculate = _cheap_rows(ctx0)

    def sizes(step, lams, ahead):
        missing = [lam for lam in lams if lam not in runs]
        if missing and step == 1:
            missing += itertools.islice(ahead[0], chunk - 1)
        elif missing and speculate:
            missing += [kid for lam, kids in zip(lams, ahead) if lam not in runs
                        for kid in kids]
        missing = [lam for lam in dict.fromkeys(missing) if lam not in runs]
        if missing:
            runs.update(zip(missing, minimize_batch(ctx0, missing, grid_cfg.K)))
        return [_terminal_size(runs[lam], grid_cfg.rho) for lam in lams]

    return _schedule(lam_top, grid_cfg, sizes)


def dynamic_grid(
    X: np.ndarray,
    Y: np.ndarray | None,
    model: str,
    grid_cfg: GridConfig,
) -> SolutionPath:
    """Build the full solution path with a data-driven penalty schedule.

    The schedule (_schedule) starts at lambda_max (where the terminal
    subset is empty) and halves until the terminal subset reaches size K or
    the budget L is spent; remaining budget bisects adjacent penalties
    whose terminal sizes differ by more than one, sweeping left to right
    and re-sweeping until the budget runs out or no gap remains. L counts
    recorded runs, the lambda_max one included.

    Where rows are cheap (_cheap_rows: any kernel but the p x p G one
    above 100 columns) the grid first plans the whole schedule from the
    terminal sizes _first_step_size predicts and solves it in one batch
    (_plan_and_solve). Then, for every grid, the schedule is replayed on
    the real runs, and a penalty not yet solved is solved when it is asked
    for, with runs the schedule may ask for next (_solve_on_demand). It is
    recorded in that order, and runs solved but not in it are discarded, so
    the path is the one the penalties solved one at a time would give.

    Every successful run feeds the top-K orderings it visited into the size
    buckets (score_buckets), so buckets are filled for all k = 1..K as soon
    as one run succeeds. A penalty whose run aborts contributes nothing but
    the grid continues; if every run aborts, SolverAbort is raised. A K
    above p, or a Y unfit for the model, raises DimensionError first.
    """
    ctx0 = make_context(X, Y, model=model)
    if grid_cfg.K > ctx0.p:
        raise DimensionError(f"K={grid_cfg.K} exceeds p={ctx0.p}")
    try:
        lam_top = lambda_max(ctx0)
    except NonFiniteInputError as exc:
        raise SolverAbort(f"cannot start the grid: {exc}") from exc

    runs: dict[float, SolverRun | SolverAbort] = {}
    diagnostics: list[LambdaDiagnostic] = []
    traces: list[np.ndarray] = []  # of every successful recorded run
    for lam in _plan_and_solve(ctx0, lam_top, grid_cfg, runs):
        run = runs[lam]
        if isinstance(run, SolverAbort):
            diagnostics.append(
                LambdaDiagnostic(lam, -1, run.iteration or 0, False, None, failed=True)
            )
            continue
        diagnostics.append(LambdaDiagnostic(
            lam, _terminal_size(run, grid_cfg.rho), run.iterations, run.converged,
            run.objective,
        ))
        traces.append(run.trace)
    if not traces:
        raise SolverAbort("no penalty value produced a successful run")

    # Every successful run visits at least one top-K ordering, so no bucket
    # is empty here.
    buckets = score_buckets(ctx0, unique_rows(np.concatenate(traces)), grid_cfg.K)

    return SolutionPath(
        model=model,
        n=ctx0.n,
        p=ctx0.p,
        q=ctx0.q,
        K=grid_cfg.K,
        buckets=buckets,
        lambda_grid=sorted(((d.lam, d.terminal_size) for d in diagnostics
                            if not d.failed), reverse=True),
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
