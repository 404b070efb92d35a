"""Exact oracle: the closed form for pls1 at any p, exhaustive enumeration
with eigen-solves pruned by a Frobenius bound for pls2 and pca at p <= 25.

The exhaustive enumerator is the reference the heuristic path is judged
against, so it shares no eigen-solver or search code with the rest of the
package: corner values here come from numpy's dense symmetric
eigendecomposition.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonFiniteInputError, SizeGuardError
from .linalg import data_matrix
from .objective import MODELS, response_matrix
from .path import Subset

EXHAUSTIVE_P_LIMIT = 25

# Subsets scored per stacked eigen-solve; bounds memory at any size.
_CHUNK = 256

# Columns held in the low bits of a chunk of subsets: every chunk shares its
# high bits, the columns from _LOW_BITS on, so no table over subsets holds
# more than 2^_LOW_BITS entries.
_LOW_BITS = 16

# Relative margin below the incumbent's eigenvalue under which a subset's
# Frobenius norm prunes it. The squared norm sums the k(k+1)/2 <= 325
# distinct terms G_ij^2, the off-diagonal ones doubled (exactly). In any
# order, the recurrence's included, m nonnegative terms each rounded once
# sum to within (m + 1) u of their exact sum (u = 2^-53), so the norm is
# within 2e-14 of ||G_S||_F, relatively, whatever the order. A q x q block
# (q < k <= 25) is built from M, not from G = M M^T, whose entries round by
# at most q u |M_i| |M_j|: against the block's eigenvalues that moves the
# bound by at most q k u lambda_max < 1e-13 lambda_max. With eigvalsh's
# backward error (~k u lambda) all of this stays below 1e-12, so a pruned
# subset's computed value lies strictly above the incumbent's. Squares
# below the normal float range round absolutely instead; see _cut.
_BOUND_SLACK = 1e-10


@dataclass
class OracleResult:
    """Per-size exact optima: k -> (subset, unpenalized objective).

    ``enumerated_count`` counts the subsets of each size, C(p, k) summed
    over k <= max_k, ``scored_count`` those whose objective was computed:
    for pls1 both are max_k, one subset per size from the closed form; for
    pls2 and pca the scored ones are those the Frobenius bound could not
    rule out (the incumbent's at most p - k + 1 seed solves per size are
    not counted)."""

    model: str
    p: int
    per_size: dict[int, tuple[Subset, float]]
    enumerated_count: int
    scored_count: int


def exhaustive_path(
    X: np.ndarray,
    Y: np.ndarray | None,
    model: str,
    max_k: int | None = None,
) -> OracleResult:
    """Return the per-size argmin of the corner objective. Raises
    SizeGuardError for pls2 and pca above p = 25 (enumeration cost grows
    as 2^p), and DimensionError for an X that is not 2-D (linalg.data_matrix),
    a max_k that is not an integer in 1..p, or a response that does not fit
    the model (objective.response_matrix).

    pls1 takes its closed form at any p: the best k-subset holds the k
    largest z_j^2, ties to the higher index. pls2/pca bound each subset S by
    ||G_S||_F, which the top eigenvalue of the PSD block cannot exceed. The
    squared norms come from the recurrence
    F(S + {j}) = F(S) + 2 sum_{i in S} G_ij^2 + G_jj^2 over bit masks, a
    chunk of at most 2^_LOW_BITS masks at a time. Per size, only the subsets
    whose norm reaches the incumbent (the best value so far, first the
    size-(k-1) winner plus its best column) within _BOUND_SLACK can win or
    tie; they are visited in descending norm, the smaller Gram block of
    each eigen-solved in stacks of _CHUNK, until the next norm falls short.
    Ties keep the lexicographically smallest bits.
    """
    X = data_matrix(X)
    n, p = X.shape
    if p > EXHAUSTIVE_P_LIMIT and model != "pls1":
        raise SizeGuardError(
            f"exhaustive search refused for p={p} > {EXHAUSTIVE_P_LIMIT}"
        )
    if max_k is None:
        max_k = p
    if not isinstance(max_k, numbers.Integral) or not 1 <= max_k <= p:
        raise DimensionError(f"max_k={max_k!r} is not an integer in 1..{p}")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    Y = response_matrix(Y, model, n)

    per_size: dict[int, tuple[Subset, float]] = {}

    if model == "pls1":
        y = Y[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            z2 = _finite(((X.T @ y) / n) ** 2)
        # The best k-subset holds the k largest z_j^2; ranking by (-z^2, -j)
        # sends ties to the higher index, which gives the smallest bits.
        order = np.lexsort((-np.arange(p), -z2))
        for k in range(1, max_k + 1):
            idx = np.sort(order[:k])
            per_size[k] = (Subset(p, tuple(idx.tolist())), -float(np.sum(z2[idx])))
        return OracleResult(model, p, per_size, enumerated_count=max_k,
                            scored_count=max_k)

    if model == "pls2":
        with np.errstate(over="ignore", invalid="ignore"):
            M = (X.T @ Y) / n
            G = _finite(M @ M.T)
        q = M.shape[1]
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            G = _finite((X.T @ X) / n)
        q = None

    def blocks_of(rows: np.ndarray) -> np.ndarray:
        # The smaller Gram block of each (sorted) index row.
        if q is not None and q < rows.shape[1]:
            Ms = M[rows]
            return np.swapaxes(Ms, 1, 2) @ Ms
        return G[rows[:, :, None], rows[:, None, :]]

    # Bit j of a mask selects column j. A chunk holds the masks that share
    # their high bits h (columns low..p-1), its low masks grouped by
    # popcount: group j is by_count[starts[j]:starts[j + 1]].
    low = min(p, _LOW_BITS)
    with np.errstate(over="ignore"):
        G2 = G * G
        f_low = _squared_norms(G2[:low, :low])
        f_high = _squared_norms(G2[low:, low:])
        # cross[h][i] = 2 sum_{j in h} G_ij^2 for each low column i.
        cross = _doubled(2.0 * G2[low:, :low])
    low_counts = _doubled(np.ones(low, dtype=np.uint8))
    by_count = np.argsort(low_counts, kind="stable")
    starts = np.searchsorted(low_counts[by_count], np.arange(low + 2))
    f_low = f_low[by_count]
    high_counts = _doubled(np.ones(p - low, dtype=np.intp))

    count = 0
    scored = 0
    prev: tuple[int, ...] = ()
    for k in range(1, max_k + 1):
        # Incumbent: the size-(k-1) winner plus its best single column. It
        # only sets the pruning threshold; the winner comes from the
        # subsets kept below, among which it is.
        if prev:
            rows = np.array([sorted(prev + (j,)) for j in range(p) if j not in prev],
                            dtype=np.intp)
            bound = float(np.linalg.eigvalsh(blocks_of(rows))[:, -1].max())
        else:
            bound = -np.inf
        best_val = np.inf
        best = None
        # lambda_max <= ||G_S||_F: a subset whose norm falls short of the
        # incumbent by more than _BOUND_SLACK cannot win or tie.
        cut = _cut(bound)
        masks, norms = [], []
        for h in np.flatnonzero((high_counts <= k) & (k - high_counts <= low)):
            j = k - high_counts[h]
            group = slice(starts[j], starts[j + 1])
            f = f_low[group]
            if h:  # chunk 0 holds no high column
                with np.errstate(over="ignore"):
                    f = f + _doubled(cross[h])[by_count[group]] + f_high[h]
            count += len(f)
            keep = np.flatnonzero(f >= cut)
            masks.append((h << low) | by_count[group][keep])
            norms.append(f[keep])
        norms = np.concatenate(norms)
        order = np.argsort(-norms, kind="stable")
        masks, norms = np.concatenate(masks)[order], norms[order]
        at = 0
        while at < len(masks):
            stop = at + np.count_nonzero(norms[at:at + _CHUNK]
                                         >= _cut(max(bound, -best_val)))
            if stop == at:
                break
            chunk = np.nonzero((masks[at:stop, None] >> np.arange(p)) & 1)[1].reshape(-1, k)
            at = stop
            scored += len(chunk)
            values = -np.linalg.eigvalsh(blocks_of(chunk))[:, -1]
            low_val = values.min()
            # Subsets come in norm order, not bits order: compare the tied
            # ones explicitly.
            tied = min(Subset(p, tuple(chunk[i].tolist()))
                       for i in np.flatnonzero(values == low_val))
            if low_val < best_val or (low_val == best_val and tied < best):
                best_val, best = low_val, tied
        per_size[k] = (best, float(best_val))
        prev = best.idx
    return OracleResult(model, p, per_size, enumerated_count=count,
                        scored_count=scored)


def _cut(top: float) -> float:
    # The squared norm a subset must reach to be eigen-solved against the
    # incumbent value top (as a Python float, a square beyond the float
    # range is inf, quietly). Every subset is kept with no positive
    # incumbent, and below the smallest normal float: there a square rounds
    # by up to 2^-1075 absolute, which adds up to 3e-321 over a norm's at
    # most 1300 operations, and the slack covers that only from 3e-311 up.
    limit = float(top) * (1.0 - _BOUND_SLACK)
    cut = limit * limit
    return cut if limit > 0.0 and cut >= np.finfo(float).tiny else -np.inf


def _doubled(v: np.ndarray) -> np.ndarray:
    # t[m] = sum of v[i] over the set bits i of m, by doubling:
    # t[m + 2^i] = t[m] + v[i] for every m < 2^i.
    t = np.zeros((1 << len(v),) + v.shape[1:], dtype=v.dtype)
    for i in range(len(v)):
        np.add(t[:1 << i], v[i], out=t[1 << i:2 << i])
    return t


def _squared_norms(G2: np.ndarray) -> np.ndarray:
    # f[m] = ||G_S||_F^2 for the columns S set in m, from G2 = G * G by
    # F(S + {j}) = F(S) + 2 sum_{i in S} G_ij^2 + G_jj^2, j above S.
    f = np.zeros(1 << len(G2))
    for j in range(len(G2)):
        f[1 << j:2 << j] = f[:1 << j] + 2.0 * _doubled(G2[:j, j]) + G2[j, j]
    return f


def _finite(kernel: np.ndarray) -> np.ndarray:
    # Finite input can still overflow in its cross-products.
    if not np.isfinite(kernel).all():
        raise NonFiniteInputError("data overflow: the cross-products are non-finite")
    return kernel


def oracle_to_dict(result: OracleResult) -> dict:
    return {
        "model": result.model,
        "p": result.p,
        "oracle": True,
        "buckets": [
            {
                "k": k,
                "bits": result.per_size[k][0].bitstring(),
                "objective": result.per_size[k][1],
            }
            for k in sorted(result.per_size)
        ],
    }
