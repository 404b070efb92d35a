"""Exact oracle for small p: the closed form for pls1, exhaustive
enumeration with eigen-solves pruned by a Frobenius bound for pls2 and pca.

The exhaustive enumerator is the reference the heuristic path is judged
against, so it shares no eigen-solver or search code with the rest of the
package: corner values here come from numpy's dense symmetric
eigendecomposition.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .errors import DimensionError, NonFiniteInputError, SizeGuardError
from .linalg import data_matrix
from .objective import MODELS, response_matrix
from .path import Subset

EXHAUSTIVE_P_LIMIT = 25

# Combinations scored per stacked eigen-solve; bounds memory at any size.
_CHUNK = 256

# Relative margin below the incumbent's eigenvalue under which a block's
# Frobenius norm prunes it. eigvalsh's backward error (~k eps lambda) and the
# rounding of the norm (~k^2 eps relative) stay below 1e-13 at k <= 25, so a
# pruned combination's computed value lies strictly above the incumbent's.
_BOUND_SLACK = 1e-10


@dataclass
class OracleResult:
    """Per-size exact optima: k -> (subset, unpenalized objective).

    ``enumerated_count`` counts the combinations visited, ``scored_count``
    those whose objective was computed: for pls1 both are max_k, one
    subset per size from the closed form; for pls2 and pca the scored ones
    are those the Frobenius bound could not rule out (the incumbent's at
    most p - k + 1 seed solves per size are not counted)."""

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
    SizeGuardError for p above 25, for every model (enumeration cost grows
    as 2^p), and DimensionError for an X that is not 2-D (linalg.data_matrix),
    a max_k that is not an integer in 1..p, or a response that does not fit
    the model (objective.response_matrix).

    pls1 takes its closed form: the best k-subset holds the k largest
    z_j^2, ties to the higher index. pls2/pca enumerate combinations per
    size in chunks of _CHUNK and build the smaller Gram block of each.
    Since the top eigenvalue of a PSD block is at most its Frobenius norm,
    only the blocks whose norm reaches the incumbent (the best value so
    far, first the size-(k-1) winner plus its best column) within
    _BOUND_SLACK go to one stacked dense eigen-solve; the rest cannot win
    or tie. Ties keep the lexicographically smallest bits.
    """
    X = data_matrix(X)
    n, p = X.shape
    if p > EXHAUSTIVE_P_LIMIT:
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

    count = 0
    scored = 0
    prev: tuple[int, ...] = ()
    for k in range(1, max_k + 1):
        # Incumbent: the size-(k-1) winner plus its best single column. It
        # only sets the pruning threshold; the winner comes from the
        # enumeration, which visits this combination too.
        if prev:
            rows = np.array([sorted(prev + (j,)) for j in range(p) if j not in prev],
                            dtype=np.intp)
            bound = float(np.linalg.eigvalsh(blocks_of(rows))[:, -1].max())
        else:
            bound = -np.inf
        best_val = np.inf
        best = None
        combos = combinations(range(p), k)
        while True:
            chunk = np.fromiter(chain.from_iterable(islice(combos, _CHUNK)),
                                dtype=np.intp).reshape(-1, k)
            if not len(chunk):
                break
            count += len(chunk)
            blocks = blocks_of(chunk)
            # lambda_max <= ||block||_F: a row whose norm falls short of the
            # incumbent by more than _BOUND_SLACK cannot win or tie; a NaN
            # norm is kept.
            top = max(bound, -best_val)
            if top > 0.0:
                fro = np.sqrt(np.einsum("bij,bij->b", blocks, blocks))
                keep = ~(fro < top * (1.0 - _BOUND_SLACK))
                if not keep.any():
                    continue
                chunk, blocks = chunk[keep], blocks[keep]
            scored += len(chunk)
            values = -np.linalg.eigvalsh(blocks)[:, -1]
            low = values.min()
            # Combinations come in index order, not bits order: compare the
            # tied ones explicitly.
            tied = min(Subset(p, tuple(chunk[i].tolist()))
                       for i in np.flatnonzero(values == low))
            if low < best_val or (low == best_val and tied < best):
                best_val, best = low, tied
        per_size[k] = (best, float(best_val))
        prev = best.idx
    return OracleResult(model, p, per_size, enumerated_count=count,
                        scored_count=scored)


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
