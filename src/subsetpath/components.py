"""Multi-component fitting: per-component best-subset loadings, deflation,
adjusted weights, regression coefficients, prediction, explained-variance
and cross-validated predictive-power reporting.

Component h is built on the deflated data (X_{h-1}, Y_{h-1}); deflation
then removes the fitted rank-one contribution:

    X_h = X_{h-1} - xi_h c_h^T                  with xi_h = X_{h-1} u_h
    Y_h = Y_{h-1} - xi_h d_h^T   (regression)
    Y_h = Y_{h-1} - psi_h e_h^T  (canonical)    with psi_h = Y_{h-1} v_h

where c_h = X_{h-1}^T xi_h / (xi_h^T xi_h), d_h likewise against Y, and
e_h = Y_{h-1}^T xi_h / (psi_h^T xi_h), the tabulated denominator. Adjusted
weights w_h express each score directly in original-variable coordinates:
X w_h = X_{h-1} u_h.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLoadingError,
    DegenerateScoreError,
    DimensionError,
    NonFiniteInputError,
    ParseError,
    SingularMatrixError,
)
from .linalg import column_means, data_matrix, top_eigpair
from .objective import MODELS, lambda_max, make_context, response_matrix
from .path import GridConfig, SolutionPath, Subset, dynamic_grid


@dataclass
class ComponentState:
    h: int
    subset: Subset
    u: np.ndarray
    v: np.ndarray | None
    xi: np.ndarray
    c: np.ndarray
    d: np.ndarray | None
    e: np.ndarray | None
    delta: float
    objective: float | None = None
    w: np.ndarray | None = None


@dataclass
class FittedModel:
    model: str
    mode: str | None
    H: int
    x_means: np.ndarray
    y_means: np.ndarray | None
    components: list[ComponentState]
    W: np.ndarray
    T: np.ndarray
    beta: np.ndarray | None
    pev: np.ndarray
    cpev: np.ndarray


@dataclass(frozen=True)
class PickStrategy:
    """How to pick the one subset used for a component before deflation.

    ``kind`` is fixed-k (needs an integer ``k`` >= 1), cpev-drop (needs a
    ``fraction`` in (0, 1)), min-msep or max-cor; ``folds`` is an integer
    (fit checks its range). Construction raises ValueError for any other
    kind, a non-integer ``folds``, or a missing or out-of-range argument."""

    kind: str
    k: int | None = None
    fraction: float | None = None
    folds: int = 5

    def __post_init__(self):
        if not isinstance(self.folds, numbers.Integral):
            raise ValueError(f"folds={self.folds!r} is not an integer")
        if self.kind == "fixed-k":
            if not isinstance(self.k, numbers.Integral) or self.k < 1:
                raise ValueError("fixed-k needs an integer k >= 1")
        elif self.kind == "cpev-drop":
            if self.fraction is None or not 0.0 < self.fraction < 1.0:
                raise ValueError("cpev-drop fraction must lie in (0, 1)")
        elif self.kind not in ("min-msep", "max-cor"):
            raise ValueError(f"unknown pick strategy {self.kind!r}")

    @classmethod
    def fixed_k(cls, k: int) -> "PickStrategy":
        return cls(kind="fixed-k", k=k)

    @classmethod
    def cpev_drop(cls, fraction: float) -> "PickStrategy":
        return cls(kind="cpev-drop", fraction=fraction)

    @classmethod
    def min_msep(cls, folds: int = 5) -> "PickStrategy":
        return cls(kind="min-msep", folds=folds)

    @classmethod
    def max_cor(cls, folds: int = 5) -> "PickStrategy":
        return cls(kind="max-cor", folds=folds)

    @classmethod
    def parse(cls, text: str) -> "PickStrategy":
        """Parse CLI forms: fixed-k=K, cpev-drop=F, min-msep, max-cor."""
        name, eq, arg = text.partition("=")
        if name == "fixed-k":
            return cls(kind=name, k=int(arg))
        if name == "cpev-drop":
            return cls(kind=name, fraction=float(arg))
        strategy = cls(kind=name)
        if eq:
            raise ValueError(f"{name} takes no argument")
        return strategy

    def __str__(self) -> str:
        """The CLI form that parse reads."""
        arg = self.k if self.kind == "fixed-k" else self.fraction
        return self.kind if arg is None else f"{self.kind}={arg}"


def loading_from_subset(
    X_h: np.ndarray,
    Y_h: np.ndarray | None,
    model: str,
    subset: Subset,
) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Optimal loading for a fixed support on (possibly deflated) data.

    pls1: the normalized masked cross-covariance. pls2: the top singular
    pair of the masked M, from the top eigenpair of the smaller Gram block.
    pca: the top eigenvector of the masked covariance. The returned u is
    embedded in R^p with zeros off-support.
    """
    idx = subset.indices
    if idx.size == 0:
        raise DegenerateLoadingError("empty subset has no loading")
    n, p = X_h.shape
    Xs = X_h[:, idx]
    u = np.zeros(p)

    if model == "pls1":
        y = Y_h.reshape(-1)
        zs = Xs.T @ y / n
        norm = float(np.linalg.norm(zs))
        if norm == 0.0:
            raise DegenerateLoadingError("masked cross-covariance is zero")
        u[idx] = zs / norm
        return u, np.ones(1), norm

    if model == "pls2":
        Ms = Xs.T @ Y_h / n
        k, q = Ms.shape
        if k <= q:
            pair = top_eigpair(Ms @ Ms.T)
            if pair.value <= 0.0:
                raise DegenerateLoadingError("masked cross-covariance is zero")
            us = pair.vector
            v = Ms.T @ us
            v /= np.linalg.norm(v)
        else:
            pair = top_eigpair(Ms.T @ Ms)
            if pair.value <= 0.0:
                raise DegenerateLoadingError("masked cross-covariance is zero")
            v = pair.vector
            us = Ms @ v
            us /= np.linalg.norm(us)
        # Joint sign: largest-magnitude entry of u positive.
        j = int(np.argmax(np.abs(us)))
        if us[j] < 0:
            us, v = -us, -v
        u[idx] = us
        return u, v, float(np.sqrt(pair.value))

    if model == "pca":
        pair = top_eigpair(Xs.T @ Xs / n)
        if pair.value <= 0.0:
            raise DegenerateLoadingError("masked covariance is zero")
        u[idx] = pair.vector
        return u, None, pair.value

    raise ValueError(f"unknown model {model!r}")


def _build_component(X_h: np.ndarray, Y_h: np.ndarray | None, model: str, subset: Subset,
                     h: int, mode: str | None, objective: float | None = None) -> ComponentState:
    u, v, delta = loading_from_subset(X_h, Y_h, model, subset)
    xi = X_h @ u
    ss = float(xi @ xi)
    if ss == 0.0:
        raise DegenerateScoreError(f"component {h} has a zero score")
    c = X_h.T @ xi / ss
    d = e = None
    if model != "pca":
        if mode == "regression":
            d = Y_h.T @ xi / ss
        else:
            denom = float((Y_h @ v) @ xi)
            if denom == 0.0:
                raise DegenerateScoreError(f"component {h}: zero canonical denominator")
            e = Y_h.T @ xi / denom
    return ComponentState(
        h=h, subset=subset, u=u, v=v, xi=xi, c=c, d=d, e=e,
        delta=delta, objective=objective,
    )


def deflate(
    X_h: np.ndarray,
    Y_h: np.ndarray | None,
    comp: ComponentState,
    mode: str | None,
    model: str,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Remove ``comp``'s rank-one contribution from the rows given.

    The scores come from those rows, xi = X_h u (and psi = Y_h v in
    canonical mode), and the column-space operators c, d, e from ``comp``.
    On the rows ``comp`` was built on this is its own deflation, with
    X_h^T xi = 0 afterwards; held-out rows go through the same map, so
    deflating stacked row blocks equals deflating each block alone.
    """
    if float(comp.xi @ comp.xi) == 0.0:
        raise DegenerateScoreError("cannot deflate on a zero score")
    xi = X_h @ comp.u
    X_next = X_h - np.outer(xi, comp.c)
    if model == "pca":
        return X_next, None
    if mode == "regression":
        return X_next, Y_h - np.outer(xi, comp.d)
    return X_next, Y_h - np.outer(Y_h @ comp.v, comp.e)


def adjusted_weights(X: np.ndarray, components: list[ComponentState]) -> np.ndarray:
    """Weights expressing deflated-space loadings in original coordinates.

    w_1 = u_1 and w_h = prod_{j<h} (I - u_j c_j^T) u_h, so that
    X w_h = X_{h-1} u_h holds as an algebraic identity (verified here;
    rounding breaks it when C^T U is near-singular, which raises
    SingularMatrixError). Where C^T U is nonsingular this equals the
    closed form U (C^T U)^{-1}.
    """
    p = components[0].u.shape[0]
    H = len(components)
    W = np.zeros((p, H))
    for h, comp in enumerate(components):
        w = comp.u.copy()
        for j in range(h - 1, -1, -1):
            w -= components[j].u * float(components[j].c @ w)
        W[:, h] = w
        comp.w = w
        resid = float(np.max(np.abs(X @ w - comp.xi)))
        scale = max(1.0, float(np.max(np.abs(comp.xi))))
        if resid > 1e-8 * scale:
            raise SingularMatrixError(
                f"adjusted weight {h + 1} violates X w = X_(h-1) u: {resid:.3e}"
            )
    return W


def regression_coefficients(components: list[ComponentState]) -> np.ndarray:
    """beta = U (C^T U)^{-1} D^T, mapping original X to predicted Y.

    Prediction through beta reproduces the score-space prediction
    sum_h xi_h d_h^T on training data.
    """
    if any(c.d is None for c in components):
        raise ValueError("regression coefficients need regression-mode components")
    U = np.column_stack([c.u for c in components])
    C = np.column_stack([c.c for c in components])
    D = np.column_stack([c.d for c in components])
    CtU = C.T @ U
    cond = np.linalg.cond(CtU)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularMatrixError(f"C^T U is singular (cond={cond:.3e})")
    return U @ np.linalg.solve(CtU, D.T)


def predict(fit: FittedModel, X_new: np.ndarray) -> np.ndarray:
    """Predict responses for raw X_new, a 1-D one as one row; centering uses
    the training means."""
    if fit.beta is None:
        raise ValueError("model has no regression coefficients to predict with")
    X_new = data_matrix(np.atleast_2d(X_new))
    if X_new.shape[1] != fit.x_means.shape[0]:
        raise DimensionError(
            f"X_new has {X_new.shape[1]} columns, model expects {fit.x_means.shape[0]}"
        )
    return (X_new - fit.x_means) @ fit.beta + fit.y_means


def _cpev(X: np.ndarray, T: np.ndarray) -> float:
    """Share of ||X||_F^2 in the span of the score columns T, from one QR:
    ||Q^T X||_F^2 / ||X||_F^2 over the columns of Q whose R diagonal is not
    negligible, so non-orthogonal sparse scores are not double counted."""
    total = float(np.sum(X * X))
    if total == 0.0:
        raise ValueError("X has zero norm")
    Q, R = np.linalg.qr(T)
    keep = np.abs(np.diag(R)) > 1e-12 * max(1.0, float(np.max(np.abs(T))))
    return float(np.sum((Q[:, keep].T @ X) ** 2)) / total


def pev_cpev(X: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Explained-variance shares of X for each leading block of components:
    CPEV_h is _cpev of the first h scores X w_1 .. X w_h (adjusted weights,
    original variable space), PEV_h = CPEV_h - CPEV_{h-1}.
    """
    T = X @ W
    cpev = np.array([_cpev(X, T[:, :h]) for h in range(1, T.shape[1] + 1)])
    return np.diff(cpev, prepend=0.0), cpev


@dataclass
class Q2Report:
    """Cross-validated predictive power per component: 1 - PRESS_h / RSS_{h-1},
    with the total aggregating PRESS and RSS across responses before the
    ratio."""

    total: np.ndarray
    per_response: np.ndarray


def _fold_indices(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


# (centered training X, Y; centered held-out X; raw held-out Y; training Y means)
Split = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _splits(X: np.ndarray, Y: np.ndarray, folds: int, seed: int) -> Iterator[Split]:
    """The v-fold splits of raw (X, Y), one fold at a time: the training
    rows centered by their own means, the held-out X rows centered by the
    same means, the raw held-out Y rows and the training Y means."""
    n = X.shape[0]
    for val in _fold_indices(n, folds, np.random.default_rng(seed)):
        # A mask, not np.setdiff1d, whose np.unique imports numpy.ma (~1.2 MB).
        keep = np.ones(n, dtype=bool)
        keep[val] = False
        tr = np.flatnonzero(keep)
        xm, ym = column_means(X[tr], "X"), column_means(Y[tr], "Y")
        yield X[tr] - xm, Y[tr] - ym, X[val] - xm, Y[val], ym


def _check_fold_rows(n: int, folds: int, H: int):
    """Refuse folds whose smallest training fold, n - ceil(n / folds) rows,
    holds no more rows than components: centered, r rows have rank r - 1,
    so they carry at most r - 1 components."""
    rows = n - -(-n // folds)
    if rows <= H:
        raise DegenerateLoadingError(f"folds={folds} on {n} rows leaves a training fold "
                                     f"of {rows} row(s), too few for {H} component(s)")


def _check_rank(X: np.ndarray, Y: np.ndarray | None, H: int, center: bool, mode: str | None):
    """Refuse more components than the data carry: each deflation lowers X's
    rank by one (and Y's in canonical mode), and a centered n x p X has rank
    at most min(n - 1, p), an uncentered one min(n, p)."""
    n, p = X.shape
    q = Y.shape[1] if mode == "canonical" else p
    m = min(n - 1 if center else n, p, q)
    if m < H:
        y = f" and {q}-column Y in canonical mode" if mode == "canonical" else ""
        raise DegenerateLoadingError(f"{'a centered' if center else 'an uncentered'} {n} x {p} "
                                     f"X{y} carries at most {m} component(s), too few for H={H}")


def _check_signal(X0: np.ndarray, Y0: np.ndarray | None, model: str):
    """Make the first grid's refusals of the centered data (non-finite or
    zero lambda_max) ahead of a fold check, worded as fit words them."""
    try:
        lambda_max(make_context(X0, Y0, model))
    except DegenerateLoadingError as exc:
        raise DegenerateLoadingError(f"component 1: {exc}") from exc


def _check_training_folds(X: np.ndarray, Y: np.ndarray, folds: int, seed: int, H: int):
    """Refuse q2's folds if a training fold holds too few rows for H
    components (_check_fold_rows), or a constant response column."""
    _check_fold_rows(X.shape[0], folds, H)
    if any(np.any(np.ptp(Ytr, axis=0) == 0.0) for _, Ytr, *_ in _splits(X, Y, folds, seed)):
        raise DegenerateLoadingError("a training fold has a constant response")


def _refit_fixed(Xtr: np.ndarray, Ytr: np.ndarray | None, model: str, supports: list[Subset],
                 mode: str | None) -> tuple[list[ComponentState], np.ndarray, np.ndarray | None]:
    """Refit components on ``supports`` in turn on training rows, each on the
    rows deflated through the ones before it; returns them and the rows
    deflated through all of them, which the caller's next build reads."""
    comps = []
    for h, subset in enumerate(supports, start=1):
        comps.append(_build_component(Xtr, Ytr, model, subset, h, mode))
        Xtr, Ytr = deflate(Xtr, Ytr, comps[-1], mode, model)
    return comps, Xtr, Ytr


def _sq_errors(split: Split, comps: list[ComponentState]) -> np.ndarray:
    """Squared errors (m, q) of a split's held-out rows predicted through
    beta of ``comps``; min-msep sums them all, q2 per response."""
    _, _, X_val, Y_val, ym = split
    return (X_val @ regression_coefficients(comps) + ym - Y_val) ** 2


def _split_sse(split: Split, model: str, supports: list[Subset]) -> np.ndarray:
    """Squared prediction errors (H, q) summed over a split's held-out
    rows, row h - 1 through beta of the first h components: the first H - 1
    refitted on its training rows, the last (if any) built on the rows they leave."""
    comps, Xh, Yh = _refit_fixed(*split[:2], model, supports[:-1], "regression")
    for subset in supports[-1:]:
        comps.append(_build_component(Xh, Yh, model, subset, len(supports), "regression"))
    return np.array([np.sum(_sq_errors(split, comps[:h]), axis=0)
                     for h in range(1, len(comps) + 1)])


def _check_integer(name: str, value):
    """Refuse a count that is not a Python or numpy integer with ParseError."""
    if not isinstance(value, numbers.Integral):
        raise ParseError(f"{name}={value!r} is not an integer")


def _check_components(H):
    _check_integer("H", H)
    if H < 1:
        raise ParseError(f"H={H}: at least one component is needed")


def _check_seed(seed):
    _check_integer("seed", seed)
    if seed < 0:
        raise ParseError(f"seed={seed} is negative")


def q2(
    X: np.ndarray,
    Y: np.ndarray,
    model: str = "pls2",
    H: int = 1,
    folds: int = 5,
    seed: int = 0,
    supports: list[Subset] | None = None,
) -> Q2Report:
    """v-fold PRESS/RSS criterion for regression-mode models.

    ``supports`` fixes the per-component subsets (e.g. those a fitted
    sparse model chose); by default all components use the full variable
    set. The folds are those of the v-fold picks in ``fit`` at the same
    ``folds`` and ``seed``. _split_sse gives PRESS_1 .. PRESS_H fold by
    fold, and RSS_1 .. RSS_{H-1} on the in-sample split of the centered
    data from the first H - 1 supports (nothing reads RSS_H), through the
    picks' refit and held-out error. A model other
    than pls1 or pls2, folds that are not an integer in 2..n, or an H or
    seed that is not an integer, H below 1 or a negative seed raise
    ParseError; an X that is not 2-D, a Y that does not fit the model
    (objective.response_matrix), or ``supports`` that are not H subsets of
    X's p columns DimensionError; an H above min(n - 1, p), the components
    the centered X carries, or a fold whose training rows hold a constant
    response column (max == min) or no more rows than the H components,
    DegenerateLoadingError.
    """
    if model not in ("pls1", "pls2"):
        raise ParseError("the PRESS/RSS criterion applies to regression-mode PLS")
    X = data_matrix(X)
    Y = response_matrix(Y, model, X.shape[0])
    _check_integer("folds", folds)
    if not 2 <= folds <= X.shape[0]:
        raise ParseError(f"folds={folds} out of range 2..{X.shape[0]}")
    _check_seed(seed)
    _check_components(H)
    p = X.shape[1]
    if supports is None:
        supports = [Subset(p, tuple(range(p)))] * H
    if len(supports) != H:
        raise DimensionError(f"need {H} supports, got {len(supports)}")
    if any(s.p != p for s in supports):
        raise DimensionError(f"supports must be subsets of the {p} columns of X")
    _check_rank(X, Y, H, True, "regression")

    # Residual sums per component count on the centered data: RSS_0 .. RSS_{H-1}.
    Xc = X - column_means(X, "X")
    Yc = Y - column_means(Y, "Y")
    rss = np.vstack([np.sum(Yc * Yc, axis=0),
                     *_split_sse((Xc, Yc, Xc, Yc, 0.0), model, supports[:-1])])
    _check_training_folds(X, Y, folds, seed, H)
    press = sum(_split_sse(split, model, supports) for split in _splits(X, Y, folds, seed))
    per_response = 1.0 - press / rss
    total = 1.0 - press.sum(axis=1) / rss.sum(axis=1)
    return Q2Report(total=total, per_response=per_response)


def _cv_scores(kind: str, path: SolutionPath, comps: list[ComponentState],
               splits: Iterable[Split], model: str, mode: str | None) -> np.ndarray:
    """Score, for k = 1..K, of bucket k's best subset as the next component,
    over ``splits`` of the form _splits yields: the held-out mean squared
    prediction error for min-msep (NonFiniteInputError if one is not
    finite) and the mean absolute correlation of the held-out X and Y
    scores for max-cor (splits where either score is constant are skipped),
    the protocols of Le Cao et al. 2008; the mean CPEV of all the components
    on the undeflated training X for cpev-drop (_cpev of their h scores). A
    holdout set is one split, and so is cpev-drop's in-sample
    (X0, Y0, X0, Y0, 0.0), Y0 None for pca.

    Per split, _refit_fixed refits the earlier components on the training
    rows; each k builds only its last component on the rows it returns, and
    max-cor alone deflates the held-out rows too. min-msep scores through
    _sq_errors, as q2 does.
    """
    K, h = path.K, len(comps) + 1
    per_split: list[list[float]] = [[] for _ in range(K)]
    count = 0
    for split in splits:
        X0, Ytr, X_val, Y_val, ym = split
        count += 0 if Y_val is None else Y_val.size
        prev, Xtr, Ytr = _refit_fixed(X0, Ytr, model, [c.subset for c in comps], mode)
        if kind == "max-cor":
            Xv, Yv = X_val, Y_val - ym
            for comp in prev:
                Xv, Yv = deflate(Xv, Yv, comp, mode, model)
        for k in range(1, K + 1):
            last = _build_component(Xtr, Ytr, model, path.buckets[k].best, h, mode)
            if kind == "cpev-drop":
                per_split[k - 1].append(_cpev(X0, X0 @ adjusted_weights(X0, prev + [last])))
            elif kind == "min-msep":
                with np.errstate(over="ignore", invalid="ignore"):
                    per_split[k - 1].append(float(np.sum(_sq_errors(split, prev + [last]))))
            else:
                xi_v, psi_v = Xv @ last.u, Yv @ last.v
                if float(np.std(xi_v)) > 0.0 and float(np.std(psi_v)) > 0.0:
                    per_split[k - 1].append(abs(float(np.corrcoef(xi_v, psi_v)[0, 1])))
    if kind == "min-msep":
        msep = np.array([sum(s) for s in per_split]) / count
        if not np.isfinite(msep).all():
            raise NonFiniteInputError("min-msep: the held-out prediction error overflows")
        return msep
    return np.array([np.mean(s) if s else -np.inf for s in per_split])


def _pick_subset_size(strategy: PickStrategy, path: SolutionPath, comps: list[ComponentState],
                      model: str, mode: str | None, splits: Iterable[Split]) -> int:
    if strategy.kind == "fixed-k":
        return strategy.k
    scores = _cv_scores(strategy.kind, path, comps, splits, model, mode)
    if strategy.kind == "cpev-drop":
        return int(np.argmax(scores >= (1.0 - strategy.fraction) * scores[-1])) + 1
    if strategy.kind == "min-msep":
        return int(np.argmin(scores)) + 1
    return int(np.argmax(scores)) + 1


def _fit_arguments(X, Y, model, H, strategy, mode, grid_cfg, test, seed):
    """fit's argument checks, in order; returns X, Y, mode, grid_cfg, test as fit uses them."""
    _check_components(H)
    if strategy is None:
        raise ParseError("a pick strategy is required")
    if model not in MODELS:
        raise ParseError(f"unknown model {model!r}, expected one of {MODELS}")
    if model == "pca":
        mode = None
    elif mode not in ("regression", "canonical"):
        raise ParseError(f"unknown mode {mode!r}")
    if strategy.kind == "min-msep" and mode != "regression":
        raise ParseError("min-msep needs a pls model in regression mode")
    if strategy.kind == "max-cor" and model == "pca":
        raise ParseError("max-cor needs a response; pca has none")
    if test is not None and mode != "regression":
        raise ParseError("a test pair needs a pls model in regression mode")
    _check_seed(seed)
    X = data_matrix(X)
    n, p = X.shape
    if grid_cfg is None:
        grid_cfg = GridConfig(K=p)
    if grid_cfg.K > p:
        raise DimensionError(f"K={grid_cfg.K} exceeds p={p}")
    if strategy.kind == "fixed-k" and strategy.k > grid_cfg.K:
        raise ParseError(
            f"fixed-k={strategy.k} exceeds the largest subset size K={grid_cfg.K}"
        )
    v_fold = strategy.kind == "max-cor" or (strategy.kind == "min-msep" and test is None)
    if v_fold and not 2 <= strategy.folds <= n:
        raise ParseError(f"folds={strategy.folds} out of range 2..{n}")
    Y = response_matrix(Y, model, n)
    if test is not None:
        X_test = np.atleast_2d(np.asarray(test[0], dtype=float))
        Y_test = np.asarray(test[1], dtype=float)
        if Y_test.ndim == 1:
            Y_test = Y_test[:, None]
        if X_test.ndim != 2 or Y_test.ndim != 2:
            raise DimensionError(f"test X, Y have {X_test.ndim}, {Y_test.ndim} dimensions")
        if X_test.shape[0] != Y_test.shape[0]:
            raise DimensionError(f"test X has {len(X_test)} rows, test Y {len(Y_test)}")
        if len(X_test) == 0:
            raise DimensionError("the test pair has no rows")
        if X_test.shape[1] != p or Y_test.shape[1] != Y.shape[1]:
            raise DimensionError(f"test X, Y have {X_test.shape[1]}, {Y_test.shape[1]} "
                                 f"columns; X, Y have {p}, {Y.shape[1]}")
        test = (X_test, Y_test)
    return X, Y, mode, grid_cfg, test


def fit(
    X: np.ndarray,
    Y: np.ndarray | None = None,
    model: str = "pls2",
    H: int = 1,
    strategy: PickStrategy | None = None,
    mode: str = "regression",
    grid_cfg: GridConfig | None = None,
    center: bool = True,
    test: tuple[np.ndarray, np.ndarray] | None = None,
    seed: int = 0,
) -> FittedModel:
    """Fit H components, each from a fresh solution path on the deflated
    data, picking one subset per component with ``strategy``.

    With center=True (default) the training column means are removed here
    and stored so predictions accept raw inputs. ``test`` supplies a raw
    holdout pair for the min-msep strategy. ``seed`` seeds the v-fold split
    of the min-msep and max-cor picks when they cross-validate.

    Arguments are checked before any path is solved: an unknown model or
    mode, a missing strategy, options that cannot be combined (min-msep
    outside regression mode, max-cor on pca, fixed-k above K, ``test`` for
    a model that cannot predict, v-fold folds outside 2..n), and an H or a
    seed that is not an integer, H below 1 or a negative seed raise ParseError;
    shapes that do not fit (an X that is not 2-D, K above p, a missing or
    extra Y, rows or columns of ``test`` or Y unlike X's, a ``test`` pair
    of more than two dimensions or of no rows) DimensionError;
    an H above the components the data carry (_check_rank) or v-fold folds
    whose smallest training fold holds no more rows than the H components
    DegenerateLoadingError. An invalid strategy is refused when the
    PickStrategy is built. The data are deflated only before a later
    component's grid.
    """
    X, Y, mode, grid_cfg, test = _fit_arguments(X, Y, model, H, strategy, mode,
                                                grid_cfg, test, seed)
    _check_rank(X, Y, H, center, mode)
    x_means = column_means(X, "X") if center else np.zeros(X.shape[1])
    X0 = X - x_means
    y_means = Y0 = None
    if Y is not None:
        y_means = column_means(Y, "Y") if center else np.zeros(Y.shape[1])
        Y0 = Y - y_means
    # The one split a cpev-drop or holdout pick scores on.
    split = (X0, Y0, X0, Y0, 0.0) if strategy.kind == "cpev-drop" else None
    if test is not None and strategy.kind == "min-msep":
        split = (X0, Y0, test[0] - x_means, test[1], y_means)
    if strategy.kind in ("min-msep", "max-cor") and split is None:
        _check_signal(X0, Y0, model)
        _check_fold_rows(X.shape[0], strategy.folds, H)

    comps: list[ComponentState] = []
    Xh, Yh = X0, Y0
    for h in range(1, H + 1):
        try:
            path = dynamic_grid(Xh, Yh, model, grid_cfg)
            splits = [split] if split else _splits(X, Y, strategy.folds, seed)
            k = _pick_subset_size(strategy, path, comps, model, mode, splits)
            bucket = path.buckets[k]
            comp = _build_component(
                Xh, Yh, model, bucket.best, h, mode, objective=bucket.best_value,
            )
        except (DegenerateLoadingError, DegenerateScoreError) as exc:
            raise type(exc)(f"component {h}: {exc}") from exc
        comps.append(comp)
        if h < H:
            Xh, Yh = deflate(Xh, Yh, comp, mode, model)

    W = adjusted_weights(X0, comps)
    T = X0 @ W
    beta = None
    if model != "pca" and mode == "regression":
        beta = regression_coefficients(comps)
    pev, cpev = pev_cpev(X0, W)
    return FittedModel(
        model=model, mode=mode, H=H, x_means=x_means, y_means=y_means,
        components=comps, W=W, T=T, beta=beta, pev=pev, cpev=cpev,
    )


def model_to_dict(fit_result: FittedModel) -> dict:
    return {
        "model": fit_result.model,
        "mode": fit_result.mode,
        "H": fit_result.H,
        "column_means": [float(v) for v in fit_result.x_means],
        "components": [
            {
                "h": c.h,
                "k": c.subset.size,
                "support": [int(j) for j in c.subset.indices],
                "u": [float(v) for v in c.u],
                "v": None if c.v is None else [float(v) for v in c.v],
                "w": [float(v) for v in c.w],
                "objective": None if c.objective is None else float(c.objective),
            }
            for c in fit_result.components
        ],
        "beta": None
        if fit_result.beta is None
        else [[float(v) for v in row] for row in fit_result.beta],
        "pev": [float(v) for v in fit_result.pev],
        "cpev": [float(v) for v in fit_result.cpev],
    }
