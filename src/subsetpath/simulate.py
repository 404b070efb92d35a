"""Reproducible data generators for the benchmark designs, plus the
selection/prediction metrics reported by the study harness.

Scenarios:
  multiresponse   latent model X = T C^T + E_X, Y = T (B D^T) + E_Y with a
                  single latent column and gamma inactive X-columns
  two-component   the same model with H = 2 and block-structured C columns
  univariate      three hidden Gaussian blocks; y = 3 H1 - 4 H2 + f with f
                  scaled to a requested signal-to-noise ratio
  pca-cov         Gaussian rows with a 10 x 10 covariance owning two sparse
                  leading eigenvectors (eigenvalues 200 and 100)

All generators are pure functions of (config, seed). ``holdout`` rows are
drawn from the same parameters after the training block, so train/test
splits are reproducible too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonFiniteInputError
from .path import Subset

SCENARIOS = ("multiresponse", "two-component", "univariate", "pca-cov")

PCA_COV_EIGENVALUES = (200.0, 100.0, 50.0, 50.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0)


@dataclass(frozen=True)
class SimConfig:
    scenario: str = "multiresponse"
    n: int = 100
    p: int = 15
    q: int = 10
    sigma: float = 3.0
    gamma: int = 5
    snr: float = 3.0
    holdout: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma={self.sigma} must be finite and non-negative")
        if not self.snr > 0.0:
            raise ValueError(f"snr={self.snr} must be positive (use inf for noise-free)")
        if self.n < 2:
            raise ValueError(f"n={self.n} must be at least 2 (data are centered)")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"p={self.p} and q={self.q} must be at least 1")
        if self.holdout < 0:
            raise ValueError(f"holdout={self.holdout} must be non-negative")
        if not (0 <= self.gamma <= self.p):
            raise ValueError(f"gamma={self.gamma} out of range 0..{self.p}")


@dataclass
class SimInstance:
    """A generated dataset; ``truth`` is the record written to truth.json,
    with the true ``support`` and the design's parameters."""

    X: np.ndarray
    Y: np.ndarray | None
    truth: dict
    X_test: np.ndarray | None = None
    Y_test: np.ndarray | None = None


def default_c_vector(p: int, gamma: int) -> np.ndarray:
    """gamma leading zeros, then alternating +1/-1 on the active columns."""
    c = np.zeros(p)
    active = p - gamma
    c[gamma:] = [1.0 if i % 2 == 0 else -1.0 for i in range(active)]
    return c


def two_component_c_matrix() -> np.ndarray:
    """The two fixed coefficient columns of the H = 2 design (p = 30)."""
    C = np.zeros((30, 2))
    C[:10, 0] = [1, -1, 1, -1, 1, -1, 1, -1, 1, -1]
    C[10:20, 1] = [1, -1.5, 1, -1.5, 1, -1.5, 1, -1.5, 1, -1.5]
    return C


def gen_multiresponse(cfg: SimConfig) -> SimInstance:
    """Latent model with uniform U(-1,3) latent scores, U(0.5,10) response
    coefficients and N(0, sigma^2) noise on both blocks."""
    p = 30 if cfg.scenario == "two-component" else cfg.p
    rng = np.random.default_rng(cfg.seed)
    ntot = cfg.n + cfg.holdout

    if cfg.scenario == "two-component":
        C = two_component_c_matrix()
    else:
        C = default_c_vector(p, cfg.gamma)[:, None]
    H = C.shape[1]

    T = rng.uniform(-1.0, 3.0, size=(ntot, H))
    W = rng.uniform(0.5, 10.0, size=(H, cfg.q))
    X = T @ C.T + cfg.sigma * rng.standard_normal((ntot, p))
    Y = T @ W + cfg.sigma * rng.standard_normal((ntot, cfg.q))

    active = np.flatnonzero(np.any(C != 0.0, axis=1))
    truth = {
        "scenario": cfg.scenario,
        "p": p,
        "C": C.tolist(),
        "BDt": W.tolist(),
        "sigma": cfg.sigma,
        "support": [int(j) for j in active],
        "component_supports": [np.flatnonzero(c).tolist() for c in C.T],
    }
    return SimInstance(
        X=X[: cfg.n], Y=Y[: cfg.n], truth=truth,
        X_test=X[cfg.n :] if cfg.holdout else None,
        Y_test=Y[cfg.n :] if cfg.holdout else None,
    )


def gen_univariate(cfg: SimConfig) -> SimInstance:
    """Three hidden-variable blocks of columns; only the first two blocks
    (p - gamma columns) drive the response."""
    p, gamma = cfg.p, cfg.gamma
    active = p - gamma
    if active <= 0 or active % 2 != 0:
        raise DimensionError(
            f"p - gamma = {active} must be positive and even for the block design"
        )
    bounds = (0, active // 2, active, p)
    rng = np.random.default_rng(cfg.seed)
    ntot = cfg.n + cfg.holdout

    hidden = 5.0 * rng.standard_normal((ntot, 3))
    X = np.empty((ntot, p))
    for j in range(3):
        lo, hi = bounds[j], bounds[j + 1]
        X[:, lo:hi] = hidden[:, [j]] + rng.standard_normal((ntot, hi - lo))
    signal = 3.0 * hidden[:, 0] - 4.0 * hidden[:, 1]
    sigma_f = float(np.sqrt(signal.var() / cfg.snr)) if np.isfinite(cfg.snr) else 0.0
    y = signal + sigma_f * rng.standard_normal(ntot)

    truth = {
        "scenario": "univariate",
        "p": p,
        "support": list(range(active)),
        "snr": cfg.snr,
        "sigma_f": sigma_f,
        "blocks": list(bounds),
    }
    return SimInstance(
        X=X[: cfg.n], Y=y[: cfg.n, None], truth=truth,
        X_test=X[cfg.n :] if cfg.holdout else None,
        Y_test=y[cfg.n :, None] if cfg.holdout else None,
    )


def pca_cov_basis() -> tuple[np.ndarray, np.ndarray]:
    """The two sparse unit leading eigenvectors of the pca-cov design."""
    u1 = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0.9, 0.9], dtype=float)
    u2 = np.array([0, 0, 0, 0, 1, 1, 1, 1, -0.3, 0.3], dtype=float)
    return u1 / np.linalg.norm(u1), u2 / np.linalg.norm(u2)


def pca_cov_matrix() -> np.ndarray:
    """Covariance with the two sparse leading eigenvectors, eigenvalues
    200, 100, 50, 50, 6, 5, 4, 3, 2, 1, and a deterministic orthonormal
    completion for the rest."""
    u1, u2 = pca_cov_basis()
    basis = [u1, u2]
    for i in range(10):
        e = np.zeros(10)
        e[i] = 1.0
        w = e - sum(b * float(b @ e) for b in basis)
        norm = float(np.linalg.norm(w))
        if norm > 1e-8:
            basis.append(w / norm)
        if len(basis) == 10:
            break
    Q = np.column_stack(basis)
    return Q @ np.diag(PCA_COV_EIGENVALUES) @ Q.T


def gen_pca_cov(cfg: SimConfig) -> SimInstance:
    if cfg.p != 10:
        raise DimensionError("the pca-cov design is defined for p = 10")
    rng = np.random.default_rng(cfg.seed)
    ntot = cfg.n + cfg.holdout
    Sigma = pca_cov_matrix()
    vals, vecs = np.linalg.eigh(Sigma)
    root = vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    X = rng.standard_normal((ntot, 10)) @ root

    s1, s2 = [0, 1, 2, 3, 8, 9], [4, 5, 6, 7, 8, 9]
    u1, u2 = pca_cov_basis()
    truth = {
        "scenario": "pca-cov",
        "p": 10,
        "support": sorted(set(s1) | set(s2)),
        "component_supports": [s1, s2],
        "u1": u1.tolist(),
        "u2": u2.tolist(),
        "eigenvalues": list(PCA_COV_EIGENVALUES),
    }
    return SimInstance(
        X=X[: cfg.n], Y=None, truth=truth,
        X_test=X[cfg.n :] if cfg.holdout else None,
    )


def generate(cfg: SimConfig) -> SimInstance:
    if cfg.scenario in ("multiresponse", "two-component"):
        return gen_multiresponse(cfg)
    if cfg.scenario == "univariate":
        return gen_univariate(cfg)
    return gen_pca_cov(cfg)


@dataclass
class MetricsReport:
    msep: float | None
    sensitivity: float | None
    specificity: float | None
    f1: float | None


def metrics(
    s_hat: Subset,
    s_true: Subset,
    Y_hat: np.ndarray | None = None,
    Y_test: np.ndarray | None = None,
) -> MetricsReport:
    """Support-recovery rates of s_hat against s_true, and the mean squared
    prediction error when a prediction/observation pair is supplied.

    Sensitivity is undefined (None) for an empty true support; specificity
    likewise for a full one. An empty prediction/observation pair raises
    DimensionError; an msep that is not finite, as when the squared errors
    overflow, raises NonFiniteInputError.
    """
    a = np.asarray(s_hat.bits, dtype=bool)
    b = np.asarray(s_true.bits, dtype=bool)
    if a.shape != b.shape:
        raise DimensionError("subsets have different lengths")
    tp = int(np.sum(a & b))
    fp = int(np.sum(a & ~b))
    fn = int(np.sum(~a & b))
    tn = int(np.sum(~a & ~b))
    sens = tp / (tp + fn) if (tp + fn) > 0 else None
    spe = tn / (tn + fp) if (tn + fp) > 0 else None
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else None
    msep = None
    if Y_hat is not None or Y_test is not None:
        if Y_hat is None or Y_test is None:
            raise DimensionError("msep needs both predictions and observations")
        Y_hat = np.asarray(Y_hat, dtype=float)
        Y_test = np.asarray(Y_test, dtype=float)
        if Y_hat.shape != Y_test.shape:
            raise DimensionError(
                f"prediction shape {Y_hat.shape} != observation shape {Y_test.shape}"
            )
        if Y_hat.size == 0:
            raise DimensionError(f"msep needs at least one prediction, got shape {Y_hat.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            msep = float(np.mean((Y_hat - Y_test) ** 2))
        if not np.isfinite(msep):
            raise NonFiniteInputError("msep: the mean squared prediction error is not finite")
    return MetricsReport(msep=msep, sensitivity=sens, specificity=spe, f1=f1)
