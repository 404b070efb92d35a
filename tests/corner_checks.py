"""Numerical certification of the corner-optimality and penalty-
realizability properties that make the relaxed univariate-response problem
equivalent to the discrete one. Acceptance criterion 3 and
test_oracle.TestCornerOptimalityChecks run it; no command does.

The checks enumerate every corner (2^p of them), so they stay at p <= 15.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from subsetpath.errors import SizeGuardError

CHECK_P_LIMIT = 15


@dataclass
class CornerCheckReport:
    """Failure counts for the four certification checks on one instance.

    interior_dominance: per size k, the exhaustive optimum must not exceed
    the objective at sampled interior points of the slice sum(t) = k.
    monotonicity: the per-size optimal values must be non-increasing.
    increments: their successive drops must be non-increasing.
    breakpoints: at each dual breakpoint penalty, the size-k optimum must
    minimize the penalized objective over all corners.
    """

    p: int
    samples: int
    interior_dominance_failures: int = 0
    monotonicity_failures: int = 0
    increment_failures: int = 0
    breakpoint_failures: int = 0
    per_size_values: list[float] = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return (
            self.interior_dominance_failures
            + self.monotonicity_failures
            + self.increment_failures
            + self.breakpoint_failures
        )


def _slice_point(p: int, k: int, rng: np.random.Generator) -> np.ndarray:
    # Random interior point of {t in [0,1]^p : sum t = k}; uniformity is
    # not required, only support in the slice.
    if k == 0:
        return np.zeros(p)
    if k == p:
        return np.ones(p)
    if 2 * k > p:
        return 1.0 - _slice_point(p, p - k, rng)
    while True:
        u = rng.uniform(0.0, 1.0, size=p)
        t = k * u / u.sum()
        if np.all(t <= 1.0):
            return t


def check_corner_optimality(
    X: np.ndarray,
    y: np.ndarray,
    samples: int = 200,
    seed: int = 0,
) -> CornerCheckReport:
    """Certify, for a univariate-response instance, that the relaxed
    objective's per-size optima behave as the discrete theory requires.

    Runs the four checks described on CornerCheckReport and counts
    violations beyond a small floating-point slack; a sound implementation
    reports zero failures.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if p > CHECK_P_LIMIT:
        raise SizeGuardError(f"corner checks refused for p={p} > {CHECK_P_LIMIT}")
    y = np.asarray(y, dtype=float).reshape(-1)
    z2 = ((X.T @ y) / n) ** 2
    rng = np.random.default_rng(seed)

    # Corner values of every mask; row m of bits holds the bits of m.
    bits = (np.arange(1 << p)[:, None] >> np.arange(p)) & 1
    values = -(bits @ z2)
    sizes = bits.sum(axis=1)
    best_val = np.full(p + 1, np.inf)
    np.minimum.at(best_val, sizes, values)

    report = CornerCheckReport(p=p, samples=samples)
    report.per_size_values = [float(v) for v in best_val]
    slack = 1e-10 * max(1.0, float(np.max(np.abs(best_val))))

    for k in range(1, p + 1):
        for _ in range(samples):
            t = _slice_point(p, k, rng)
            f_t = -float(np.sum(t * t * z2))
            if best_val[k] > f_t + slack:
                report.interior_dominance_failures += 1

    drops = best_val[:-1] - best_val[1:]
    report.monotonicity_failures = int(np.sum(drops < -slack))
    report.increment_failures = int(np.sum(drops[:-1] < drops[1:] - slack))

    for k in range(1, p + 1):
        lam_k = best_val[k - 1] - best_val[k]
        penalized = values + lam_k * sizes
        if best_val[k] + lam_k * k > float(np.min(penalized)) + slack:
            report.breakpoint_failures += 1

    return report
