"""Properties of the path where no exact reference exists (p = 40 is beyond
the exhaustive oracle): for pls2 and pca on a seeded multiresponse design,

- the best value does not increase with the subset size k;
- permuting the columns of X permutes every bucket's support;
- for pls2, scaling Y by a positive factor leaves every support unchanged
  (the objective scales by the factor squared, and so does lambda_max).
"""

import functools

import numpy as np
import pytest

from subsetpath.linalg import center_columns
from subsetpath.path import GridConfig, dynamic_grid
from subsetpath.simulate import SimConfig, generate

GRID = GridConfig(K=15)
CASES = [(model, seed) for model in ("pls2", "pca") for seed in (50, 51)]


def design(seed):
    inst = generate(SimConfig(scenario="multiresponse", n=100, p=40, q=5, gamma=30,
                              sigma=1.0, seed=seed))
    return center_columns(inst.X), inst.Y - inst.Y.mean(axis=0)


@functools.lru_cache(maxsize=None)
def path_of(model, seed):
    # Each reference path is shared by the properties that read it.
    X, Y = design(seed)
    return dynamic_grid(X, Y if model == "pls2" else None, model, GRID)


def supports(path):
    return {k: bucket.best.idx for k, bucket in path.buckets.items()}


@pytest.mark.parametrize("model, seed", CASES)
def test_best_value_does_not_increase_with_k(model, seed):
    values = [path_of(model, seed).buckets[k].best_value for k in range(1, GRID.K + 1)]
    assert all(b <= a for a, b in zip(values, values[1:])), values


@pytest.mark.parametrize("model, seed", CASES)
def test_column_permutation_permutes_the_supports(model, seed):
    X, Y = design(seed)
    perm = np.random.default_rng(seed).permutation(X.shape[1])
    got = dynamic_grid(X[:, perm], Y if model == "pls2" else None, model, GRID)
    want = supports(path_of(model, seed))
    assert {k: tuple(sorted(perm[list(s)].tolist())) for k, s in supports(got).items()} == want


@pytest.mark.parametrize("seed", [50, 51])
def test_pls2_supports_ignore_the_scale_of_y(seed):
    X, Y = design(seed)
    got = dynamic_grid(X, 3.0 * Y, "pls2", GRID)
    assert supports(got) == supports(path_of("pls2", seed))
