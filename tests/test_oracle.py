import itertools
import math

import numpy as np
import pytest

from subsetpath import oracle
from subsetpath.errors import DimensionError, SizeGuardError
from subsetpath.linalg import center_columns
from subsetpath.oracle import exhaustive_path, oracle_to_dict
from subsetpath.path import GridConfig, Subset, dynamic_grid
from subsetpath.simulate import SimConfig, generate

from corner_checks import check_corner_optimality


class TestExhaustivePath:
    def test_toy_two_columns(self):
        result = exhaustive_path(np.eye(2), np.array([1.0, 2.0]), "pls1")
        s1, v1 = result.per_size[1]
        s2, v2 = result.per_size[2]
        assert s1.bits == (0, 1) and v1 == pytest.approx(-1.0)
        assert s2.bits == (1, 1) and v2 == pytest.approx(-1.25)
        assert result.enumerated_count == result.scored_count == 2

    def test_pls1_full_set_at_k_equals_p(self):
        rng = np.random.default_rng(1)
        X = center_columns(rng.standard_normal((20, 6)))
        y = rng.standard_normal(20)
        result = exhaustive_path(X, y, "pls1")
        assert result.per_size[6][0].bits == (1,) * 6

    def test_pls1_matches_k_largest_z_squared(self):
        rng = np.random.default_rng(2)
        X = center_columns(rng.standard_normal((30, 9)))
        y = rng.standard_normal(30)
        z2 = ((X.T @ y) / 30) ** 2
        order = np.argsort(-z2)
        result = exhaustive_path(X, y, "pls1")
        for k in range(1, 10):
            want = Subset.from_indices(9, order[:k]).bits
            assert result.per_size[k][0].bits == want
            assert result.per_size[k][1] == pytest.approx(-np.sum(z2[order[:k]]))

    @pytest.mark.parametrize("model", ["pls2", "pca"])
    def test_small_p_against_direct_enumeration(self, model):
        rng = np.random.default_rng(3)
        n, p = 25, 5
        X = center_columns(rng.standard_normal((n, p)))
        Y = center_columns(rng.standard_normal((n, 3)))
        result = exhaustive_path(X, Y if model == "pls2" else None, model)
        for k in range(1, p + 1):
            best = np.inf
            for idx in itertools.combinations(range(p), k):
                Xs = X[:, list(idx)]
                if model == "pls2":
                    Ms = Xs.T @ Y / n
                    val = -float(np.linalg.eigvalsh(Ms.T @ Ms)[-1])
                else:
                    val = -float(np.linalg.eigvalsh(Xs.T @ Xs / n)[-1])
                best = min(best, val)
            assert result.per_size[k][1] == pytest.approx(best, rel=1e-12)

    def test_values_non_increasing(self):
        rng = np.random.default_rng(4)
        X = center_columns(rng.standard_normal((30, 7)))
        Y = center_columns(rng.standard_normal((30, 4)))
        result = exhaustive_path(X, Y, "pls2")
        vals = [result.per_size[k][1] for k in range(1, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        X = center_columns(rng.standard_normal((20, 6)))
        y = rng.standard_normal(20)
        perm = rng.permutation(6)
        base = exhaustive_path(X, y, "pls1")
        permuted = exhaustive_path(X[:, perm], y, "pls1")
        for k in range(1, 7):
            bits = np.zeros(6, dtype=int)
            bits[np.flatnonzero(np.array(base.per_size[k][0].bits))] = 1
            assert tuple(bits[perm]) == permuted.per_size[k][0].bits
            assert base.per_size[k][1] == pytest.approx(permuted.per_size[k][1])

    def test_heuristic_never_beats_oracle(self):
        rng = np.random.default_rng(6)
        X = center_columns(rng.standard_normal((40, 8)))
        Y = center_columns(rng.standard_normal((40, 3)))
        oracle = exhaustive_path(X, Y, "pls2")
        path = dynamic_grid(X, Y, "pls2", GridConfig(K=8, L=20))
        for k in range(1, 9):
            assert path.buckets[k].best_value >= oracle.per_size[k][1] - 1e-9

    @pytest.mark.parametrize("model", ["pls2", "pca"])
    def test_size_guard(self, model):
        X = np.zeros((2, 26))
        with pytest.raises(SizeGuardError):
            exhaustive_path(X, None if model == "pca" else np.zeros((2, 2)), model)

    def test_pls1_closed_form_above_the_size_guard(self):
        # Columns j and j + 13 are equal, so z^2 ties in pairs: the brute
        # force ranks by exact sums and breaks ties to the smallest bits,
        # the sort sends them to the higher index.
        rng = np.random.default_rng(26)
        half = center_columns(rng.standard_normal((30, 13)))
        X, y = np.hstack([half, half]), rng.standard_normal(30)
        p = X.shape[1]
        z2 = ((X.T @ y) / 30) ** 2
        result = exhaustive_path(X, y, "pls1")
        assert sorted(result.per_size) == list(range(1, p + 1))
        for k in range(1, 4):
            want = min((-math.fsum(z2[list(idx)]), Subset(p, idx))
                       for idx in itertools.combinations(range(p), k))[1]
            assert result.per_size[k][0] == want
        order = sorted(range(p), key=lambda j: (-z2[j], -j))
        for k in range(1, p + 1):
            want = Subset.from_indices(p, order[:k])
            assert result.per_size[k] == (want, -float(np.sum(z2[want.indices])))

    @pytest.mark.parametrize("model", ["pls1", "pls2"])
    def test_response_required(self, model):
        with pytest.raises(DimensionError, match=f"{model} requires a response"):
            exhaustive_path(np.eye(3), None, model)

    def test_response_without_columns_rejected(self):
        # The check make_context makes; the oracle used to fail on an index.
        with pytest.raises(DimensionError, match="no columns"):
            exhaustive_path(np.eye(3), np.zeros((3, 0)), "pls2")

    @pytest.mark.parametrize("model", ["pls1", "pca"])
    def test_one_dimensional_x_rejected(self, model):
        # The check make_context makes, before X.shape is read.
        y = None if model == "pca" else np.arange(3.0)
        with pytest.raises(DimensionError, match="X must be 2-D, got ndim=1"):
            exhaustive_path(np.arange(3.0), y, model)

    @pytest.mark.parametrize("max_k", [2.5, 0, 4])
    def test_max_k_outside_the_integers_1_to_p_rejected(self, max_k):
        # 2.5 used to fail with an untyped TypeError in the enumeration.
        with pytest.raises(DimensionError, match=f"max_k={max_k} is not an integer in 1..3"):
            exhaustive_path(np.eye(3), None, "pca", max_k=max_k)

    def test_numpy_integer_max_k_taken(self):
        X = np.random.default_rng(4).standard_normal((8, 5))
        got = exhaustive_path(X, None, "pca", max_k=np.int64(3))
        assert got.per_size == exhaustive_path(X, None, "pca", max_k=3).per_size

    @pytest.mark.parametrize("max_k", [3, 12])
    def test_enumerated_count_is_every_combination_visited(self, max_k):
        rng = np.random.default_rng(4)
        X = center_columns(rng.standard_normal((30, 12)))
        result = exhaustive_path(X, None, "pca", max_k=max_k)
        want = sum(math.comb(12, k) for k in range(1, max_k + 1))
        assert result.enumerated_count == want

    def test_json_carries_oracle_flag(self):
        result = exhaustive_path(np.eye(2), np.array([1.0, 2.0]), "pls1")
        doc = oracle_to_dict(result)
        assert doc["oracle"] is True
        assert doc["buckets"][0] == {"k": 1, "bits": "01", "objective": -1.0}


def brute_force_pls1(X, y):
    # Every combination of each size scored by its own sum, ties to the
    # smallest bits: k -> (bits, value).
    n, p = X.shape
    z2 = ((X.T @ y) / n) ** 2
    per_size = {}
    for k in range(1, p + 1):
        per_size[k] = min(
            (-float(np.sum(z2[list(idx)])), Subset(p, idx).bits)
            for idx in itertools.combinations(range(p), k)
        )[::-1]
    return per_size


def pls1_design(name, p):
    rng = np.random.default_rng(p)
    if name == "gaussian":
        return center_columns(rng.standard_normal((30, p))), rng.standard_normal(30)
    # n = 8 and integer entries make every z_j an exact multiple of 1/8, so
    # sums of z_j^2 are exact; repeated columns tie at every size boundary.
    Xi = rng.integers(-2, 3, size=(8, (p + 1) // 2)).astype(float)
    X = np.hstack([Xi, Xi])[:, :p]
    return X, rng.integers(-3, 4, size=8).astype(float)


class TestPls1ClosedForm:
    """The pls1 oracle ranks the z_j^2 instead of enumerating subsets."""

    @pytest.mark.parametrize("name", ["gaussian", "integer-ties"])
    @pytest.mark.parametrize("p", [1, 2, 5, 8, 10])
    def test_equals_brute_force(self, name, p):
        X, y = pls1_design(name, p)
        result = exhaustive_path(X, y, "pls1")
        want = brute_force_pls1(X, y)
        for k in range(1, p + 1):
            best, value = result.per_size[k]
            assert best.bits == want[k][0]
            assert value == pytest.approx(want[k][1], rel=1e-12, abs=0.0)
        if name == "integer-ties":
            assert {k: (s.bits, v) for k, (s, v) in result.per_size.items()} == want

    def test_ties_go_to_the_higher_index(self):
        # z^2 = (1, 1, 1, 0.25): every 1- and 2-subset of the first three
        # columns ties; the smallest bits hold the highest indices.
        X = np.diag([1.0, 1.0, 1.0, 0.5]) * 4.0
        result = exhaustive_path(X, np.ones(4), "pls1")
        got = {k: s.bitstring() for k, (s, _) in result.per_size.items()}
        assert got == {1: "0010", 2: "0110", 3: "1110", 4: "1111"}

    def test_counts_one_subset_per_size(self):
        rng = np.random.default_rng(9)
        X = center_columns(rng.standard_normal((20, 6)))
        y = rng.standard_normal(20)
        for max_k, want in ((None, 6), (4, 4)):
            result = exhaustive_path(X, y, "pls1", max_k=max_k)
            assert result.scored_count == result.enumerated_count == want


def unpruned_oracle(X, Y, model, max_k):
    # Every combination of each size eigen-solved in one stack, with the
    # oracle's blocks (q x q from M when q < k, else k x k from G) and its
    # tie rule: k -> (bits, value).
    n, p = X.shape
    if model == "pls2":
        M = X.T @ Y / n
        G, q = M @ M.T, M.shape[1]
    else:
        G, q = X.T @ X / n, None
    per_size = {}
    for k in range(1, max_k + 1):
        rows = np.array(list(itertools.combinations(range(p), k)), dtype=np.intp)
        if q is not None and q < k:
            blocks = np.swapaxes(M[rows], 1, 2) @ M[rows]
        else:
            blocks = G[rows[:, :, None], rows[:, None, :]]
        values = -np.linalg.eigvalsh(blocks)[:, -1]
        low = values.min()
        best = min(Subset(p, tuple(rows[i].tolist())) for i in np.flatnonzero(values == low))
        per_size[k] = (best.bits, float(low))
    return per_size


def pruning_design(name):
    rng = np.random.default_rng(8)
    n, p = 40, 10
    if name == "integer-ties":
        # Duplicated integer columns: exactly tied combinations at every size.
        Xi = rng.integers(-2, 3, size=(n, 6)).astype(float)
        X = np.hstack([Xi, Xi[:, :4]])
        return X, X[:, :2] @ np.array([[1.0, 2.0], [1.0, -1.0]]) + Xi[:, 4:6]
    X = center_columns(rng.standard_normal((n, p)))
    if name == "noise":
        return X, center_columns(rng.standard_normal((n, 3)))
    if name == "zero":
        return X, np.zeros((n, 3))
    X[:, :4] += 2.0 * rng.standard_normal((n, 1))  # spiked
    X = center_columns(X)
    return X, X[:, :4] @ rng.uniform(0.5, 2.0, size=(4, 3)) + rng.standard_normal((n, 3))


def tied_design(p, q):
    # Integer columns each repeated once; the response mixes the first q.
    rng = np.random.default_rng(p)
    Xi = rng.integers(-2, 3, size=(40, p // 2)).astype(float)
    X = np.hstack([Xi, Xi])
    return X, Xi[:, :q] @ rng.integers(-2, 3, size=(q, q)).astype(float)


class TestBoundPruning:
    """The Frobenius bound skips eigen-solves, never changes an optimum."""

    @pytest.mark.parametrize("model", ["pls2", "pca"])
    @pytest.mark.parametrize("name", ["spiked", "noise", "integer-ties", "zero"])
    @pytest.mark.parametrize("max_k", [None, 6])
    def test_equals_unpruned_enumeration(self, model, name, max_k):
        X, Y = pruning_design(name)
        if model == "pca":
            if name == "zero":
                X = np.zeros_like(X)
            Y = None
        result = exhaustive_path(X, Y, model, max_k=max_k)
        want = unpruned_oracle(X, Y, model, max_k or X.shape[1])
        got = {k: (s.bits, v) for k, (s, v) in result.per_size.items()}
        assert got == want  # k > q = 3 uses the q x q blocks for pls2
        assert result.scored_count <= result.enumerated_count
        if name in ("spiked", "integer-ties"):
            assert result.scored_count < result.enumerated_count / 2
        if name == "zero":
            assert result.scored_count == result.enumerated_count

    @pytest.mark.parametrize("model", ["pls2", "pca"])
    def test_all_combinations_tied(self, model):
        # Equal columns: every size-k block is the same matrix, so all
        # combinations tie and the last one enumerated, with the smallest
        # bits, must win although the incumbent already reaches its value.
        col = np.array([[1.0], [-2.0], [0.0], [3.0], [-2.0]])
        X = np.tile(col, (1, 8))
        Y = np.hstack([col, 2.0 * col]) if model == "pls2" else None
        result = exhaustive_path(X, Y, model)
        want = unpruned_oracle(X, Y, model, 8)
        for k, (best, value) in result.per_size.items():
            assert best.bits == (0,) * (8 - k) + (1,) * k
            assert (best.bits, value) == want[k]

    @pytest.mark.parametrize("model", ["pls2", "pca"])
    def test_tied_p12_equals_direct_enumeration(self, model):
        # Duplicated integer columns tie at every size; q = 5 puts pls2's
        # blocks on both sides of k = q.
        X, Y = tied_design(12, 5)
        result = self.equal_to_enumeration(X, Y if model == "pls2" else None, model)
        assert result.scored_count < result.enumerated_count

    @pytest.mark.parametrize("model", ["pls2", "pca"])
    @pytest.mark.parametrize("name", ["spiked", "integer-ties"])
    def test_many_chunks_equal_direct_enumeration(self, monkeypatch, model, name):
        # Four low bits split p = 10 into 64 chunks of shared high bits, so
        # every size but 1 and 10 draws on chunks with their cross terms.
        monkeypatch.setattr(oracle, "_LOW_BITS", 4)
        X, Y = pruning_design(name)
        result = self.equal_to_enumeration(X, Y if model == "pls2" else None, model)
        assert result.scored_count < result.enumerated_count

    @pytest.mark.parametrize("model", ["pls2", "pca"])
    @pytest.mark.parametrize("g_scale", [1e-158, 1e-302, 1e-310])
    def test_underflowing_squares_prune_nothing(self, model, g_scale):
        # Equal columns scaled so that every entry of G is g_scale: its
        # squares are subnormal or underflow to zero (G itself is subnormal
        # at 1e-310). No norm bounds anything there, so every subset is
        # solved and the tied subset with the smallest bits wins.
        col = np.array([[1.0], [-2.0], [0.0], [3.0], [-2.0]])  # |col|^2 / 5 = 3.6
        X = np.tile(col, (1, 8))
        if model == "pls2":
            s = (g_scale / (5 * 3.6 ** 2)) ** 0.25
            X, Y = X * s, np.hstack([col, 2.0 * col]) * s
        else:
            X, Y = X * np.sqrt(g_scale / 3.6), None
        result = self.equal_to_enumeration(X, Y, model)
        assert result.scored_count == result.enumerated_count

    @staticmethod
    def equal_to_enumeration(X, Y, model):
        p = X.shape[1]
        result = exhaustive_path(X, Y, model)
        want = unpruned_oracle(X, Y, model, p)
        sizes = range(1, p + 1)
        assert np.array_equal([result.per_size[k][0].bits for k in sizes],
                              [want[k][0] for k in sizes])
        assert np.array_equal([result.per_size[k][1] for k in sizes],
                              [want[k][1] for k in sizes])
        assert result.enumerated_count == (1 << p) - 1
        return result

    def test_prunes_most_of_the_cert_fit_design(self):
        inst = generate(SimConfig(scenario="multiresponse", n=100, p=15, q=10,
                                  gamma=5, sigma=3.0, seed=50))
        X, Y = center_columns(inst.X), center_columns(inst.Y)
        result = exhaustive_path(X, Y, "pls2")
        assert result.enumerated_count == (1 << 15) - 1
        assert result.scored_count < result.enumerated_count / 20


class TestCornerOptimalityChecks:
    def test_zero_failures_on_random_instances(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n, p = 30, 8
            X = center_columns(rng.standard_normal((n, p)))
            y = rng.standard_normal(n)
            report = check_corner_optimality(X, y, samples=100, seed=seed)
            assert report.total_failures == 0

    def test_monotone_value_sequence(self):
        rng = np.random.default_rng(42)
        X = center_columns(rng.standard_normal((25, 7)))
        y = rng.standard_normal(25)
        report = check_corner_optimality(X, y, samples=50, seed=0)
        vals = report.per_size_values
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_equal_increments_boundary_case(self):
        # z = (1, 1, 1): all per-size drops equal; the non-strict
        # inequalities must still pass.
        X = np.sqrt(3.0) * np.eye(3)
        y = np.sqrt(3.0) * np.ones(3)
        report = check_corner_optimality(X, y, samples=50, seed=1)
        assert report.increment_failures == 0
        assert report.monotonicity_failures == 0
        drops = np.diff(report.per_size_values)
        np.testing.assert_allclose(drops, drops[0])

    def test_breakpoint_example_by_hand(self):
        # z = (0.5, 1.0): any penalty in (0.25, 1.0) makes the size-1
        # optimum {2} the unique corner minimizer.
        X = np.eye(2)
        y = np.array([1.0, 2.0])
        report = check_corner_optimality(X, y, samples=20, seed=2)
        assert report.breakpoint_failures == 0
        z2 = np.array([0.25, 1.0])
        corners = list(itertools.product([0, 1], repeat=2))
        for lam in (0.3, 0.6, 0.99):
            values = {s: -np.sum(np.array(s) * z2) + lam * sum(s) for s in corners}
            assert min(values, key=values.get) == (0, 1)

    @pytest.mark.parametrize("name", ["gaussian", "integer-ties"])
    @pytest.mark.parametrize("p", [3, 8, 15])
    def test_per_size_values_match_brute_force(self, name, p):
        X, y = pls1_design(name, p)
        report = check_corner_optimality(X, y, samples=40, seed=p)
        assert report.total_failures == 0
        z2 = ((X.T @ y) / X.shape[0]) ** 2
        assert report.per_size_values[0] == 0.0
        for k in range(1, p + 1):
            want = min(-float(np.sum(z2[list(idx)]))
                       for idx in itertools.combinations(range(p), k))
            assert report.per_size_values[k] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_size_guard(self):
        X = np.zeros((2, 16))
        with pytest.raises(SizeGuardError):
            check_corner_optimality(X, np.zeros(2), samples=1)
