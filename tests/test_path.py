import bisect
import json

import numpy as np
import pytest

from subsetpath.linalg import center_columns
from subsetpath.objective import corner_objective, make_context
from subsetpath.path import (
    GridConfig,
    SolutionPath,
    Subset,
    dynamic_grid,
    extract_subsets,
    path_objective_curve,
    path_to_dict,
    select_best,
    terminal_subset,
)
from subsetpath.solver import SolverConfig, SolverRun, top_k_order
from subsetpath.simulate import SimConfig, gen_multiresponse


def run_from_points(points):
    # What the solver records for these visited points, with K = p.
    points = [np.asarray(t, dtype=float) for t in points]
    run = SolverRun(iterations=len(points) - 1, terminal_t=points[-1])
    for t in points:
        order = top_k_order(t, len(t))
        if order not in run.trace:
            run.trace.append(order)
    return run


def random_subsets(rng, p, count):
    return [Subset.from_indices(p, rng.choice(p, size=rng.integers(0, p + 1),
                                              replace=False))
            for _ in range(count)]


class TestSubset:
    def test_size_and_indices(self):
        s = Subset.from_bits((1, 0, 1, 0))
        assert s.size == 2
        assert s.indices.tolist() == [0, 2]
        assert s.bitstring() == "1010"

    def test_ordering_is_lexicographic_on_bits(self):
        assert Subset.from_bits((0, 1)) < Subset.from_bits((1, 0))

    def test_round_trip_bitstring(self):
        s = Subset.from_bitstring("0110")
        assert Subset.from_indices(4, s.indices).bits == s.bits

    def test_order_equality_and_hash_follow_bits(self):
        # Index tuples must reproduce the bits-tuple semantics exactly,
        # across subsets of mixed sizes and a few widths.
        rng = np.random.default_rng(20)
        for p in (1, 3, 7, 12):
            subsets = random_subsets(rng, p, 60)
            subsets += [Subset.from_bits(s.bits) for s in subsets[:10]]
            for a in subsets:
                for b in subsets:
                    assert (a < b) == (a.bits < b.bits)
                    assert (a <= b) == (a.bits <= b.bits)
                    assert (a == b) == (a.bits == b.bits)
                    if a == b:
                        assert hash(a) == hash(b)
            assert sorted(subsets) == sorted(subsets, key=lambda s: s.bits)
            assert len(set(subsets)) == len({s.bits for s in subsets})

    def test_mixed_widths_order_like_bits(self):
        a, b, c = (Subset.from_bits(x) for x in [(1, 0), (1, 0, 0), (0, 1, 1)])
        assert (a < b) == ((1, 0) < (1, 0, 0))
        assert (c < a) == ((0, 1, 1) < (1, 0))
        assert a != b

    def test_bits_views(self):
        s = Subset.from_indices(5, [3, 1, 3])
        assert s.idx == (1, 3)
        assert s.bits == (0, 1, 0, 1, 0)
        assert s.bitstring() == "01010"
        assert s == Subset.from_bits(s.bits) == Subset.from_bitstring("01010")
        with pytest.raises(IndexError):
            Subset.from_indices(3, [3])


class TestExtractSubsets:
    def test_direct_sort(self):
        run = run_from_points([[0.9, 0.1, 0.5]])
        out = extract_subsets(run, K=2)
        assert out[1] == [Subset.from_bits((1, 0, 0))]
        assert out[2] == [Subset.from_bits((1, 0, 1))]

    def test_tie_broken_by_lowest_index(self):
        run = run_from_points([[0.4, 0.4, 0.4]])
        out = extract_subsets(run, K=1)
        assert out[1] == [Subset.from_bits((1, 0, 0))]

    def test_single_point_full_t(self):
        run = run_from_points([[1.0, 1.0]])
        out = extract_subsets(run, K=2)
        assert out[1] == [Subset.from_bits((1, 0))]
        assert out[2] == [Subset.from_bits((1, 1))]

    def test_duplicates_collapsed(self):
        run = run_from_points([[0.9, 0.1], [0.9, 0.1], [0.8, 0.2]])
        out = extract_subsets(run, K=1)
        assert out[1] == [Subset.from_bits((1, 0))]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_full_rebuild_on_random_traces(self, seed):
        # Reference: every ordering rebuilds all of its K sorted prefixes.
        def rebuild(run, K):
            out, seen = {k: [] for k in range(1, K + 1)}, set()
            for order in run.trace:
                prefix = []
                for k in range(1, K + 1):
                    bisect.insort(prefix, order[k - 1])
                    if tuple(prefix) not in seen:
                        seen.add(tuple(prefix))
                        out[k].append(Subset(p, tuple(prefix)))
            return out

        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 30))
        K = int(rng.integers(1, p + 1))
        # A random walk of t, so consecutive orderings share long prefixes.
        t = rng.uniform(size=p)
        run = SolverRun(terminal_t=t)
        for _ in range(200):
            t = np.clip(t + 0.05 * rng.standard_normal(p), 0.0, 1.0)
            order = top_k_order(t, K)
            if order not in run.trace:
                run.trace.append(order)
        # Orderings revisited out of sequence exercise a short shared prefix.
        run.trace += [run.trace[i] for i in rng.permutation(len(run.trace))[:20]]
        assert extract_subsets(run, K) == rebuild(run, K)


class TestSelectBest:
    def test_picks_larger_z_squared(self):
        ctx = make_context(np.eye(2), np.array([1.0, 2.0]), "pls1")
        best, value = select_best([Subset.from_bits((1, 0)), Subset.from_bits((0, 1))], ctx)
        assert best.bits == (0, 1)
        assert value == pytest.approx(-1.0)

    def test_single_candidate(self):
        ctx = make_context(np.eye(2), np.array([1.0, 2.0]), "pls1")
        best, _ = select_best([Subset.from_bits((1, 0))], ctx)
        assert best.bits == (1, 0)

    def test_ties_break_lexicographically(self):
        ctx = make_context(np.eye(2), np.array([1.0, 1.0]), "pls1")
        best, _ = select_best([Subset.from_bits((1, 0)), Subset.from_bits((0, 1))], ctx)
        assert best.bits == (0, 1)

    def test_empty_candidates_rejected(self):
        ctx = make_context(np.eye(2), np.array([1.0, 2.0]), "pls1")
        with pytest.raises(ValueError):
            select_best([], ctx)

    @pytest.mark.parametrize("model,branch,k", [
        ("pls1", None, 3),
        ("pls2", "v", 2),   # k <= q: k x k block
        ("pls2", "v", 6),   # k > q: q x q block
        ("pls2", "u", 4),
        ("pca", None, 5),
    ])
    def test_batch_matches_per_candidate_corner_objective(self, model, branch, k):
        rng = np.random.default_rng(30 + k)
        p, q = 12, 3
        X = center_columns(rng.standard_normal((40, p)))
        Y = None if model == "pca" else center_columns(
            rng.standard_normal((40, 1 if model == "pls1" else q)))
        ctx = make_context(X, Y, model, pls2_branch=branch)
        cands = list({Subset.from_indices(p, rng.choice(p, size=k, replace=False))
                      for _ in range(300)})
        values = [corner_objective(ctx, s.bits) for s in cands]
        low = min(values)
        want = min(s for s, v in zip(cands, values) if v == low)
        best, value = select_best(cands, ctx)
        assert best == want
        assert value == pytest.approx(low, rel=1e-10)

    @pytest.mark.parametrize("model", ["pls2", "pca"])
    def test_batch_exact_tie_keeps_smallest_bits(self, model):
        # Columns 2, 3 copy columns 0, 1 and every product is an exact
        # integer, so {0,1}, {0,3} and {2,3} have identical blocks and tie
        # exactly; {0,4} is worse.
        a = np.array([2.0, -1.0, 1.0, 3.0])
        b = np.array([1.0, 1.0, -2.0, 1.0])
        c = np.array([0.0, 1.0, 0.0, 0.0])
        X = np.column_stack([a, b, a, b, c])
        Y = np.column_stack([a + b, a - b]) if model == "pls2" else None
        ctx = make_context(X, Y, model)
        cands = [Subset.from_indices(5, ix)
                 for ix in ([0, 1], [0, 4], [2, 3], [0, 3])]
        for order in (cands, cands[::-1]):
            best, value = select_best(order, ctx)
            assert best == Subset(5, (2, 3))
            assert best.bitstring() == "00110"
            assert value == pytest.approx(corner_objective(ctx, best.bits), rel=1e-10)

    def test_mixed_sizes_and_empty_subset(self):
        ctx = make_context(np.eye(3), np.array([1.0, 2.0, 0.5]), "pls1")
        cands = [Subset(3, ()), Subset(3, (2,)), Subset(3, (0, 1)), Subset(3, (1,))]
        best, value = select_best(cands, ctx)
        assert best == Subset(3, (0, 1))
        assert value == pytest.approx(-5.0 / 9.0)
        assert select_best([Subset(3, ())], ctx) == (Subset(3, ()), 0.0)


class TestTerminalSubset:
    def test_threshold(self):
        assert terminal_subset(np.array([0.99, 0.01]), 0.9).bits == (1, 0)

    def test_boundary_is_strict(self):
        assert terminal_subset(np.array([0.9, 0.9]), 0.9).bits == (0, 0)

    def test_full_vector(self):
        assert terminal_subset(np.ones(3), 0.5).bits == (1, 1, 1)


class TestDynamicGrid:
    def test_toy_pls1(self):
        path = dynamic_grid(np.eye(2), np.array([1.0, 2.0]), "pls1",
                            GridConfig(K=2, L=10))
        assert path.buckets[1].best.bits == (0, 1)
        assert path.buckets[2].best.bits == (1, 1)
        assert path.buckets[1].best_value == pytest.approx(-1.0)
        assert path.buckets[2].best_value == pytest.approx(-1.25)

    def test_lambda_max_terminal_subset_empty(self):
        rng = np.random.default_rng(0)
        X = center_columns(rng.standard_normal((30, 6)))
        Y = center_columns(rng.standard_normal((30, 3)))
        path = dynamic_grid(X, Y, "pls2", GridConfig(K=6, L=8))
        lam_top, size_top = path.lambda_grid[0]
        assert lam_top == max(lam for lam, _ in path.lambda_grid)
        assert size_top == 0

    def test_minimal_budget_runs_two_lambdas(self):
        # L = 2 exhausts the budget on lambda_max and one halving; Step 2
        # never runs.
        rng = np.random.default_rng(1)
        X = center_columns(rng.standard_normal((20, 4)))
        y = rng.standard_normal(20)
        path = dynamic_grid(X, y, "pls1", GridConfig(K=4, L=2))
        lams = [lam for lam, _ in path.lambda_grid]
        assert len(lams) == 2
        assert lams[1] == pytest.approx(lams[0] / 2.0)
        assert all(k in path.buckets for k in range(1, 5))

    def test_full_coverage_on_simulated_design(self):
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", seed=5))
        X = center_columns(inst.X)
        Y = center_columns(inst.Y)
        path = dynamic_grid(X, Y, "pls2", GridConfig(K=15, L=50))
        for k in range(1, 16):
            assert path.buckets[k].best is not None
            assert path.buckets[k].best.size == k

    def test_k_exceeding_p_rejected(self):
        with pytest.raises(ValueError):
            dynamic_grid(np.eye(3), np.arange(3.0), "pls1", GridConfig(K=4, L=5))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        X = center_columns(rng.standard_normal((25, 5)))
        Y = center_columns(rng.standard_normal((25, 3)))
        p1 = dynamic_grid(X, Y, "pls2", GridConfig(K=5, L=10))
        p2 = dynamic_grid(X, Y, "pls2", GridConfig(K=5, L=10))
        assert path_to_dict(p1) == path_to_dict(p2)

    def test_bucket_candidates_reproducible_from_traces(self):
        rng = np.random.default_rng(3)
        X = center_columns(rng.standard_normal((25, 5)))
        y = rng.standard_normal(25)
        path = dynamic_grid(X, y, "pls1", GridConfig(K=5, L=10))
        assert all(path.buckets[k].best in path.buckets[k].candidates
                   for k in path.buckets)
        assert all(path.buckets[k].best.size == k for k in path.buckets)


class TestCurveAndJson:
    @pytest.fixture()
    def path(self):
        rng = np.random.default_rng(11)
        X = center_columns(rng.standard_normal((40, 8)))
        y = rng.standard_normal(40)
        return dynamic_grid(X, y, "pls1", GridConfig(K=8, L=20))

    def test_curve_non_increasing(self, path):
        curve = path_objective_curve(path)
        values = [v for _, v in curve]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_full_model_value(self, path):
        ctx = make_context(np.zeros((2, 8)), np.zeros(2), "pls1")
        curve = dict(path_objective_curve(path))
        # k = p bucket must be the full subset.
        assert path.buckets[8].best.bits == (1,) * 8
        assert curve[8] == path.buckets[8].best_value

    def test_json_schema(self, path):
        doc = path_to_dict(path)
        assert set(doc) == {"model", "n", "p", "q", "K", "buckets", "lambda_grid"}
        assert [b["k"] for b in doc["buckets"]] == list(range(1, 9))
        for bucket in doc["buckets"]:
            assert set(bucket) == {"k", "bits", "objective"}
            assert len(bucket["bits"]) == 8
        for entry in doc["lambda_grid"]:
            assert set(entry) == {"lambda", "terminal_size"}
        json.dumps(doc)  # serializable
