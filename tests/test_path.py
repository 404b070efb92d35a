import collections
import json

import numpy as np
import pytest

from subsetpath import path as path_module
from subsetpath import linalg, solver
from subsetpath.components import PickStrategy, fit
from subsetpath.errors import DimensionError, SolverAbort
from subsetpath.linalg import EIGH_CROSSOVER, center_columns
from subsetpath.objective import ObjectiveContext, lambda_max, make_context
from subsetpath.path import (
    GridConfig,
    LambdaDiagnostic,
    SolutionPath,
    Subset,
    best_row,
    dynamic_grid,
    path_to_dict,
    prefix_rows,
    score_buckets,
    terminal_subset,
)
from subsetpath.solver import minimize_batch, top_k_order, unique_rows
from subsetpath.simulate import SimConfig, gen_multiresponse, generate

from contexts import pca_context, pls2_context, solver_config


def orders_from_points(points):
    # The distinct top-p orderings the solver records for these points.
    return unique_rows(top_k_order(np.array(points, dtype=float), len(points[0])))


def rows(*indices):
    return np.array(indices, dtype=np.intp)


def random_subsets(rng, p, count):
    return [Subset.from_indices(p, rng.choice(p, size=rng.integers(0, p + 1),
                                              replace=False))
            for _ in range(count)]


def context(X, Y, model, branch):
    return make_context(X, Y, model) if branch is None else pls2_context(X, Y, branch)


def reference_value(ctx, idx):
    # Unpenalized corner objective of one subset straight from the stored
    # kernel, independent of the package's scorer: -sum z^2 for pls1, else
    # the top eigenvalue of the k x k block of G, or of the smaller Gram
    # block of M's rows.
    idx = np.asarray(idx, dtype=np.intp)
    if ctx.model == "pls1":
        zs = ctx.z[idx]
        return -float(np.sum(zs * zs))
    if ctx.M is not None:
        Ms = ctx.M[idx]
        A = Ms @ Ms.T if len(idx) <= Ms.shape[1] else Ms.T @ Ms
    else:
        A = ctx.G[np.ix_(idx, idx)]
    return -float(np.linalg.eigvalsh(A)[-1])


def brute_force_bucket(ctx, orders, k):
    # Every distinct sorted k-prefix scored one by one with reference_value;
    # the lowest value wins, exact ties go to the smallest bits.
    p = ctx.p
    cands = {tuple(sorted(o[:k])) for o in orders.tolist()}
    scored = [(reference_value(ctx, idx), Subset(p, idx)) for idx in cands]
    low = min(v for v, _ in scored)
    return min(s for v, s in scored if v == low), low


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
    """Candidate extraction: the distinct sorted k-prefixes of the recorded
    orderings (prefix_rows)."""

    def test_direct_sort(self):
        O = orders_from_points([[0.9, 0.1, 0.5]])
        assert prefix_rows(O, 1).tolist() == [[0]]
        assert prefix_rows(O, 2).tolist() == [[0, 2]]

    def test_tie_broken_by_lowest_index(self):
        O = orders_from_points([[0.4, 0.4, 0.4]])
        assert prefix_rows(O, 1).tolist() == [[0]]

    def test_single_point_full_t(self):
        O = orders_from_points([[1.0, 1.0]])
        assert prefix_rows(O, 1).tolist() == [[0]]
        assert prefix_rows(O, 2).tolist() == [[0, 1]]

    def test_duplicates_collapsed(self):
        O = orders_from_points([[0.9, 0.1], [0.9, 0.1], [0.8, 0.2]])
        assert prefix_rows(O, 1).tolist() == [[0]]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_full_rebuild_on_random_traces(self, seed):
        # Reference: every ordering rebuilds all of its K sorted prefixes.
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 30))
        K = int(rng.integers(1, p + 1))
        # A random walk of t, so consecutive orderings share long prefixes,
        # plus orderings revisited out of sequence.
        t = rng.uniform(size=p)
        orders = []
        for _ in range(200):
            t = np.clip(t + 0.05 * rng.standard_normal(p), 0.0, 1.0)
            orders.append(top_k_order(t, K))
        orders += [orders[i] for i in rng.permutation(len(orders))[:20]]
        O = np.array(orders)
        for k in range(1, K + 1):
            want = list(dict.fromkeys(tuple(sorted(o[:k])) for o in O.tolist()))
            assert prefix_rows(O, k).tolist() == [list(w) for w in want]


class TestSelectBest:
    """Scoring one bucket's rows (best_row) and every bucket from the
    stacked orderings (score_buckets)."""

    def test_picks_larger_z_squared(self):
        ctx = make_context(np.eye(2), np.array([1.0, 2.0]), "pls1")
        best, value = best_row(ctx, rows([0], [1]))
        assert best.bits == (0, 1)
        assert value == pytest.approx(-1.0)

    def test_single_candidate(self):
        ctx = make_context(np.eye(2), np.array([1.0, 2.0]), "pls1")
        best, _ = best_row(ctx, rows([0]))
        assert best.bits == (1, 0)

    def test_ties_break_lexicographically(self):
        ctx = make_context(np.eye(2), np.array([1.0, 1.0]), "pls1")
        best, _ = best_row(ctx, rows([0], [1]))
        assert best.bits == (0, 1)

    def test_empty_candidates_rejected(self):
        ctx = make_context(np.eye(2), np.array([1.0, 2.0]), "pls1")
        with pytest.raises(ValueError):
            best_row(ctx, np.empty((0, 1), dtype=np.intp))

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
        ctx = context(X, Y, model, branch)
        cands = sorted({tuple(sorted(rng.choice(p, size=k, replace=False)))
                        for _ in range(300)})
        values = [reference_value(ctx, c) for c in cands]
        low = min(values)
        want = min(Subset(p, c) for c, v in zip(cands, values) if v == low)
        best, value = best_row(ctx, np.array(cands))
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
        cands = rows([0, 1], [0, 4], [2, 3], [0, 3])
        for order in (cands, cands[::-1]):
            best, value = best_row(ctx, order)
            assert best == Subset(5, (2, 3))
            assert best.bitstring() == "00110"
            assert value == pytest.approx(reference_value(ctx, best.idx), rel=1e-10)
        # The same tie through score_buckets, from orderings.
        bucket = score_buckets(ctx, rows([0, 1, 4], [2, 3, 0], [3, 0, 1]), 3)[2]
        assert bucket.best == Subset(5, (2, 3))

    @pytest.mark.parametrize("model,branch", [
        ("pls1", None), ("pls2", "v"), ("pls2", "u"), ("pca", None),
        # X = a c^T on the model's own kernel: every block is rank one, so
        # its top eigenvalue equals its trace, and columns of equal scale
        # give exact ties.
        ("pls2", "rank-one"), ("pca", "rank-one")])
    @pytest.mark.parametrize("seed", range(3))
    def test_score_buckets_matches_brute_force(self, model, branch, seed):
        rng = np.random.default_rng(40 + seed)
        p, q, K = 9, 3, 6
        X = center_columns(rng.standard_normal((30, p)))
        Y = None if model == "pca" else center_columns(
            rng.standard_normal((30, 1 if model == "pls1" else q)))
        if branch == "rank-one":
            a = rng.integers(-3, 4, 15).astype(float)
            X = np.outer(np.concatenate([a, -a]), rng.choice([0.5, 1, 1, 2, 3], p))
            branch = None
        ctx = context(X, Y, model, branch)
        orders = unique_rows(np.array([rng.permutation(p)[:K] for _ in range(60)]))
        buckets = score_buckets(ctx, orders, K)
        for k in range(1, K + 1):
            # The bound skips no row the unpruned scoring could pick.
            unpruned = best_row(ctx, prefix_rows(orders, k))
            assert (buckets[k].best, buckets[k].best_value) == unpruned
            want, low = brute_force_bucket(ctx, orders, k)
            assert buckets[k].best == want
            if model == "pls1":
                assert buckets[k].best_value == low
            else:
                assert buckets[k].best_value == pytest.approx(low, rel=1e-12)
            scored = {tuple(r) for r in buckets[k].candidates.tolist()}
            assert want.idx in scored and all(len(r) == k for r in scored)

    def test_pls1_exact_ties_on_integer_data(self):
        # z^2 = (4, 1, 1, 4, 2, 2): many prefixes tie exactly.
        z = np.array([2.0, 1.0, 1.0, 2.0, np.sqrt(2.0), np.sqrt(2.0)])
        ctx = ObjectiveContext("pls1", 1, 6, 1, z=z)
        orders = np.array([np.roll(np.arange(6), s) for s in range(6)]
                          + [np.arange(6)[::-1]])
        buckets = score_buckets(ctx, orders, 6)
        for k in range(1, 7):
            want, low = brute_force_bucket(ctx, orders, k)
            assert (buckets[k].best, buckets[k].best_value) == (want, low)

    def test_pls1_near_tie_whose_visit_order_sum_rounds_up(self):
        # z^2 = (1, e, e, f, f) with e below half an ulp of 1 but 2e above
        # it and f tiny. {0,1,2} visited as (1, 2, 0) sums to 1 + 2^-52,
        # while its exact score, summed in index order, and {0,3,4} both
        # come to 1.0: an exact tie that {0,3,4}, the smaller bits, wins.
        z = np.array([1.0, 0.9e-8, 0.9e-8, 1e-10, 1e-10])
        z2 = z * z
        ctx = ObjectiveContext("pls1", 1, 5, 1, z=z)
        orders = rows([1, 2, 0], [0, 3, 4])
        visit = np.cumsum(z2[orders], axis=1)[:, 2]
        assert visit[0] > visit[1] == 1.0  # the visit order ranks {0,1,2} first
        bucket = score_buckets(ctx, orders, 3)[3]
        best, value = bucket.best, bucket.best_value
        assert (best, value) == brute_force_bucket(ctx, orders, 3)
        assert best == Subset(5, (0, 3, 4)) and value == -1.0

    @pytest.mark.parametrize("model,Y", [
        ("pls1", [4.0, 3.0, 2.0, 1.0]),
        # Orthogonal rows of M: {0, 1} scores 16/16, below its trace 25/16
        # and above the trace 5/16 of either other prefix.
        ("pls2", [[4.0, 0.0], [0.0, 3.0], [2.0, 0.0], [1.0, 0.0]]),
    ], ids=["pls1", "pls2"])
    def test_trace_bound_skips_far_prefixes(self, model, Y):
        ctx = make_context(np.eye(4), np.array(Y), model)
        buckets = score_buckets(ctx, rows([0, 1], [3, 2], [2, 3]), 2)
        assert buckets[1].candidates.tolist() == [[0]]
        assert buckets[2].candidates.tolist() == [[0, 1]]


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
        with pytest.raises(DimensionError, match="K=4 exceeds p=3"):
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
        assert all(path.buckets[k].best.idx
                   in map(tuple, path.buckets[k].candidates.tolist())
                   for k in path.buckets)
        assert all(path.buckets[k].best.size == k for k in path.buckets)


    def test_pls1_closed_form_at_p_10000(self):
        # Beyond the oracle's reach the closed form still certifies pls1:
        # the best k-subset holds the k largest z_j^2.
        n, p, K = 100, 10_000, 20
        inst = generate(SimConfig(scenario="univariate", n=n, p=p, gamma=p - K, seed=50))
        X, y = center_columns(inst.X), center_columns(inst.Y)
        path = dynamic_grid(X, y, "pls1", GridConfig(K=K, L=50))
        z2 = ((X.T @ y[:, 0]) / n) ** 2
        order = np.argsort(-z2, kind="stable")
        for k in range(1, K + 1):
            assert set(path.buckets[k].best.idx) == set(order[:k].tolist())


def grid_case(model, branch=None, p=10, n=40, seed=21):
    rng = np.random.default_rng(seed)
    X = center_columns(rng.standard_normal((n, p)))
    if model == "pca":
        return X, None
    q = 1 if model == "pls1" else (3 if branch == "v" else p + 2)
    Y = center_columns(rng.standard_normal((n, q)))
    return X, Y[:, 0] if model == "pls1" else Y


def diagnostic(d):
    return (d.lam, d.terminal_size, d.iterations, d.converged, d.objective, d.failed)


def sequential_step1(X, Y, model, grid):
    # Step 1 of the grid with every halving solved alone (a batch of one):
    # the diagnostics the grid must record before any bisection.
    ctx0 = make_context(X, Y, model)
    lam_top = lambda_max(ctx0)

    def solve(lam):
        run = minimize_batch(ctx0, [lam], grid.K)[0]
        if isinstance(run, SolverAbort):
            return (lam, -1, run.iteration or 0, False, None, True)
        size = terminal_subset(run.terminal_t, grid.rho).size
        return (lam, size, run.iterations, run.converged, run.objective, False)

    runs = [solve(lam_top)]
    while len(runs) < grid.L and (len(runs) == 1 or runs[-1][1] < grid.K):
        runs.append(solve(lam_top / 2.0 ** len(runs)))
    return runs


def assert_same_path(got, want):
    assert got.lambda_grid == want.lambda_grid
    assert [diagnostic(d) for d in got.diagnostics] == [
        diagnostic(d) for d in want.diagnostics]
    assert got.buckets.keys() == want.buckets.keys()
    for k, bucket in got.buckets.items():
        assert bucket.best == want.buckets[k].best
        assert bucket.best_value == want.buckets[k].best_value
        np.testing.assert_array_equal(bucket.candidates, want.buckets[k].candidates)


def one_at_a_time(monkeypatch, *args, **kwargs):
    # The grid with step 1 solving one halving per call.
    with monkeypatch.context() as m:
        m.setattr(path_module, "_chunk", lambda ctx0: 1)
        return dynamic_grid(*args, **kwargs)


def on_demand(monkeypatch):
    # Grids on cheap rows plan their schedule from a predicted size and
    # solve it in one call; without the plan they solve it on demand, the
    # route the tests that pin its call shape drive.
    monkeypatch.setattr(path_module, "_plan_and_solve", path_module._solve_on_demand)


def spy_step1(monkeypatch, edit=None):
    # Records the penalties of every step-1 call to minimize_batch (the
    # calls that solve lambda_max and its halvings) and lets ``edit`` change
    # their runs; step 2's calls pass through.
    calls = []
    solve = path_module.minimize_batch

    def spy(ctx, lams, K):
        runs = solve(ctx, lams, K)
        lam_top = lambda_max(ctx)
        if set(lams) <= {lam_top / 2.0**ell for ell in range(64)}:
            calls.append(list(lams))
            if edit is not None:
                runs = edit(lams, runs, K)
        return runs

    monkeypatch.setattr(path_module, "minimize_batch", spy)
    return calls


SPECULATION_CASES = [
    # (model, branch, p, solver constants to substitute)
    ("pls1", None, 10, {}),
    ("pls2", "v", 10, {}),
    ("pls2", "u", 10, {}),
    ("pca", None, 10, {}),
    # warm power steps on the n x n (M) and the p x p (G) eigenproblem
    ("pca", None, 110, dict(MAX_ITER=40)),
    ("pca", None, EIGH_CROSSOVER + 6, dict(MAX_ITER=40)),
    # the squared step on near-tied p x p blocks, some finished densely
    ("pca", None, 15, {}),
]


class TestSpeculativeStep1:
    """Step 1 of a grid solved on demand solves _chunk(ctx0) halvings per
    batch and keeps only the runs that solving them one at a time would
    record."""

    @pytest.mark.parametrize("model,branch,p,cfg", SPECULATION_CASES)
    def test_recorded_runs_equal_sequential_reference(self, model, branch, p, cfg,
                                                      monkeypatch):
        solver_config(monkeypatch, **cfg)
        X, Y = grid_case(model, branch, p=p)
        grid = GridConfig(K=4, L=20)
        path = dynamic_grid(X, Y, model, grid)
        want = sequential_step1(X, Y, model, grid)
        assert [diagnostic(d) for d in path.diagnostics[:len(want)]] == want
        # The run that reaches K is not the last of its chunk (l = 0, 1, ...).
        chunk = path_module._chunk(make_context(X, Y, model))
        assert want[-1][1] >= grid.K and len(want) % chunk
        assert_same_path(path, one_at_a_time(monkeypatch, X, Y, model, grid))

    def test_lambda_max_is_the_first_row_of_the_first_chunk(self, monkeypatch):
        # No lone solve of lambda_max: step 1's first batch starts with it.
        on_demand(monkeypatch)
        X, Y = grid_case("pls2", "v")
        calls = spy_step1(monkeypatch)
        path = dynamic_grid(X, Y, "pls2", GridConfig(K=4, L=20))
        lam_top = lambda_max(make_context(X, Y, "pls2"))
        assert calls[0][:2] == [lam_top, lam_top / 2.0]
        assert path.diagnostics[0].lam == lam_top
        assert path.diagnostics[0].terminal_size == 0

    def test_discarded_runs_reach_no_output(self, monkeypatch):
        # Every run after the first one of a chunk that reaches K is replaced
        # by an object that fails on any use; the path must not change.
        class Discarded:
            def __getattr__(self, name):
                raise AssertionError(f"a discarded run's {name} was read")

        discarded = []

        def poison(lams, runs, K):
            sizes = [-1 if isinstance(r, SolverAbort)
                     else terminal_subset(r.terminal_t, 0.9).size for r in runs]
            first = next((i for i, k in enumerate(sizes) if k >= K), len(runs))
            discarded.extend(lams[first + 1:])
            return runs[:first + 1] + [Discarded()] * len(runs[first + 1:])

        on_demand(monkeypatch)
        X, Y = grid_case("pls2", "v")
        grid = GridConfig(K=4, L=20)
        want = dynamic_grid(X, Y, "pls2", grid)
        spy_step1(monkeypatch, poison)
        got = dynamic_grid(X, Y, "pls2", grid)
        assert discarded
        assert_same_path(got, want)
        assert not set(discarded) & {lam for lam, _ in got.lambda_grid}
        assert not set(discarded) & {d.lam for d in got.diagnostics}

    @pytest.mark.parametrize("L, sizes", [(2, [2]), (4, [3, 1]), (6, [3, 3])])
    def test_budget_caps_the_chunks(self, L, sizes, monkeypatch):
        # With chunks of 3 from lambda_max on and K = p out of reach within
        # L runs, step 1 spends the whole budget; the last chunk holds what
        # is left of it.
        monkeypatch.setattr(path_module, "_chunk", lambda ctx0: 3)
        on_demand(monkeypatch)
        X, Y = grid_case("pls2", "v")
        grid = GridConfig(K=10, L=L)
        calls = spy_step1(monkeypatch)
        path = dynamic_grid(X, Y, "pls2", grid)
        assert [len(c) for c in calls] == sizes
        lam_top = path.lambda_grid[0][0]
        assert [lam for lam, _ in path.lambda_grid] == [
            lam_top / 2.0**ell for ell in range(L)]
        assert all(size < grid.K for _, size in path.lambda_grid)
        want = sequential_step1(X, Y, "pls2", grid)
        assert [diagnostic(d) for d in path.diagnostics] == want

    def test_row_aborting_mid_chunk(self, monkeypatch):
        # The second halving's objective turns NaN at its fifth iteration:
        # that run alone aborts, the chunk goes on, and the path is the one
        # the same fault gives with the halvings solved one at a time.
        X, Y = grid_case("pls2", "v")
        grid = GridConfig(K=6, L=20)
        target = lambda_max(make_context(X, Y, "pls2")) / 4.0
        evaluate = solver.eval_batch

        def poisoned_grid(run_grid):
            seen = collections.Counter()

            def poisoned(ctx, T, lam, **kwargs):
                ev = evaluate(ctx, T, lam, **kwargs)
                hit = lam == target
                if hit.any():
                    seen[target] += 1
                    if seen[target] == 6:  # the evaluation at iteration 5
                        ev.value[hit] = np.nan
                return ev

            with monkeypatch.context() as m:
                m.setattr(solver, "eval_batch", poisoned)
                return run_grid()

        got = poisoned_grid(lambda: dynamic_grid(X, Y, "pls2", grid))
        want = poisoned_grid(lambda: one_at_a_time(monkeypatch, X, Y, "pls2", grid))
        aborted = got.diagnostics[2]
        assert (aborted.lam, aborted.failed, aborted.iterations) == (target, True, 5)
        assert len(got.diagnostics) > 3 and not got.diagnostics[3].failed
        assert target not in {lam for lam, _ in got.lambda_grid}
        assert_same_path(got, want)

    def test_k_reached_by_the_first_row_of_a_chunk(self, monkeypatch):
        # Chunks of 3 hold l = 0..2 and 3..5; K is the terminal size first
        # reached at l = 3.
        monkeypatch.setattr(path_module, "_chunk", lambda ctx0: 3)
        on_demand(monkeypatch)
        X, Y = grid_case("pls2", "v")
        first = sequential_step1(X, Y, "pls2", GridConfig(K=10, L=4))
        K = first[3][1]
        assert K > first[2][1]
        calls = spy_step1(monkeypatch)
        path = dynamic_grid(X, Y, "pls2", GridConfig(K=K, L=20))
        assert [len(c) for c in calls] == [3, 3]
        assert [diagnostic(d) for d in path.diagnostics[:4]] == first
        assert calls[1][1] not in {d.lam for d in path.diagnostics}


def spy_step2(monkeypatch, edit=None):
    # Records the penalties of every step-2 call to minimize_batch (the
    # calls that solve no halving of lambda_max) and lets ``edit`` change
    # their runs; step 1's calls pass through.
    calls = []
    solve = path_module.minimize_batch

    def spy(ctx, lams, K):
        runs = solve(ctx, lams, K)
        lam_top = lambda_max(ctx)
        if not set(lams) <= {lam_top / 2.0**ell for ell in range(64)}:
            calls.append(list(lams))
            if edit is not None:
                runs = edit(lams, runs)
        return runs

    monkeypatch.setattr(path_module, "minimize_batch", spy)
    return calls


def without_speculation(monkeypatch, *args, **kwargs):
    # The grid with no run solved ahead in step 2.
    with monkeypatch.context() as m:
        m.setattr(path_module, "_cheap_rows", lambda ctx0: False)
        return dynamic_grid(*args, **kwargs)


BISECTION_CASES = [
    ("pls2", "v", 16, GridConfig(K=16, L=30)),
    ("pls2", "v", 10, GridConfig(K=10, L=25)),
    ("pca", None, 15, GridConfig(K=15, L=30)),   # near-tied: dense finishes
]


class TestSpeculativeBisection:
    """On cheap rows, a step-2 sweep of a grid solved on demand that calls
    the solver also solves the children of its new midpoints; the next
    sweep records the ones it needs and the rest are discarded."""

    @pytest.mark.parametrize("model,branch,p,grid", BISECTION_CASES)
    def test_path_equals_the_grid_without_speculation(self, model, branch, p, grid,
                                                      monkeypatch):
        on_demand(monkeypatch)
        X, Y = grid_case(model, branch, p=p)
        calls = spy_step2(monkeypatch)
        want = without_speculation(monkeypatch, X, Y, model, grid)
        sweeps = len(calls)
        got = dynamic_grid(X, Y, model, grid)
        assert_same_path(got, want)
        # Some sweeps found all their runs solved ahead and called nothing,
        # and some runs solved ahead were never recorded.
        assert len(calls) - sweeps < sweeps
        solved = {lam for call in calls[sweeps:] for lam in call}
        assert solved - {d.lam for d in got.diagnostics}

    def test_unrecorded_runs_reach_no_output(self, monkeypatch):
        # Every step-2 run that the grid does not record is replaced by an
        # object that fails on any use; the path must not change.
        class Discarded:
            def __getattr__(self, name):
                raise AssertionError(f"a discarded run's {name} was read")

        X, Y = grid_case("pls2", "v", p=16, seed=2)
        grid = GridConfig(K=16, L=30)
        want = dynamic_grid(X, Y, "pls2", grid)
        recorded = {d.lam for d in want.diagnostics}
        discarded = []

        def poison(lams, runs):
            discarded.extend(lam for lam in lams if lam not in recorded)
            return [run if lam in recorded else Discarded() for lam, run in zip(lams, runs)]

        spy_step2(monkeypatch, poison)
        got = dynamic_grid(X, Y, "pls2", grid)
        assert discarded
        assert_same_path(got, want)
        assert not set(discarded) & {lam for lam, _ in got.lambda_grid}

    @pytest.mark.parametrize("L", [16, 18, 20])
    def test_budget_counts_recorded_runs_only(self, L, monkeypatch):
        # Step 1 records 11 runs here; step 2 ends with the rest of the
        # budget spent on recorded runs, however many it solved ahead.
        X, Y = grid_case("pls2", "v", p=16, seed=2)
        grid = GridConfig(K=16, L=L)
        assert len(sequential_step1(X, Y, "pls2", grid)) == 11
        calls = spy_step2(monkeypatch)
        path = dynamic_grid(X, Y, "pls2", grid)
        assert len(path.diagnostics) == L
        assert sum(map(len, calls)) > L - 11

    @pytest.mark.parametrize("L", [18, 20])
    def test_sweep_spending_the_budget_solves_no_children(self, L, monkeypatch):
        # Here the last step-2 call is made by the sweep that spends the
        # rest of the budget: it solves only midpoints it records.
        on_demand(monkeypatch)
        X, Y = grid_case("pls2", "v", p=16, seed=2)
        calls = spy_step2(monkeypatch)
        path = dynamic_grid(X, Y, "pls2", GridConfig(K=16, L=L))
        assert len(calls) > 1
        assert set(calls[-1]) <= {d.lam for d in path.diagnostics[-len(calls[-1]):]}

    def test_wide_grid_never_speculates(self, monkeypatch):
        # On the p x p G kernel above 100 columns the grid solves on demand,
        # and each sweep solves exactly its midpoints, left to right, in one
        # call, and records them in that order.
        X, Y = grid_case("pls2", "u", p=120)
        assert not path_module._cheap_rows(make_context(X, Y, "pls2"))
        calls = spy_step2(monkeypatch)
        path = dynamic_grid(X, Y, "pls2", GridConfig(K=20, L=30))
        swept = [lam for call in calls for lam in call]
        assert any(len(call) > 1 for call in calls)
        assert all(call == sorted(call) for call in calls)
        assert [d.lam for d in path.diagnostics[-len(swept):]] == swept


def sequential_path(X, Y, model, grid):
    # The path with every penalty of the schedule solved alone (a batch of one),
    # in record order, the schedule written out here on its own: lambda_max
    # and its halvings until a terminal size reaches K, then left-to-right
    # sweeps that bisect every gap of more than one size, within L.
    ctx0 = make_context(X, Y, model)
    lam_top = lambda_max(ctx0)
    diagnostics, traces = [], []

    def solve(lam):
        run = minimize_batch(ctx0, [lam], grid.K)[0]
        if isinstance(run, SolverAbort):
            diagnostics.append(LambdaDiagnostic(lam, -1, run.iteration or 0, False, None,
                                                failed=True))
            return -1
        size = terminal_subset(run.terminal_t, grid.rho).size
        diagnostics.append(LambdaDiagnostic(lam, size, run.iterations, run.converged,
                                            run.objective))
        traces.append(run.trace)
        return size

    size = 0
    while len(diagnostics) < grid.L and size < grid.K:
        size = solve(lam_top / 2.0 ** len(diagnostics))
    while len(diagnostics) < grid.L:
        done = sorted((d.lam, d.terminal_size) for d in diagnostics if not d.failed)
        mids = [(lo + hi) / 2.0 for (lo, k_lo), (hi, k_hi) in zip(done, done[1:])
                if k_lo > k_hi + 1]
        if not mids:
            break
        for mid in mids[:grid.L - len(diagnostics)]:
            solve(mid)
    return SolutionPath(
        model, ctx0.n, ctx0.p, ctx0.q, grid.K,
        score_buckets(ctx0, unique_rows(np.concatenate(traces)), grid.K),
        sorted(((d.lam, d.terminal_size) for d in diagnostics if not d.failed),
               reverse=True),
        diagnostics,
    )


def spy_calls(monkeypatch):
    # Records the penalties of every call to minimize_batch.
    calls = []
    solve = path_module.minimize_batch

    def spy(ctx, lams, K):
        calls.append(list(lams))
        return solve(ctx, lams, K)

    monkeypatch.setattr(path_module, "minimize_batch", spy)
    return calls


def t_init_array(p, seed=4):
    return np.random.default_rng(seed).uniform(0.2, 0.8, p)


def tied_pls1_case():
    # z = y = (2, 1, 1, 1, 1): lambda_max = 8, and at the halvings 4 and 1
    # the start point t0 = 0.5 is stationary in some coordinates
    # (2 t0 z_j^2 = lambda exactly), which the run leaves out.
    return 5.0 * np.eye(5), np.array([2.0, 1.0, 1.0, 1.0, 1.0])


PLAN_CASES = [
    # (p, K, L, solver_config arguments)
    (10, 2, 20, {}),        # K reached at the first halvings
    (10, 10, 30, {}),       # K reached late
    (10, 10, 4, {}),        # K never reached within L
    (12, 12, 2, {}),
    (12, 12, 6, {}),
    (12, 12, 16, {}),
    (12, 12, 20, {}),
    (12, 12, 30, dict(MAX_ITER=13)),  # no run passes rho in time: mispredicted
    (12, 6, 20, dict(T_INIT=t_init_array(12))),
    (120, 20, 30, {}),
    (120, 20, 16, dict(MAX_ITER=13)),
    (120, 20, 30, dict(T_INIT=t_init_array(120))),
]


class TestPls1Plan:
    """A pls1 grid plans its schedule from the closed-form terminal sizes,
    solves it in one batch, and replays it on the real runs, solving what
    the plan missed; the path is the one each penalty solved alone gives."""

    @pytest.mark.parametrize("p,K,L,cfg", PLAN_CASES)
    def test_path_equals_the_sequential_reference(self, p, K, L, cfg, monkeypatch):
        solver_config(monkeypatch, **cfg)
        X, y = grid_case("pls1", p=p)
        grid = GridConfig(K=K, L=L)
        calls = spy_calls(monkeypatch)
        got = dynamic_grid(X, y, "pls1", grid)
        assert len(got.diagnostics) <= L
        if "MAX_ITER" in cfg:  # the cap ends runs short of rho: the plan mispredicts
            assert len(calls) > 1
        assert_same_path(got, sequential_path(X, y, "pls1", grid))

    @pytest.mark.parametrize("case", ["p10", "p120", "t_init", "tied"])
    def test_prediction_that_holds_makes_one_call(self, case, monkeypatch):
        if case == "tied":
            (X, y), grid = tied_pls1_case(), GridConfig(K=5, L=10)
        else:
            p = 10 if case == "p10" else 120
            X, y = grid_case("pls1", p=p)
            grid = GridConfig(K=p if p == 10 else 20, L=30)
            if case == "t_init":
                solver_config(monkeypatch, T_INIT=t_init_array(p))
        calls = spy_calls(monkeypatch)
        path = dynamic_grid(X, y, "pls1", grid)
        assert calls == [[d.lam for d in path.diagnostics]]
        if case == "tied":
            assert [d.terminal_size for d in path.diagnostics[:5]] == [0, 0, 1, 1, 5]
        assert_same_path(path, sequential_path(X, y, "pls1", grid))

    @pytest.mark.parametrize("fault", ["off_by_one", "max_iter"])
    def test_misprediction_solves_only_missing_penalties(self, fault, monkeypatch):
        X, y = grid_case("pls1", p=12)
        grid = GridConfig(K=12, L=20)
        if fault == "off_by_one":
            predict = path_module._first_step_size
            monkeypatch.setattr(
                path_module, "_first_step_size",
                lambda ctx0: lambda lam: predict(ctx0)(lam) + 1)
        else:
            solver_config(monkeypatch, MAX_ITER=12)  # no run passes rho in time
        calls = spy_calls(monkeypatch)
        got = dynamic_grid(X, y, "pls1", grid)
        assert_same_path(got, sequential_path(X, y, "pls1", grid))
        # Each call after the first solves only penalties no earlier call
        # solved, and a prediction proven wrong is not planned on again.
        solved = [lam for call in calls for lam in call]
        assert len(calls) > 1
        assert len(solved) == len(set(solved))
        assert len(solved) <= 2 * grid.L

    def test_row_aborting_mid_plan(self, monkeypatch):
        # The run at lambda_max / 4 turns NaN at its fifth iteration: it
        # alone aborts, the rest of its batch goes on, and the path is the
        # one the same fault gives with every penalty solved alone.
        X, y = grid_case("pls1", p=12)
        grid = GridConfig(K=12, L=30)
        target = lambda_max(make_context(X, y, "pls1")) / 4.0
        evaluate = solver.eval_batch

        def poisoned_grid(run_grid):
            seen = collections.Counter()

            def poisoned(ctx, T, lam, **kwargs):
                ev = evaluate(ctx, T, lam, **kwargs)
                hit = lam == target
                if hit.any():
                    seen[target] += 1
                    if seen[target] == 6:  # the evaluation at iteration 5
                        ev.value[hit] = np.nan
                return ev

            with monkeypatch.context() as m:
                m.setattr(solver, "eval_batch", poisoned)
                return run_grid()

        calls = spy_calls(monkeypatch)
        got = poisoned_grid(lambda: dynamic_grid(X, y, "pls1", grid))
        want = poisoned_grid(lambda: sequential_path(X, y, "pls1", grid))
        aborted = got.diagnostics[2]
        assert (aborted.lam, aborted.failed, aborted.iterations) == (target, True, 5)
        assert not any(d.failed for d in got.diagnostics[3:])
        assert target not in {lam for lam, _ in got.lambda_grid}
        assert target in calls[0] and len(calls[0]) > 3
        assert_same_path(got, want)


def cert_case(seed):
    # The criterion-2 design (n=100, p=15, q=10, gamma=5, sigma=3), centered
    # as the CLI centers it.
    inst = generate(SimConfig(scenario="multiresponse", seed=seed))
    return center_columns(inst.X), center_columns(inst.Y)


CERT_GRID = GridConfig(K=15, L=50)

PLS2_PLAN_CASES = [
    (*grid_case(model, branch, p=p), grid)
    for model, branch, p, grid in BISECTION_CASES if model == "pls2"
] + [
    (*grid_case("pls2", "u", p=10), GridConfig(K=10, L=25)),
    (*cert_case(50), CERT_GRID),
    (*cert_case(51), CERT_GRID),
    (*cert_case(52), CERT_GRID),
    (*grid_case("pls2", "v", p=120), GridConfig(K=20, L=30)),
]
PLS2_PLAN_IDS = ["bisection-v16", "bisection-v10", "u10", "cert50", "cert51", "cert52",
                 "v120"]


class TestPls2Plan:
    """A pls2 grid plans its schedule from the sizes _first_step_size
    predicts, solves it in one batch, and replays it on the real runs,
    solving what the plan missed; the path is the one each penalty solved
    alone gives."""

    @pytest.mark.parametrize("X,Y,grid", PLS2_PLAN_CASES, ids=PLS2_PLAN_IDS)
    def test_path_equals_the_sequential_reference(self, X, Y, grid):
        got = dynamic_grid(X, Y, "pls2", grid)
        assert_same_path(got, sequential_path(X, Y, "pls2", grid))

    def test_start_point_enters_the_prediction(self, monkeypatch):
        # A start vector moves the predicted sizes and the runs alike.
        X, Y = cert_case(50)
        solver_config(monkeypatch, T_INIT=t_init_array(15))
        got = dynamic_grid(X, Y, "pls2", CERT_GRID)
        predicted = path_module._first_step_size(make_context(X, Y, "pls2"))
        assert [predicted(d.lam) for d in got.diagnostics] == [
            d.terminal_size for d in got.diagnostics]
        assert_same_path(got, sequential_path(X, Y, "pls2", CERT_GRID))

    @pytest.mark.parametrize("seed", [50, 51, 52])
    def test_prediction_that_holds_makes_one_call(self, seed, monkeypatch):
        X, Y = cert_case(seed)
        predicted = path_module._first_step_size(make_context(X, Y, "pls2"))
        calls = spy_calls(monkeypatch)
        path = dynamic_grid(X, Y, "pls2", CERT_GRID)
        assert [predicted(d.lam) for d in path.diagnostics] == [
            d.terminal_size for d in path.diagnostics]
        assert calls == [[d.lam for d in path.diagnostics]]

    @pytest.mark.parametrize("seed", [50, 51, 52])
    def test_each_component_grid_of_a_fit_is_one_call(self, seed, monkeypatch):
        # The second grid runs on data deflated by the first component.
        X, Y = cert_case(seed)
        calls = spy_calls(monkeypatch)
        fit(X, Y, "pls2", H=2, strategy=PickStrategy.fixed_k(5), grid_cfg=CERT_GRID)
        assert len(calls) == 2

    @pytest.mark.parametrize("stuck", ["zero", "K"])
    def test_misprediction_still_gives_the_reference_path(self, stuck, monkeypatch):
        X, Y = cert_case(51)
        size = 0 if stuck == "zero" else CERT_GRID.K
        monkeypatch.setattr(path_module, "_first_step_size",
                            lambda ctx0: lambda lam: size)
        calls = spy_calls(monkeypatch)
        got = dynamic_grid(X, Y, "pls2", CERT_GRID)
        assert len(calls) > 1
        solved = [lam for call in calls for lam in call]
        assert len(solved) == len(set(solved))
        assert_same_path(got, sequential_path(X, Y, "pls2", CERT_GRID))


class TestPcaPlan:
    """A pca grid plans its schedule like pls1 and pls2 wherever its rows are
    cheap: on the n x n M kernel, and on the p x p G kernel up to 100
    columns."""

    @pytest.mark.parametrize("p,grid,constants", [
        (10, GridConfig(K=4, L=20), {}),
        (15, GridConfig(K=15, L=30), {}),
        (110, GridConfig(K=4, L=20), dict(MAX_ITER=40)),  # n = 40 < p
    ], ids=["G10", "G15", "M110"])
    def test_path_equals_the_sequential_reference(self, p, grid, constants, monkeypatch):
        solver_config(monkeypatch, **constants)
        X, _ = grid_case("pca", p=p)
        got = dynamic_grid(X, None, "pca", grid)
        assert_same_path(got, sequential_path(X, None, "pca", grid))

    def test_prediction_that_holds_makes_one_call(self, monkeypatch):
        # A near-tied multiresponse spectrum on the G kernel: every run ends
        # on the set its first gradient step moves up.
        inst = generate(SimConfig(scenario="multiresponse", n=30, p=20, sigma=5.0,
                                  seed=51))
        X = center_columns(inst.X)
        grid = GridConfig(K=20, L=50)
        predicted = path_module._first_step_size(make_context(X, None, "pca"))
        calls = spy_calls(monkeypatch)
        path = dynamic_grid(X, None, "pca", grid)
        assert len(path.diagnostics) == 35
        assert [predicted(d.lam) for d in path.diagnostics] == [
            d.terminal_size for d in path.diagnostics]
        assert calls == [[d.lam for d in path.diagnostics]]


class TestCheapRows:
    """Rows are expensive only on the p x p G kernel above 100 columns."""

    @pytest.mark.parametrize("model,branch,p,n,cheap", [
        ("pls1", None, 120, 40, True),
        ("pls2", "v", 120, 40, True),    # M kernel, q x q blocks
        ("pls2", "u", 100, 40, True),    # G kernel at 100 columns
        ("pls2", "u", 101, 40, False),
        ("pca", None, 110, 40, True),    # M kernel, n x n blocks
        ("pca", None, 100, 120, True),   # G kernel at 100 columns
        ("pca", None, 101, 120, False),
    ])
    def test_rule_is_keyed_on_the_kernel(self, model, branch, p, n, cheap):
        X, Y = grid_case(model, branch, p=p, n=n)
        ctx0 = make_context(X, Y, model)
        assert path_module._cheap_rows(ctx0) is cheap
        assert path_module._chunk(ctx0) == (16 if cheap else 8)


class TestPcaBelowP:
    """pca with fewer rows than columns runs on the n x n M kernel."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_buckets_match_the_g_kernel(self, seed, monkeypatch):
        X, _ = grid_case("pca", p=20, n=10, seed=seed)
        grid = GridConfig(K=8, L=20)
        got = dynamic_grid(X, None, "pca", grid)
        monkeypatch.setattr(path_module, "make_context",
                            lambda X, Y, model: pca_context(X, "G"))
        want = dynamic_grid(X, None, "pca", grid)
        for k, bucket in want.buckets.items():
            assert got.buckets[k].best == bucket.best
            assert got.buckets[k].best_value == pytest.approx(bucket.best_value, rel=1e-12)

    def test_near_tied_case_completes(self, monkeypatch):
        # The smallest seeded multiresponse case found whose path ended in
        # a power-iteration convergence failure before the step cap: some
        # of its eigen-solves still do not settle, and now get the dense
        # finish instead of failing.
        inst = generate(SimConfig(scenario="multiresponse", n=30, p=101, gamma=91,
                                  sigma=5.0, seed=56))
        steps = []
        power = linalg._power_steps

        def spy(A, v0):
            pair = power(A, v0)
            steps.append(pair.iterations)
            return pair

        monkeypatch.setattr(linalg, "_power_steps", spy)
        path = dynamic_grid(center_columns(inst.X), None, "pca", GridConfig(K=5, L=4))
        assert sorted(path.buckets) == [1, 2, 3, 4, 5]
        assert not any(d.failed for d in path.diagnostics)
        assert linalg.POWER_STEP_CAP in np.concatenate(steps)


class TestCurveAndJson:
    @pytest.fixture()
    def path(self):
        rng = np.random.default_rng(11)
        X = center_columns(rng.standard_normal((40, 8)))
        y = rng.standard_normal(40)
        return dynamic_grid(X, y, "pls1", GridConfig(K=8, L=20))

    def test_curve_non_increasing(self, path):
        values = [path.buckets[k].best_value for k in sorted(path.buckets)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_full_model_value(self, path):
        # k = p bucket must be the full subset, scored exactly as lambda_max
        # (the largest penalty of the grid) scores it.
        assert path.buckets[8].best.bits == (1,) * 8
        assert path.buckets[8].best_value == -path.lambda_grid[0][0]

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
