import inspect
import itertools

import numpy as np
import pytest

from subsetpath import linalg, solver
from subsetpath.errors import SolverAbort
from subsetpath.linalg import EIGH_CROSSOVER, center_columns
from subsetpath.objective import lambda_max, make_context
from subsetpath.path import GridConfig, dynamic_grid
from subsetpath.solver import minimize_batch, top_k_order

from contexts import pls2_context, solver_config


@pytest.fixture()
def iterates(monkeypatch):
    """Every point the solver visits, as (t, objective), in visiting order
    (row by row within one batched evaluation).

    The solver evaluates the objective exactly once per visited point, in
    one batched call per iteration, so wrapping its evaluator sees every
    iterate without the solver storing any of them."""
    seen = []
    evaluate = solver.eval_batch

    def recording(ctx, T, lam, **kwargs):
        ev = evaluate(ctx, T, lam, **kwargs)
        seen.extend((t.copy(), float(value)) for t, value in zip(T, ev.value))
        return ev

    monkeypatch.setattr(solver, "eval_batch", recording)
    return seen


def pls1_context(z_target, n=2):
    # Identity-like design so z = X^T y / n equals z_target exactly.
    p = len(z_target)
    X = np.zeros((max(n, p), p))
    for j in range(p):
        X[j, j] = 1.0
    y = np.zeros(max(n, p))
    for j in range(p):
        y[j] = z_target[j] * max(n, p)
    return make_context(X, y, "pls1")


class TestMinimize:
    def test_large_penalty_drives_empty_model(self):
        # With lam > 2 max z_j^2 the stationary point lies outside the
        # hypercube and the objective increases in every coordinate, so
        # descent from 0.5 must land on the empty corner.
        z = np.array([0.5, 1.0, 0.8])
        lam = 2.0 * np.max(z**2) * 1.1
        ctx = pls1_context(z)
        grad_at_full = lam - 2.0 * z**2
        assert np.all(grad_at_full > 0.0)  # increasing through the cube
        run = minimize_batch(ctx, [lam])[0]
        assert np.all(run.terminal_t < 1e-3)

    def test_zero_penalty_drives_full_model(self):
        ctx = pls1_context(np.array([0.5, 1.0, 0.8]))
        run = minimize_batch(ctx, [0.0])[0]
        assert np.all(run.terminal_t > 1.0 - 1e-3)

    def test_three_penalties_reach_three_corners(self):
        # p = 2 with |z2| > |z1|: small, middling and large penalties
        # converge to subsets of sizes 2, 1 and 0 respectively.
        ctx = pls1_context(np.array([0.5, 1.0]))
        terminal = {}
        for lam in (0.1, 0.6, 3.0):
            run = minimize_batch(ctx, [lam])[0]
            terminal[lam] = (run.terminal_t > 0.5).astype(int)
        assert terminal[0.1].tolist() == [1, 1]
        assert terminal[0.6].tolist() == [0, 1]
        assert terminal[3.0].tolist() == [0, 0]

    @pytest.mark.parametrize("model", ["pls1", "pls2", "pca"])
    def test_trace_stays_in_cube(self, model, iterates, monkeypatch):
        rng = np.random.default_rng(10)
        X = center_columns(rng.standard_normal((20, 5)))
        Y = center_columns(rng.standard_normal((20, 3)))
        y = rng.standard_normal(20)
        if model == "pls1":
            ctx = make_context(X, y, model)
        elif model == "pls2":
            ctx = make_context(X, Y, model)
        else:
            ctx = make_context(X, model="pca")
        solver_config(monkeypatch, MAX_ITER=200)
        run = minimize_batch(ctx, [0.05])[0]
        assert len(iterates) == run.iterations + 1
        for t, _ in iterates:
            assert np.all(t >= 0.0) and np.all(t <= 1.0)
        np.testing.assert_array_equal(run.terminal_t, iterates[-1][0])
        assert run.objective == iterates[-1][1]

    @pytest.mark.parametrize("model", ["pls1", "pls2", "pca"])
    def test_converged_row_stops_at_its_first_quiet_update(self, model, iterates):
        # The last update moves every t_j by less than TOL; each earlier one
        # moves some t_j by TOL or more.
        rng = np.random.default_rng(10)
        X = center_columns(rng.standard_normal((20, 5)))
        Y = None if model == "pca" else center_columns(rng.standard_normal((20, 3)))
        ctx = make_context(X, Y[:, 0] if model == "pls1" else Y, model)
        run = minimize_batch(ctx, [0.05])[0]
        assert run.converged and run.iterations < solver.MAX_ITER
        assert len(iterates) == run.iterations + 1
        moves = [np.abs(b - a).max() for (a, _), (b, _) in zip(iterates, iterates[1:])]
        assert moves[-1] < solver.TOL
        assert min(moves[:-1]) >= solver.TOL

    def test_determinism(self, iterates):
        rng = np.random.default_rng(2)
        X = center_columns(rng.standard_normal((25, 6)))
        Y = center_columns(rng.standard_normal((25, 4)))
        ctx = make_context(X, Y, "pls2")
        run1 = minimize_batch(ctx, [0.1])[0]
        first = iterates[:]
        run2 = minimize_batch(ctx, [0.1])[0]
        second = iterates[len(first):]
        assert run1.iterations == run2.iterations
        assert run1.converged == run2.converged
        np.testing.assert_array_equal(run1.trace, run2.trace)
        assert len(first) == len(second) == run1.iterations + 1
        for (t1, obj1), (t2, obj2) in zip(first, second):
            np.testing.assert_array_equal(t1, t2)
            assert obj1 == obj2

    def test_non_finite_abort_names_iteration(self):
        X = np.array([[1e200], [-1e200]])
        y = np.array([1e200, -1e200])
        with np.errstate(over="ignore"):
            ctx = make_context(X, y, "pls1")  # z overflows to inf
            run = minimize_batch(ctx, [0.0])[0]
        assert isinstance(run, SolverAbort)
        assert "iteration 0" in str(run)

    @pytest.mark.parametrize("branch", ["v", "u"])
    def test_pls2_overflow_aborts_at_iteration_0(self, branch):
        X = np.array([[1e200, 1.0], [-1e200, -1.0]])
        Y = np.array([[1e200, 1.0], [-1e200, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            ctx = pls2_context(X, Y, branch)
            run = minimize_batch(ctx, [0.0])[0]
            assert isinstance(run, SolverAbort)
            assert "iteration 0" in str(run)
            with pytest.raises(SolverAbort, match="cannot start the grid"):
                dynamic_grid(X, Y, "pls2", GridConfig(K=1, L=2))

    def test_t_init_must_be_interior(self, iterates):
        # Every run starts at the constant vector T_INIT, inside (0, 1).
        assert 0.0 < solver.T_INIT < 1.0
        ctx = pls1_context(np.array([0.5, 1.0]))
        minimize_batch(ctx, [0.0, 0.3])
        np.testing.assert_array_equal(iterates[0][0], [solver.T_INIT] * 2)
        np.testing.assert_array_equal(iterates[1][0], [solver.T_INIT] * 2)

    def test_max_iter_cap_reported(self, iterates, monkeypatch):
        ctx = pls1_context(np.array([0.5, 1.0]))
        solver_config(monkeypatch, MAX_ITER=5)
        run = minimize_batch(ctx, [0.0])[0]
        assert not run.converged
        assert run.iterations == 5
        assert len(iterates) == 6  # initial point plus five updates


class TestStreamedOrderings:
    def test_initial_tie_goes_to_lowest_index(self):
        assert top_k_order(np.full(4, 0.5), 2).tolist() == [0, 1]
        assert top_k_order(np.array([0.2, 0.7, 0.7, 0.1]), 3).tolist() == [1, 2, 0]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_stable_argsort_under_ties(self, seed):
        # Sizes on both sides of the partial-selection threshold 4 K = p,
        # below, at and above 100 columns.
        rng = np.random.default_rng(seed)
        p = [int(rng.integers(1, 60)), int(rng.integers(500, 800)), 100, 120][seed % 4]
        # Few distinct levels, so most entries tie with others.
        levels = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 5)))
        Ks = {1, 2, p // 4, p // 4 + 1, p, *rng.integers(1, p + 1, size=10).tolist()}
        stack = np.array([rng.choice(levels, size=p), np.full(p, 0.5), rng.uniform(size=p)])
        for K in sorted(Ks - {0}):
            for t in stack:
                want = np.argsort(-t, kind="stable")[:K].tolist()
                assert top_k_order(t, K).tolist() == want
            # A stack of points is ordered row by row.
            want = np.argsort(-stack, axis=1, kind="stable")[:, :K]
            np.testing.assert_array_equal(top_k_order(stack, K), want)

    @pytest.mark.parametrize("model", ["pls1", "pls2"])
    def test_trace_is_distinct_orderings_of_every_iterate(self, model, iterates,
                                                          monkeypatch):
        rng = np.random.default_rng(4)
        X = center_columns(rng.standard_normal((30, 8)))
        if model == "pls1":
            ctx = make_context(X, rng.standard_normal(30), model)
        else:
            ctx = make_context(X, center_columns(rng.standard_normal((30, 3))), model)
        solver_config(monkeypatch, MAX_ITER=300)
        run = minimize_batch(ctx, [0.02], K=5)[0]
        want = []
        for t, _ in iterates:
            order = tuple(int(j) for j in np.argsort(-t, kind="stable")[:5])
            if order not in want:
                want.append(order)
        assert len(iterates) == run.iterations + 1
        assert len(want) > 1
        assert run.trace.tolist() == [list(w) for w in want]

    def test_k_out_of_range_rejected(self):
        ctx = pls1_context(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            minimize_batch(ctx, [0.0], K=3)


def sweep_context(model, branch=None, p=8, n=30, seed=12):
    rng = np.random.default_rng(seed)
    X = center_columns(rng.standard_normal((n, p)))
    if model == "pca":
        return make_context(X, model="pca")
    # q < p gives make_context's "v" kernel (M), q >= p its "u" kernel (G).
    q = 1 if model == "pls1" else (3 if branch == "v" else p + 2)
    Y = center_columns(rng.standard_normal((n, q)))
    return make_context(X, Y[:, 0] if model == "pls1" else Y, model)


def assert_same_run(got, want):
    np.testing.assert_array_equal(got.trace, want.trace)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    np.testing.assert_array_equal(got.terminal_t, want.terminal_t)
    assert got.objective == want.objective


class TestBatchedSweep:
    @pytest.mark.parametrize("model,branch,p,max_iter", [
        ("pls1", None, 8, 1000),
        ("pls2", "v", 8, 1000),
        ("pls2", "u", 6, 1000),
        ("pca", None, 8, 1000),
        # warm power steps on the n x n (M) and the p x p (G) eigenproblem
        ("pca", None, 110, 40),
        ("pca", None, EIGH_CROSSOVER + 6, 40),
        # the squared step on near-tied p x p blocks, some finished densely
        ("pca", None, 15, 1000),
    ])
    def test_batch_equals_single_runs_bitwise(self, model, branch, p, max_iter, monkeypatch):
        n = 40 if p > 10 else 30
        ctx = sweep_context(model, branch, p=p, n=n)
        lams = lambda_max(ctx) * np.array([0.9, 0.45, 0.2, 0.07])
        solver_config(monkeypatch, MAX_ITER=max_iter)
        power_steps, finished = [], []
        steps, finish = linalg._power_steps, linalg._dense_finish
        monkeypatch.setattr(linalg, "_power_steps",
                            lambda *a: power_steps.append(1) or steps(*a))
        monkeypatch.setattr(linalg, "_dense_finish",
                            lambda A, rest, *a: finished.append(rest.sum()) or finish(A, rest, *a))
        batch = minimize_batch(ctx, lams, K=min(p, 6))
        dim = {"pls1": 0, "pls2": 3 if branch == "v" else p, "pca": min(n, p)}[model]
        assert bool(power_steps) == (dim > EIGH_CROSSOVER)
        if (model, p) == ("pca", 15):
            assert sum(finished) > 0
        for lam, run in zip(lams, batch):
            assert_same_run(run, minimize_batch(ctx, [lam], K=min(p, 6))[0])
        if max_iter == 1000:
            # Rows stop at different iterations, so the batch shrinks mid-loop.
            assert len({run.iterations for run in batch}) > 1

    @pytest.mark.parametrize("field", ["grad_t", "value"])
    def test_non_finite_row_aborts_alone(self, field, monkeypatch):
        ctx = sweep_context("pls2", "v")
        lams = lambda_max(ctx) * np.array([0.6, 0.3, 0.1])
        calls = itertools.count()
        evaluate = solver.eval_batch

        def poisoned(ctx, T, lam, **kwargs):
            ev = evaluate(ctx, T, lam, **kwargs)
            if next(calls) == 5:  # iteration 5, all three rows still running
                getattr(ev, field)[lam == lams[1]] = np.nan
            return ev

        monkeypatch.setattr(solver, "eval_batch", poisoned)
        batch = minimize_batch(ctx, lams)
        monkeypatch.undo()
        assert isinstance(batch[1], SolverAbort)
        assert batch[1].iteration == 5 and "iteration 5" in str(batch[1])
        for i in (0, 2):
            assert_same_run(batch[i], minimize_batch(ctx, [lams[i]])[0])

    def test_single_row_abort_is_returned(self):
        with np.errstate(over="ignore"):
            ctx = make_context(np.array([[1e200], [-1e200]]),
                               np.array([1e200, -1e200]), "pls1")
            (run,) = minimize_batch(ctx, [0.0])
        assert isinstance(run, SolverAbort) and run.iteration == 0


class TestSolverConstants:
    def test_no_setting_is_left(self):
        assert list(inspect.signature(minimize_batch).parameters) == ["ctx", "lams", "K"]
        assert (solver.LEARNING_RATE, solver.BETA1, solver.BETA2, solver.EPS) == (
            0.05, 0.9, 0.999, 1e-8)
        assert (solver.MAX_ITER, solver.TOL, solver.T_INIT) == (1000, 1e-5, 0.5)
