import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subsetpath
from subsetpath import linalg, solver
from subsetpath.errors import NonFiniteInputError
from subsetpath.linalg import EIGH_CROSSOVER, center_columns
from subsetpath.objective import (
    TRACE_LIMIT,
    eval_batch,
    grad_r,
    lambda_max,
    make_context,
    r_of_t,
    t_of_r,
)
from subsetpath.path import GridConfig, dynamic_grid
from subsetpath.solver import minimize_batch, top_k_order

from contexts import solver_config


@pytest.fixture()
def iterates(monkeypatch):
    """Every point the solver visits, as (t, objective), in visiting order
    (row by row within one batched evaluation).

    The solver computes the gradients of every running row exactly once
    per visited point, in one batched call of eval_batch's gradient part
    per iteration, so wrapping that part sees every iterate without the
    solver storing any of them. Each iterate's objective comes from the
    public eval_batch at the same point, whose gradients must equal the
    part's bit for bit."""
    seen = []
    gradient = solver._gradient

    def recording(ctx, T, lam, v0=None):
        grad, pair = gradient(ctx, T, lam, v0)
        ev = eval_batch(ctx, T, lam, v0=v0)
        np.testing.assert_array_equal(grad, ev.grad_t)
        seen.extend((t.copy(), float(value)) for t, value in zip(T, ev.value))
        return grad, pair

    monkeypatch.setattr(solver, "_gradient", recording)
    return seen


def first_visit_orders(iterates, K):
    """The distinct top-K orderings of the iterates, in first-visit order."""
    want = []
    for t, _ in iterates:
        order = np.argsort(-t, kind="stable")[:K].tolist()
        if order not in want:
            want.append(order)
    return want


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

    def test_overflowing_pls1_kernel_never_reaches_the_solver(self):
        # z = X^T y / n overflows to inf: the context is refused, so no run
        # can start on it.
        X = np.array([[1e200], [-1e200]])
        y = np.array([1e200, -1e200])
        with pytest.raises(NonFiniteInputError, match="non-finite"):
            make_context(X, y, "pls1")

    @pytest.mark.parametrize("branch", ["v", "u"])
    def test_overflowing_pls2_kernel_never_reaches_the_solver(self, branch):
        # q < p makes make_context store M ("v"), q >= p stores G ("u"); M
        # overflows in both, and either context is refused before any run.
        Y = np.array([[1e200, 1.0], [-1e200, 1.0]])
        X = np.array([[1e200, 1.0, 2.0], [-1e200, -1.0, -2.0]])
        if branch == "u":
            X = X[:, :2]
        for build in (lambda: make_context(X, Y, "pls2"),
                      lambda: dynamic_grid(X, Y, "pls2", GridConfig(K=1, L=2))):
            with pytest.raises(NonFiniteInputError, match="non-finite"):
                build()

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
        want = first_visit_orders(iterates, 5)
        assert len(iterates) == run.iterations + 1
        assert len(want) > 1
        assert run.trace.tolist() == want

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
    def test_batch_equals_single_runs_bitwise(self, model, branch, p, max_iter, iterates,
                                              monkeypatch):
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
            iterates.clear()
            assert_same_run(run, minimize_batch(ctx, [lam], K=min(p, 6))[0])
            assert run.trace.tolist() == first_visit_orders(iterates, min(p, 6))
        if max_iter == 1000:
            # Rows stop at different iterations, so the batch shrinks mid-loop.
            assert len({run.iterations for run in batch}) > 1

    def test_empty_penalty_list_gives_no_runs(self):
        # In a fresh interpreter under a timeout, so that a loop that never
        # ends fails the test instead of hanging the suite.
        code = ("import numpy as np\n"
                "from subsetpath.objective import make_context\n"
                "from subsetpath.solver import minimize_batch\n"
                "ctx = make_context(np.eye(3), np.array([1.0, 2.0, 3.0]), 'pls1')\n"
                "print(minimize_batch(ctx, []), minimize_batch(ctx, np.zeros(0), K=2))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(subsetpath.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "[] []\n")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0**501, -(2.0**501)],
                             ids=["nan", "inf", "-inf", "above", "-above"])
    def test_penalties_must_be_finite_and_bounded(self, bad):
        ctx = sweep_context("pls2", "v")
        with pytest.raises(ValueError, match="penalties must be finite"):
            minimize_batch(ctx, [0.1, bad])

    @pytest.mark.parametrize("lams,K,name", [
        (0.1, None, "lams"),
        ([[0.1, 0.2]], None, "lams"),
        ([0.1], 2.5, "K"),
    ], ids=["scalar-lams", "2d-lams", "fractional-K"])
    def test_malformed_arguments_refused_before_any_work(self, lams, K, name, monkeypatch):
        def no_work(*args):
            raise AssertionError("the solver evaluated before checking its arguments")

        monkeypatch.setattr(solver, "_gradient", no_work)
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            minimize_batch(sweep_context("pls1"), lams, K=K)

    @pytest.mark.parametrize("model,branch", [("pls1", None), ("pls2", "v"), ("pls2", "u"),
                                              ("pca", None)])
    @pytest.mark.parametrize("lam", [TRACE_LIMIT, -TRACE_LIMIT], ids=["limit", "-limit"])
    def test_penalties_at_the_limit_run(self, model, branch, lam):
        # Every t_j leaves for 0 or 1 under a penalty that dwarfs the data;
        # pytest turns any RuntimeWarning into an error.
        ctx = sweep_context(model, branch)
        (run,) = minimize_batch(ctx, [lam])
        assert np.isfinite(run.objective)
        assert np.all(run.terminal_t < 0.1 if lam > 0 else run.terminal_t > 0.9)


def reference_runs(ctx, lams, K):
    """The solver as a textbook loop, one penalty at a time: the public
    eval_batch, grad_r and t_of_r at every iterate, Adam's updates out of
    place, and the distinct top-K orderings by a search of a list."""
    runs = []
    for lam in lams:
        t = np.full(ctx.p, solver.T_INIT)
        r = r_of_t(t)
        m = np.zeros(ctx.p)
        v = np.zeros(ctx.p)
        trace, warm, quiet, it = [], None, False, 0
        while True:
            ev = eval_batch(ctx, t[None], np.array([lam]), v0=warm)
            g = grad_r(ev, r[None])[0]
            order = np.argsort(-t, kind="stable")[:K].tolist()
            if order not in trace:
                trace.append(order)
            if ev.dominant is not None:
                warm = ev.dominant.vector
            if quiet or it >= solver.MAX_ITER:
                runs.append(solver.SolverRun(np.array(trace), quiet, it, t, float(ev.value[0])))
                break
            it += 1
            m = solver.BETA1 * m + (1.0 - solver.BETA1) * g
            v = solver.BETA2 * v + (1.0 - solver.BETA2) * g * g
            m_hat = m / (1.0 - solver.BETA1**it)
            v_hat = v / (1.0 - solver.BETA2**it)
            r = r - solver.LEARNING_RATE * m_hat / (np.sqrt(v_hat) + solver.EPS)
            t_next = t_of_r(r)
            quiet = bool(np.abs(t_next - t).max() < solver.TOL)
            t = t_next
    return runs


class TestReferenceLoop:
    @pytest.mark.parametrize("model,branch,p,n", [
        ("pls1", None, 8, 30),
        ("pls2", "v", 8, 30),   # M kernel, q x q
        ("pls2", "u", 6, 30),   # G kernel, p x p
        ("pca", None, 12, 10),  # M kernel, n x n
        ("pca", None, 8, 30),   # G kernel, p x p
    ])
    def test_batch_equals_textbook_loop_bitwise(self, model, branch, p, n, monkeypatch):
        ctx = sweep_context(model, branch, p=p, n=n)
        K = 4
        lams = lambda_max(ctx) * np.array([0.9, 0.45, 0.2, 0.07, 0.0])
        # Cap the slowest row one update before its end, so that the batch
        # also holds a row ended by MAX_ITER.
        cap = max(run.iterations for run in reference_runs(ctx, lams, K)) - 1
        solver_config(monkeypatch, MAX_ITER=cap)
        want = reference_runs(ctx, lams, K)
        assert any(run.converged for run in want) and not all(run.converged for run in want)
        assert len({run.iterations for run in want}) > 2
        got = minimize_batch(ctx, lams, K=K)
        for run, ref in zip(got, want, strict=True):
            assert run.trace.dtype == np.min_scalar_type(p - 1)
            assert_same_run(run, ref)


class TestSolverConstants:
    def test_no_setting_is_left(self):
        assert list(inspect.signature(minimize_batch).parameters) == ["ctx", "lams", "K"]
        assert (solver.LEARNING_RATE, solver.BETA1, solver.BETA2, solver.EPS) == (
            0.05, 0.9, 0.999, 1e-8)
        assert (solver.MAX_ITER, solver.TOL, solver.T_INIT) == (1000, 1e-5, 0.5)
