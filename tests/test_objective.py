import itertools

import numpy as np
import pytest

from subsetpath.linalg import center_columns
from subsetpath.objective import (
    TRACE_LIMIT,
    ObjectiveContext,
    corner_values,
    eval_batch,
    grad_r,
    lambda_max,
    make_context,
    r_of_t,
    t_of_r,
)
from subsetpath.errors import DimensionError, NonFiniteInputError
from subsetpath.path import GridConfig, dynamic_grid

from contexts import pca_context, pls2_context


# --- independent finite-difference oracle ------------------------------
# Objective values for the oracle come from numpy's dense symmetric
# eigendecomposition, not from the package's power iteration.


def fd_grad(f, t, h):
    g = np.zeros_like(t)
    for j in range(t.size):
        tp = t.copy()
        tm = t.copy()
        tp[j] += h
        tm[j] -= h
        g[j] = (f(tp) - f(tm)) / (2.0 * h)
    return g


def eval_at(ctx, t, lam):
    """eval_batch at the one point t under penalty lam (a stack of one)."""
    return eval_batch(ctx, np.asarray(t, dtype=float)[None], np.array([lam]))


def pls1_value(z, lam):
    return lambda t: -float(np.sum(t * t * z * z)) + lam * float(np.sum(t))


def pls2_value(M, lam):
    def f(t):
        Mt = t[:, None] * M
        return -float(np.linalg.eigvalsh(Mt.T @ Mt)[-1]) + lam * float(np.sum(t))

    return f


def pca_value(G, lam):
    def f(t):
        A = (t[:, None] * G) * t[None, :]
        return -float(np.linalg.eigvalsh(A)[-1]) + lam * float(np.sum(t))

    return f


def relative_gap_ok(A, floor=1e-3):
    w = np.linalg.eigvalsh(A)
    top = w[-1]
    return top > 0 and (top - w[-2]) / top >= floor


def draw_pls2(seed, n=30, p=8, q=3):
    # Re-draw until the top eigenvalue of M_t^T M_t at the probe point is
    # simple enough for the gradient formula to be smooth.
    for offset in range(20):
        rng = np.random.default_rng(seed + 1000 * offset)
        X = center_columns(rng.standard_normal((n, p)))
        Y = center_columns(rng.standard_normal((n, q)))
        t = rng.uniform(0.2, 0.9, size=p)
        M = X.T @ Y / n
        Mt = t[:, None] * M
        if relative_gap_ok(Mt.T @ Mt):
            return X, Y, t
    raise AssertionError("could not draw a well-separated instance")


def draw_pca(seed, n=40, p=7):
    for offset in range(20):
        rng = np.random.default_rng(seed + 1000 * offset)
        X = center_columns(rng.standard_normal((n, p)))
        t = rng.uniform(0.2, 0.9, size=p)
        G = X.T @ X / n
        if relative_gap_ok((t[:, None] * G) * t[None, :]):
            return X, t
    raise AssertionError("could not draw a well-separated instance")


# --- reparameterization -------------------------------------------------


class TestReparameterization:
    def test_r_zero_maps_to_t_zero(self):
        np.testing.assert_allclose(t_of_r(np.zeros(4)), np.zeros(4))

    def test_half_closed_form(self):
        np.testing.assert_allclose(
            r_of_t(np.array([0.5])), [np.sqrt(np.log(2.0))], rtol=1e-14
        )

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0.0, 1.0 - 1e-9, size=50)
        np.testing.assert_allclose(t_of_r(r_of_t(t)), t, atol=1e-12)

    def test_t_at_one_has_no_preimage(self):
        with pytest.raises(ValueError):
            r_of_t(np.array([1.0]))
        with pytest.raises(ValueError):
            r_of_t(np.array([-0.1]))

    def test_relaxation_point_consistency(self):
        t = np.array([0.3, 0.8])
        np.testing.assert_allclose(t_of_r(r_of_t(t)), t, atol=1e-12)

    def test_grad_r_vanishes_at_zero(self):
        ctx = make_context(np.eye(2), np.ones(2), "pls1")
        ev = eval_at(ctx, np.zeros(2), 3.0)
        np.testing.assert_allclose(grad_r(ev, np.zeros(2))[0], np.zeros(2))

    def test_grad_r_closed_form(self):
        # grad_t = 1 at r = sqrt(ln 2) gives grad_r = 2 sqrt(ln 2) * 0.5.
        r = np.array([np.sqrt(np.log(2.0))])
        ctx = make_context(np.eye(2)[:, :1], np.zeros(2), "pls1")
        ev = eval_at(ctx, t_of_r(r), 1.0)
        assert ev.grad_t[0, 0] == pytest.approx(1.0)
        assert grad_r(ev, r)[0, 0] == pytest.approx(np.sqrt(np.log(2.0)))

    def test_grad_r_matches_finite_differences(self):
        X, Y, t = draw_pls2(seed=7)
        ctx = make_context(X, Y, "pls2")
        f = pls2_value(ctx.M, 0.3)
        r = r_of_t(t)
        ev = eval_at(ctx, t, 0.3)
        got = grad_r(ev, r)[0]
        want = fd_grad(lambda rr: f(t_of_r(rr)), r, h=1e-6)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


# --- context construction ----------------------------------------------


class TestMakeContext:
    def test_pls1_identity_design(self):
        ctx = make_context(np.eye(2), np.array([1.0, 2.0]), "pls1")
        np.testing.assert_allclose(ctx.z, [0.5, 1.0])

    def test_pca_identity(self):
        ctx = make_context(np.eye(2), model="pca")
        np.testing.assert_allclose(ctx.G, np.eye(2) / 2.0)

    def test_pls2_branch_selection(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 3))
        Y = rng.standard_normal((10, 5))
        ctx = make_context(X, Y, "pls2")
        assert ctx.M is None and ctx.G.shape == (3, 3)
        ctx2 = make_context(rng.standard_normal((10, 6)), Y, "pls2")
        assert ctx2.M is not None and ctx2.M.shape == (6, 5)

    def test_pca_kernel_selection(self):
        rng = np.random.default_rng(2)
        ctx = make_context(rng.standard_normal((5, 8)), model="pca")
        assert ctx.G is None and ctx.M.shape == (8, 5) and ctx.q == 0
        ctx2 = make_context(rng.standard_normal((8, 8)), model="pca")
        assert ctx2.M is None and ctx2.G.shape == (8, 8)

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            make_context(np.eye(3), np.ones(4), "pls1")

    def test_pls2_needs_response(self):
        with pytest.raises(DimensionError):
            make_context(np.eye(3), None, "pls2")

    def test_pls2_rejects_empty_response(self):
        with pytest.raises(DimensionError):
            make_context(np.eye(3), np.empty((3, 0)), "pls2")

    def test_pls1_rejects_multicolumn_response(self):
        with pytest.raises(DimensionError):
            make_context(np.eye(3), np.ones((3, 2)), "pls1")


def kernel(kind, scale=1.0):
    # A context of each kernel kind whose Gram trace is 16 * scale^2.
    z = scale * np.array([3.0, 2.0, 1.0, 1.0, 1.0])
    if kind == "z":
        return ObjectiveContext("pls1", 8, 5, 1, z=z)
    M = np.zeros((5, 2))
    M[:, 0] = z
    if kind == "M":
        return ObjectiveContext("pls2", 8, 5, 2, M=M)
    with np.errstate(over="ignore", invalid="ignore"):
        G = M @ M.T
    return ObjectiveContext("pca", 8, 5, 0, G=G)


class TestKernelBound:
    """Construction refuses a kernel whose Gram trace (sum z_j^2, ||M||_F^2
    or tr G) is not finite or exceeds TRACE_LIMIT = 2^500."""

    @pytest.mark.parametrize("kind", ["z", "M", "G"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kernel_is_refused(self, kind, bad):
        with pytest.raises(NonFiniteInputError, match="non-finite"):
            kernel(kind, scale=bad)

    @pytest.mark.parametrize("kind", ["z", "M", "G"])
    def test_overflowing_trace_is_refused(self, kind):
        # Finite entries whose squares overflow.
        with pytest.raises(NonFiniteInputError, match="non-finite"):
            kernel(kind, scale=1e160)

    @pytest.mark.parametrize("kind", ["z", "M", "G"])
    def test_trace_above_the_limit_is_refused(self, kind):
        # 16 (2^248)^2 (1 + 2^-52)^2 rounds to 2^500 (1 + 2^-51).
        scale = np.nextafter(2.0**248, np.inf)
        with pytest.raises(NonFiniteInputError, match="exceeds 2\\^500"):
            kernel(kind, scale=scale)

    @pytest.mark.parametrize("kind", ["z", "M", "G"])
    def test_trace_at_the_limit_is_accepted(self, kind):
        ctx = kernel(kind, scale=2.0**248)
        assert lambda_max(ctx) == TRACE_LIMIT  # the top-1 block is the whole G

    def test_grid_at_the_limit_runs_without_a_warning(self):
        # z = X^T y / 8 = 2^248 (3, 2, 1, 1, 1) exactly, so sum z^2 = 2^500;
        # pytest turns any RuntimeWarning into an error.
        X = np.zeros((8, 5))
        X[np.arange(5), np.arange(5)] = 2.0**126 * np.array([3.0, 2.0, 1.0, 1.0, 1.0])
        y = np.full(8, 2.0**125)
        assert np.sum(make_context(X, y, "pls1").z ** 2) == TRACE_LIMIT
        path = dynamic_grid(X, y, "pls1", GridConfig(K=5, L=20))
        assert path.buckets[1].best.idx == (0,)
        assert path.buckets[2].best.idx == (0, 1)
        assert path.buckets[5].best_value == -TRACE_LIMIT
        assert path.lambda_grid[0] == (TRACE_LIMIT, 0)


# --- evaluators ----------------------------------------------------------


class TestEvalPls1:
    def test_identity_design_hand_values(self):
        ctx = make_context(np.eye(2), np.array([1.0, 2.0]), "pls1")
        ev = eval_at(ctx, np.array([1.0, 1.0]), 0.0)
        assert ev.value[0] == pytest.approx(-1.25)
        np.testing.assert_allclose(ev.grad_t[0], [-0.5, -2.0])

    def test_empty_point(self):
        ctx = make_context(np.eye(2), np.array([1.0, 2.0]), "pls1")
        ev = eval_at(ctx, np.zeros(2), 0.7)
        assert ev.value[0] == 0.0
        np.testing.assert_allclose(ev.grad_t[0], [0.7, 0.7])

    def test_value_identity(self):
        ctx = make_context(np.eye(2), np.array([1.0, 2.0]), "pls1")
        t = np.array([0.3, 0.9])
        ev = eval_at(ctx, t, 0.7)
        delta = float(np.sum(t * t * ctx.z * ctx.z))
        assert ev.value[0] == pytest.approx(-delta + 0.7 * t.sum())

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        X = center_columns(rng.standard_normal((20, 6)))
        y = rng.standard_normal(20)
        ctx = make_context(X, y, "pls1")
        t = rng.uniform(0.1, 0.9, size=6)
        ev = eval_at(ctx, t, 0.2)
        want = fd_grad(pls1_value(ctx.z, 0.2), t, h=1e-6)
        np.testing.assert_allclose(ev.grad_t[0], want, rtol=1e-6, atol=1e-9)

    def test_concavity_on_random_pairs(self):
        rng = np.random.default_rng(8)
        X = center_columns(rng.standard_normal((15, 5)))
        y = rng.standard_normal(15)
        ctx = make_context(X, y, "pls1")
        for _ in range(50):
            t1 = rng.uniform(0, 1, size=5)
            t2 = rng.uniform(0, 1, size=5)
            a = rng.uniform()
            mix = eval_at(ctx, a * t1 + (1 - a) * t2, 0.4).value[0]
            sep = (a * eval_at(ctx, t1, 0.4).value[0]
                   + (1 - a) * eval_at(ctx, t2, 0.4).value[0])
            assert mix >= sep - 1e-12


class TestEvalPls2:
    def test_diagonal_m_hand_values(self):
        # M = diag(3, 1): delta^2 = 9 at t = (1,1), gradient (-18, 0).
        X = np.sqrt(2.0) * np.eye(2)
        Y = np.sqrt(2.0) * np.diag([3.0, 1.0])
        ctx = make_context(X, Y, "pls2")
        np.testing.assert_allclose(
            ctx.M if ctx.M is not None else ctx.G,
            np.diag([3.0, 1.0]) if ctx.M is not None else np.diag([9.0, 1.0]),
        )
        ev = eval_at(ctx, np.array([1.0, 1.0]), 0.0)
        assert ev.dominant.value[0] == pytest.approx(9.0, rel=1e-9)
        assert ev.value[0] == pytest.approx(-9.0, rel=1e-9)
        np.testing.assert_allclose(ev.grad_t[0], [-18.0, 0.0], atol=1e-7)

    def test_diagonal_m_masked(self):
        X = np.sqrt(2.0) * np.eye(2)
        Y = np.sqrt(2.0) * np.diag([3.0, 1.0])
        ctx = make_context(X, Y, "pls2")
        ev = eval_at(ctx, np.array([0.0, 1.0]), 0.0)
        assert ev.dominant.value[0] == pytest.approx(1.0, rel=1e-9)

    def test_zero_point(self):
        X, Y, _ = draw_pls2(seed=3)
        ctx = make_context(X, Y, "pls2")
        ev = eval_at(ctx, np.zeros(8), 0.9)
        assert ev.dominant.value[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(ev.grad_t[0], np.full(8, 0.9))

    @pytest.mark.parametrize("branch", ["v", "u"])
    def test_gradient_matches_finite_differences(self, branch):
        X, Y, t = draw_pls2(seed=21)
        ctx = pls2_context(X, Y, branch)
        M = X.T @ Y / X.shape[0]
        ev = eval_at(ctx, t, 0.1)
        want = fd_grad(pls2_value(M, 0.1), t, h=1e-6)
        np.testing.assert_allclose(ev.grad_t[0], want, rtol=1e-5, atol=1e-7)

    def test_branches_agree(self):
        X, Y, t = draw_pls2(seed=33)
        ctx_v = pls2_context(X, Y, "v")
        ctx_u = pls2_context(X, Y, "u")
        ev_v = eval_at(ctx_v, t, 0.2)
        ev_u = eval_at(ctx_u, t, 0.2)
        assert ev_v.value[0] == pytest.approx(ev_u.value[0], rel=1e-8)
        np.testing.assert_allclose(ev_v.grad_t[0], ev_u.grad_t[0], rtol=1e-6, atol=1e-8)

    def test_tied_spectrum(self):
        # Two exactly tied top singular values: whichever top vector the
        # solve returns, the value is exact and the gradient sums to
        # -2 delta. Halving t_2 separates them again.
        X = np.sqrt(2.0) * np.eye(2)
        Y = np.sqrt(2.0) * np.diag([2.0, 2.0])
        ctx = make_context(X, Y, "pls2")
        ev = eval_at(ctx, np.ones(2), 0.0)
        assert ev.value[0] == pytest.approx(-4.0)
        assert ev.grad_t[0].sum() == pytest.approx(-8.0)
        ev2 = eval_at(ctx, np.array([1.0, 0.5]), 0.0)
        assert ev2.value[0] == pytest.approx(-4.0)
        np.testing.assert_allclose(ev2.grad_t[0], [-8.0, 0.0], atol=1e-12)


class TestEvalPca:
    def test_diagonal_covariance_hand_values(self):
        n = 2
        X = np.sqrt(n) * np.diag([2.0, 1.0])  # X^T X / n = diag(4, 1)
        ctx = make_context(X, model="pca")
        ev = eval_at(ctx, np.array([1.0, 1.0]), 0.0)
        assert ev.dominant.value[0] == pytest.approx(4.0, rel=1e-9)
        np.testing.assert_allclose(ev.grad_t[0], [-8.0, 0.0], atol=1e-7)

    def test_zero_point(self):
        X, _ = draw_pca(seed=2)
        ctx = make_context(X, model="pca")
        ev = eval_at(ctx, np.zeros(7), 0.5)
        assert ev.value[0] == 0.0
        assert ev.dominant.value[0] == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        X, t = draw_pca(seed=17)
        ctx = make_context(X, model="pca")
        ev = eval_at(ctx, t, 0.15)
        want = fd_grad(pca_value(ctx.G, 0.15), t, h=1e-6)
        np.testing.assert_allclose(ev.grad_t[0], want, rtol=1e-5, atol=1e-7)


class TestPcaKernels:
    """pca with n < p solves the n x n eigenproblem of M = X^T / sqrt(n),
    the same one the pls2 M kernel solves; the p x p one of G = X^T X / n
    has the same top eigenvalue, and the two gradients agree."""

    @pytest.mark.parametrize("seed", range(6))
    def test_m_kernel_matches_g_kernel(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 12, 30
        X = center_columns(rng.standard_normal((n, p)))
        ctx_m, ctx_g = pca_context(X, "M"), pca_context(X, "G")
        T = rng.uniform(0.05, 0.95, size=(5, p))
        lam = rng.uniform(0.0, 1.0, size=5)
        ev_m, ev_g = eval_batch(ctx_m, T, lam), eval_batch(ctx_g, T, lam)
        np.testing.assert_allclose(ev_m.dominant.value, ev_g.dominant.value, rtol=1e-12)
        scale = np.abs(ev_g.grad_t).max()
        np.testing.assert_allclose(ev_m.grad_t, ev_g.grad_t, rtol=0, atol=1e-12 * scale)
        for k in (1, 5, n, 20, p):  # blocks k x k below n, n x n above
            I = np.sort(np.stack([rng.permutation(p)[:k] for _ in range(4)]), axis=1)
            np.testing.assert_allclose(corner_values(ctx_m, I), corner_values(ctx_g, I),
                                       rtol=1e-12)
        assert lambda_max(ctx_m) == pytest.approx(lambda_max(ctx_g), rel=1e-12)


# --- corner behaviour ----------------------------------------------------


def discrete_value(model, X, Y, bits):
    """Objective on the column-deleted matrix, straight from the definition."""
    idx = np.flatnonzero(np.asarray(bits))
    if idx.size == 0:
        return 0.0
    n = X.shape[0]
    Xs = X[:, idx]
    if model == "pls1":
        zs = Xs.T @ Y.reshape(-1) / n
        return -float(zs @ zs)
    if model == "pls2":
        Ms = Xs.T @ Y / n
        return -float(np.linalg.eigvalsh(Ms.T @ Ms)[-1])
    return -float(np.linalg.eigvalsh(Xs.T @ Xs / n)[-1])


class TestCornerConsistency:
    @pytest.mark.parametrize("model", ["pls1", "pls2", "pca"])
    def test_exhaustive_p6(self, model):
        rng = np.random.default_rng(99)
        n, p = 25, 6
        X = center_columns(rng.standard_normal((n, p)))
        Y = center_columns(rng.standard_normal((n, 3)))
        y = rng.standard_normal(n)
        if model == "pls1":
            ctx = make_context(X, y, model)
            data_y = y
        elif model == "pls2":
            ctx = make_context(X, Y, model)
            data_y = Y
        else:
            ctx = make_context(X, model="pca")
            data_y = None
        for bits in itertools.product([0, 1], repeat=p):
            want = discrete_value(model, X, data_y, bits)
            # relaxed objective evaluated exactly at the corner
            ev = eval_at(ctx, np.array(bits, dtype=float), 0.0)
            assert ev.value[0] == pytest.approx(want, rel=1e-10, abs=1e-12)
            idx = np.flatnonzero(bits)
            got = float(corner_values(ctx, idx[None])[0]) if idx.size else 0.0
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("model", ["pls1", "pls2", "pca"])
    def test_monotone_decrease_per_coordinate(self, model):
        rng = np.random.default_rng(55)
        X = center_columns(rng.standard_normal((20, 5)))
        Y = center_columns(rng.standard_normal((20, 2)))
        y = rng.standard_normal(20)
        if model == "pls1":
            ctx = make_context(X, y, model)
        elif model == "pls2":
            ctx = make_context(X, Y, model)
        else:
            ctx = make_context(X, model="pca")
        for trial in range(20):
            t = rng.uniform(0, 0.9, size=5)
            j = trial % 5
            bumped = t.copy()
            bumped[j] = min(1.0, t[j] + rng.uniform(0.01, 0.1))
            before = eval_at(ctx, t, 0.0).value[0]
            assert eval_at(ctx, bumped, 0.0).value[0] <= before + 1e-10

    def test_scale_relation_same_argmin_over_corners(self):
        # Per size, minimizing -||X_s^T y|| and -||X_s^T y||^2 agree.
        rng = np.random.default_rng(77)
        n, p = 30, 8
        X = center_columns(rng.standard_normal((n, p)))
        y = rng.standard_normal(n)
        best_lin = {}
        best_sq = {}
        for bits in itertools.product([0, 1], repeat=p):
            k = sum(bits)
            if k == 0:
                continue
            idx = np.flatnonzero(np.array(bits))
            norm = np.linalg.norm(X[:, idx].T @ y / n)
            if k not in best_lin or -norm < best_lin[k][0]:
                best_lin[k] = (-norm, bits)
            if k not in best_sq or -(norm**2) < best_sq[k][0]:
                best_sq[k] = (-(norm**2), bits)
        for k in range(1, p + 1):
            assert best_lin[k][1] == best_sq[k][1]


class TestLambdaMax:
    def test_pls1_sum_z_squared(self):
        ctx = make_context(np.eye(2), np.array([1.0, 2.0]), "pls1")
        assert lambda_max(ctx) == pytest.approx(1.25)

    @pytest.mark.parametrize("model", ["pls2", "pca"])
    def test_matches_top_eigenvalue(self, model):
        rng = np.random.default_rng(4)
        X = center_columns(rng.standard_normal((20, 5)))
        Y = center_columns(rng.standard_normal((20, 3)))
        if model == "pls2":
            ctx = make_context(X, Y, model)
            M = X.T @ Y / 20
            want = np.linalg.eigvalsh(M.T @ M)[-1]
        else:
            ctx = make_context(X, model="pca")
            want = np.linalg.eigvalsh(X.T @ X / 20)[-1]
        assert lambda_max(ctx) == pytest.approx(want, rel=1e-9)

    def test_nan_on_the_diagonal_is_not_a_value(self):
        # eigvalsh may return a finite top eigenvalue for this block (sqrt 2
        # with OpenBLAS); the context is refused before lambda_max or any
        # corner could score it.
        G = np.array([[np.nan, 1.0], [1.0, 2.0]])
        with pytest.raises(NonFiniteInputError, match="non-finite"):
            ObjectiveContext("pca", 2, 2, 0, G=G)
