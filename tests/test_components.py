import numpy as np
import pytest

from subsetpath import components
from subsetpath.components import (
    PickStrategy,
    _build_component,
    _cv_scores,
    _fold_indices,
    _refit_fixed,
    _splits,
    adjusted_weights,
    deflate,
    fit,
    loading_from_subset,
    model_to_dict,
    pev_cpev,
    predict,
    q2,
    regression_coefficients,
)
from subsetpath.errors import (
    DegenerateLoadingError,
    DimensionError,
    ParseError,
    SingularMatrixError,
)
from subsetpath.linalg import center_columns
from subsetpath.path import GridConfig, Subset, dynamic_grid
from subsetpath.simulate import SimConfig, gen_multiresponse

from contexts import solver_config


def full_subset(p):
    return Subset.from_bits((1,) * p)


def regression_comps(X, Y, model, supports):
    comps = []
    Xh, Yh = X, Y
    for h, s in enumerate(supports, start=1):
        comp = _build_component(Xh, Yh, model, s, h, "regression")
        Xh, Yh = deflate(Xh, Yh, comp, "regression", model)
        comps.append(comp)
    return comps, Xh, Yh


class TestLoadingFromSubset:
    def test_pls1_identity_design(self):
        u, v, delta = loading_from_subset(
            np.eye(2), np.array([[1.0], [2.0]]), "pls1", full_subset(2)
        )
        np.testing.assert_allclose(u, np.array([1.0, 2.0]) / np.sqrt(5.0))
        assert delta == pytest.approx(np.sqrt(5.0) / 2.0)

    def test_single_column(self):
        u, _, _ = loading_from_subset(
            np.eye(2), np.array([[1.0], [2.0]]), "pls1", Subset.from_bits((0, 1))
        )
        np.testing.assert_allclose(u, [0.0, 1.0])

    def test_pls2_matches_dense_svd(self):
        rng = np.random.default_rng(0)
        n, p, q = 30, 6, 4
        X = center_columns(rng.standard_normal((n, p)))
        Y = center_columns(rng.standard_normal((n, q)))
        u, v, delta = loading_from_subset(X, Y, "pls2", full_subset(p))
        M = X.T @ Y / n
        U, S, Vt = np.linalg.svd(M)
        assert delta == pytest.approx(S[0], rel=1e-8)
        sign = np.sign(u @ U[:, 0])
        np.testing.assert_allclose(u, sign * U[:, 0], atol=1e-8)
        np.testing.assert_allclose(v, sign * Vt[0], atol=1e-8)

    def test_pca_top_eigenvector(self):
        rng = np.random.default_rng(1)
        X = center_columns(rng.standard_normal((40, 5)))
        u, v, delta = loading_from_subset(X, None, "pca", full_subset(5))
        w, V = np.linalg.eigh(X.T @ X / 40)
        assert v is None
        assert delta == pytest.approx(w[-1], rel=1e-9)
        assert abs(u @ V[:, -1]) == pytest.approx(1.0, abs=1e-8)

    def test_off_support_entries_are_zero(self):
        rng = np.random.default_rng(2)
        X = center_columns(rng.standard_normal((20, 6)))
        Y = center_columns(rng.standard_normal((20, 3)))
        s = Subset.from_bits((1, 0, 1, 0, 0, 1))
        u, _, _ = loading_from_subset(X, Y, "pls2", s)
        assert np.all(u[[1, 3, 4]] == 0.0)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-10)

    def test_zero_block_rejected(self):
        X = np.vstack([np.eye(2), -np.eye(2)])
        y = np.array([[1.0], [1.0], [1.0], [1.0]])  # orthogonal to both columns
        with pytest.raises(DegenerateLoadingError):
            loading_from_subset(X, y, "pls1", full_subset(2))


class TestDeflate:
    def test_identity_design(self):
        comp = _build_component(np.eye(2), None, "pca", Subset.from_bits((1, 0)), 1, None)
        X1, _ = deflate(np.eye(2), None, comp, None, "pca")
        np.testing.assert_allclose(X1, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_orthogonality_identity(self):
        rng = np.random.default_rng(3)
        X = center_columns(rng.standard_normal((25, 6)))
        Y = center_columns(rng.standard_normal((25, 3)))
        comp = _build_component(X, Y, "pls2", full_subset(6), 1, "regression")
        X1, Y1 = deflate(X, Y, comp, "regression", "pls2")
        assert np.max(np.abs(X1.T @ comp.xi)) <= 1e-10 * np.max(np.abs(X))

    def test_rank_one_exhausted(self):
        a = np.array([1.0, -2.0, 0.5])
        b = np.array([0.3, 0.4, -0.2, 0.6])
        X = np.outer(a, b)
        comp = _build_component(X, None, "pca", full_subset(4), 1, None)
        X1, _ = deflate(X, None, comp, None, "pca")
        assert np.max(np.abs(X1)) <= 1e-10

    def test_canonical_mode_deflates_with_psi(self):
        rng = np.random.default_rng(4)
        X = center_columns(rng.standard_normal((25, 5)))
        Y = center_columns(rng.standard_normal((25, 3)))
        comp = _build_component(X, Y, "pls2", full_subset(5), 1, "canonical")
        assert comp.e is not None and comp.d is None
        _, Y1 = deflate(X, Y, comp, "canonical", "pls2")
        want = Y - np.outer(Y @ comp.v, comp.e)
        np.testing.assert_allclose(Y1, want)

    @pytest.mark.parametrize("model, mode", [("pca", None), ("pls2", "regression"),
                                             ("pls2", "canonical")])
    def test_held_out_rows_deflate_like_a_stack(self, model, mode):
        rng = np.random.default_rng(5)
        X, X_new = rng.standard_normal((25, 5)), rng.standard_normal((7, 5))
        Y, Y_new = rng.standard_normal((25, 3)), rng.standard_normal((7, 3))
        if model == "pca":
            Y = Y_new = None
        comp = _build_component(X, Y, model, full_subset(5), 1, mode)
        X1, Y1 = deflate(X, Y, comp, mode, model)
        X1_new, Y1_new = deflate(X_new, Y_new, comp, mode, model)
        stacked = deflate(np.vstack([X, X_new]),
                          None if Y is None else np.vstack([Y, Y_new]), comp, mode, model)
        np.testing.assert_allclose(stacked[0], np.vstack([X1, X1_new]), rtol=0, atol=1e-12)
        if model != "pca":
            np.testing.assert_allclose(stacked[1], np.vstack([Y1, Y1_new]),
                                       rtol=0, atol=1e-12)
        # The training block is the component's own deflation.
        assert np.max(np.abs(X1.T @ comp.xi)) <= 1e-10


class TestAdjustedWeights:
    def test_single_component_weight_is_loading(self):
        rng = np.random.default_rng(6)
        X = center_columns(rng.standard_normal((20, 4)))
        comp = _build_component(X, None, "pca", full_subset(4), 1, None)
        W = adjusted_weights(X, [comp])
        np.testing.assert_allclose(W[:, 0], comp.u)

    def test_orthogonal_design_second_weight_unchanged(self):
        # Orthonormal columns and disjoint supports give c_1^T u_2 = 0.
        X = np.eye(4)
        c1 = _build_component(X, None, "pca", Subset.from_bits((1, 0, 0, 0)), 1, None)
        X1, _ = deflate(X, None, c1, None, "pca")
        c2 = _build_component(X1, None, "pca", Subset.from_bits((0, 1, 0, 0)), 2, None)
        assert float(c1.c @ c2.u) == pytest.approx(0.0, abs=1e-12)
        W = adjusted_weights(X, [c1, c2])
        np.testing.assert_allclose(W[:, 1], c2.u, atol=1e-12)

    def test_product_formula_matches_linear_solve(self):
        rng = np.random.default_rng(7)
        X = center_columns(rng.standard_normal((30, 7)))
        Y = center_columns(rng.standard_normal((30, 4)))
        comps, _, _ = regression_comps(X, Y, "pls2", [full_subset(7)] * 3)
        W = adjusted_weights(X, comps)
        U = np.column_stack([c.u for c in comps])
        C = np.column_stack([c.c for c in comps])
        np.testing.assert_allclose(W, U @ np.linalg.inv(C.T @ U), atol=1e-8)

    def test_score_identity_on_original_data(self):
        rng = np.random.default_rng(8)
        X = center_columns(rng.standard_normal((30, 6)))
        Y = center_columns(rng.standard_normal((30, 2)))
        supports = [Subset.from_bits((1, 1, 0, 1, 0, 0)), Subset.from_bits((0, 0, 1, 0, 1, 1)),
                    full_subset(6)]
        comps, _, _ = regression_comps(X, Y, "pls2", supports)
        W = adjusted_weights(X, comps)
        for h, comp in enumerate(comps):
            np.testing.assert_allclose(X @ W[:, h], comp.xi, atol=1e-8)

    def test_singular_ctu_detected(self):
        rng = np.random.default_rng(9)
        X = center_columns(rng.standard_normal((10, 3)))
        Y = center_columns(rng.standard_normal((10, 2)))
        (comp,), _, _ = regression_comps(X, Y, "pls2", [full_subset(3)])
        with pytest.raises(SingularMatrixError):
            regression_coefficients([comp, comp])

    def test_near_singular_ctu_breaks_weight_identity(self):
        # A repeated component gives C^T U = [[1, 1], [1, 1]] up to rounding:
        # w_2 = (I - u c^T) u is rounding noise, so X w_2 misses xi_2.
        rng = np.random.default_rng(9)
        X = center_columns(rng.standard_normal((10, 3)))
        Y = center_columns(rng.standard_normal((10, 2)))
        (comp,), _, _ = regression_comps(X, Y, "pls2", [full_subset(3)])
        U = np.column_stack([comp.u, comp.u])
        C = np.column_stack([comp.c, comp.c])
        assert np.linalg.cond(C.T @ U) > 1e12
        with pytest.raises(SingularMatrixError, match="adjusted weight 2 violates"):
            adjusted_weights(X, [comp, comp])


class TestRegressionCoefficients:
    def test_single_component_prediction_identity(self):
        rng = np.random.default_rng(10)
        X = center_columns(rng.standard_normal((25, 5)))
        y = center_columns(rng.standard_normal((25, 1)))
        comps, _, _ = regression_comps(X, y, "pls1", [full_subset(5)])
        beta = regression_coefficients(comps)
        want = np.outer(comps[0].xi, comps[0].d)
        np.testing.assert_allclose(X @ beta, want, atol=1e-10)

    def test_beta_equals_score_space_prediction(self):
        rng = np.random.default_rng(11)
        X = center_columns(rng.standard_normal((40, 8)))
        Y = center_columns(rng.standard_normal((40, 5)))
        comps, _, _ = regression_comps(
            X, Y, "pls2",
            [Subset.from_bits((1, 1, 1, 0, 0, 0, 0, 0)),
             Subset.from_bits((0, 0, 0, 1, 1, 1, 0, 0)), full_subset(8)],
        )
        beta = regression_coefficients(comps)
        score_pred = sum(np.outer(c.xi, c.d) for c in comps)
        np.testing.assert_allclose(X @ beta, score_pred, atol=1e-8)

    def test_noise_free_rank_one_data(self):
        rng = np.random.default_rng(12)
        t_lat = rng.uniform(-1, 3, size=30)
        c_vec = rng.standard_normal(4)
        d_vec = rng.uniform(0.5, 2.0, size=3)
        X = center_columns(np.outer(t_lat, c_vec))
        Y = center_columns(np.outer(t_lat, d_vec))
        comps, _, _ = regression_comps(X, Y, "pls2", [full_subset(4)])
        beta = regression_coefficients(comps)
        assert np.max(np.abs(Y - X @ beta)) <= 1e-8 * np.max(np.abs(Y))

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        X = center_columns(rng.standard_normal((30, 6)))
        Y = center_columns(rng.standard_normal((30, 2)))
        comps, _, _ = regression_comps(X, Y, "pls2", [full_subset(6)] * 2)
        beta = regression_coefficients(comps)
        perm = rng.permutation(6)
        comps_p, _, _ = regression_comps(X[:, perm], Y, "pls2", [full_subset(6)] * 2)
        beta_p = regression_coefficients(comps_p)
        np.testing.assert_allclose(beta_p, beta[perm], atol=1e-8)


class TestPevCpev:
    def test_single_active_column(self):
        X = np.zeros((10, 3))
        X[:, 1] = np.linspace(-1, 1, 10)
        W = np.zeros((3, 1))
        W[1, 0] = 1.0
        pev, cpev = pev_cpev(X, W)
        assert cpev[0] == pytest.approx(1.0)

    def test_full_pca_explains_everything(self):
        rng = np.random.default_rng(14)
        X = center_columns(rng.standard_normal((20, 4)))
        comps = []
        Xh = X
        for h in range(1, 5):
            comp = _build_component(Xh, None, "pca", full_subset(4), h, None)
            Xh, _ = deflate(Xh, None, comp, None, "pca")
            comps.append(comp)
        W = adjusted_weights(X, comps)
        _, cpev = pev_cpev(X, W)
        assert cpev[-1] == pytest.approx(1.0, abs=1e-10)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(15)
        X = center_columns(rng.standard_normal((30, 6)))
        Y = center_columns(rng.standard_normal((30, 3)))
        comps, _, _ = regression_comps(X, Y, "pls2", [full_subset(6)] * 3)
        W = adjusted_weights(X, comps)
        pev, cpev = pev_cpev(X, W)
        assert np.all(np.diff(cpev) >= -1e-12)
        assert np.all(cpev <= 1.0 + 1e-12)
        np.testing.assert_allclose(np.cumsum(pev), cpev, atol=1e-12)


class TestQ2:
    def test_folds_above_n_raise_parse_error(self):
        rng = np.random.default_rng(5)
        X, Y = rng.standard_normal((10, 3)), rng.standard_normal((10, 2))
        with pytest.raises(ParseError, match="folds=11 out of range 2..10"):
            q2(X, Y, folds=11)

    def test_negative_seed_raises_parse_error(self):
        rng = np.random.default_rng(5)
        X, Y = rng.standard_normal((10, 3)), rng.standard_normal((10, 2))
        with pytest.raises(ParseError, match="seed=-1 is negative"):
            q2(X, Y, seed=-1)

    def test_noise_free_single_component(self):
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", sigma=0.0, seed=3))
        report = q2(inst.X, inst.Y, model="pls2", H=1, folds=5, seed=0)
        assert report.total[0] >= 0.95

    def test_leave_one_out_matches_brute_force(self):
        rng = np.random.default_rng(16)
        n, p = 12, 3
        X = rng.standard_normal((n, p))
        y = (X @ np.array([1.0, -0.5, 0.2]) + 0.1 * rng.standard_normal(n))[:, None]
        report = q2(X, y, model="pls1", H=1, folds=n, seed=0)

        press = 0.0
        for i in range(n):
            tr = np.setdiff1d(np.arange(n), [i])
            xm, ym = X[tr].mean(axis=0), y[tr].mean(axis=0)
            Xc, yc = X[tr] - xm, y[tr] - ym
            z = Xc.T @ yc[:, 0] / len(tr)
            u = z / np.linalg.norm(z)
            xi = Xc @ u
            d = float(yc[:, 0] @ xi / (xi @ xi))
            pred = float((X[i] - xm) @ u * d) + float(ym[0])
            press += (y[i, 0] - pred) ** 2
        yc_all = y - y.mean(axis=0)
        want = 1.0 - press / float(np.sum(yc_all**2))
        assert report.total[0] == pytest.approx(want, rel=1e-10)

    def test_pure_noise_response_has_low_q2(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((60, 8))
        Y = rng.standard_normal((60, 4))
        report = q2(X, Y, model="pls2", H=1, folds=5, seed=0)
        assert report.total[0] < 0.5  # loose sanity bound; stochastic

    @pytest.mark.parametrize("value, varying", [(1.0, 0), (0.1, 0), (0.1, 2)],
                             ids=["all-1.0", "all-0.1", "one-0.1-among-varying"])
    def test_constant_response_fold_rejected(self, value, varying):
        # The mean of a constant 0.1 column is not exactly 0.1, so its
        # standard deviation is not 0; max == min is exact.
        rng = np.random.default_rng(18)
        X = rng.standard_normal((10, 3))
        Y = np.full((10, 2 + varying), value)
        Y[:, 2:] = rng.standard_normal((10, varying))
        with pytest.raises(DegenerateLoadingError):
            q2(X, Y, model="pls2", H=1, folds=5, seed=0)

    def test_training_fold_of_at_most_H_rows_rejected(self):
        # Two folds of 4 rows leave training folds of 2 rows, too few to
        # refit 2 components; 3 rows carry them.
        rng = np.random.default_rng(20)
        X, Y = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
        with pytest.raises(DegenerateLoadingError, match="too few for 2 component"):
            q2(X[:4], Y[:4], model="pls2", H=2, folds=2, seed=0)
        assert q2(X, Y, model="pls2", H=2, folds=2, seed=0).total.shape == (2,)

    def test_per_response_shape(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((30, 5))
        Y = rng.standard_normal((30, 3))
        report = q2(X, Y, model="pls2", H=2, folds=4, seed=1)
        assert report.per_response.shape == (2, 3)
        assert report.total.shape == (2,)


def quick_grid(p):
    return GridConfig(K=p, L=12)


@pytest.fixture
def quick_solver(monkeypatch):
    solver_config(monkeypatch, MAX_ITER=400)


class TestFit:
    def test_fixed_k_full_reproduces_plain_pca(self, quick_solver):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((40, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2])
        result = fit(
            X, model="pca", H=2, strategy=PickStrategy.fixed_k(5),
            grid_cfg=quick_grid(5),
        )
        Xc = X - X.mean(axis=0)
        w, V = np.linalg.eigh(Xc.T @ Xc / 40)
        assert abs(result.components[0].u @ V[:, -1]) == pytest.approx(1.0, abs=1e-6)
        assert result.components[0].delta == pytest.approx(w[-1], rel=1e-8)

    def test_full_component_count_reaches_unit_cpev(self, quick_solver):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((25, 4))
        result = fit(
            X, model="pca", H=4, strategy=PickStrategy.fixed_k(4),
            grid_cfg=quick_grid(4),
        )
        assert result.cpev[-1] == pytest.approx(1.0, abs=1e-10)

    def test_predict_on_training_data(self, quick_solver):
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", sigma=1.0, seed=9))
        result = fit(
            inst.X, inst.Y, model="pls2", H=1, strategy=PickStrategy.fixed_k(15),
            grid_cfg=quick_grid(15),
        )
        Xc = inst.X - inst.X.mean(axis=0)
        want = Xc @ result.beta + inst.Y.mean(axis=0)
        np.testing.assert_allclose(predict(result, inst.X), want, atol=1e-10)

    def test_predict_at_column_means_returns_response_means(self, quick_solver):
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", sigma=1.0, seed=10))
        result = fit(
            inst.X, inst.Y, model="pls2", H=1, strategy=PickStrategy.fixed_k(5),
            grid_cfg=quick_grid(15),
        )
        pred = predict(result, result.x_means[None, :])
        np.testing.assert_allclose(pred[0], result.y_means, atol=1e-10)

    def test_predict_zero_on_centered_fit(self, quick_solver):
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", sigma=1.0, seed=11))
        Xc = center_columns(inst.X)
        Yc = inst.Y - inst.Y.mean(axis=0)
        result = fit(
            Xc, Yc, model="pls2", H=1, strategy=PickStrategy.fixed_k(5),
            grid_cfg=quick_grid(15), center=False,
        )
        np.testing.assert_allclose(
            predict(result, np.zeros((1, 15))), np.zeros((1, 10)), atol=1e-12
        )

    def test_predict_column_mismatch(self, quick_solver):
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", sigma=1.0, seed=12))
        result = fit(
            inst.X, inst.Y, model="pls2", H=1, strategy=PickStrategy.fixed_k(5),
            grid_cfg=quick_grid(15),
        )
        with pytest.raises(DimensionError):
            predict(result, np.zeros((2, 7)))

    def test_fixed_k_above_grid_k_rejected(self, quick_solver):
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", sigma=1.0, seed=12))
        with pytest.raises(ValueError, match="exceeds the largest subset size K=12"):
            fit(inst.X, inst.Y, model="pls2", H=1, strategy=PickStrategy.fixed_k(13),
                grid_cfg=GridConfig(K=12, L=10))

    def test_deflation_orthogonality_across_fit(self, quick_solver):
        inst = gen_multiresponse(SimConfig(scenario="two-component", sigma=1.5, seed=13))
        result = fit(
            inst.X, inst.Y, model="pls2", H=2, strategy=PickStrategy.fixed_k(10),
            grid_cfg=GridConfig(K=12, L=10),
        )
        # the product-formula weights equal the closed form U (C^T U)^-1
        U = np.column_stack([c.u for c in result.components])
        C = np.column_stack([c.c for c in result.components])
        W_solve = U @ np.linalg.inv(C.T @ U)
        assert np.max(np.abs(result.W - W_solve)) <= 1e-8 * max(1.0, np.max(np.abs(result.W)))
        # scores are mutually orthogonal
        TtT = result.T.T @ result.T
        off = TtT - np.diag(np.diag(TtT))
        assert np.max(np.abs(off)) <= 1e-6 * np.max(np.abs(TtT))

    def test_cpev_drop_strategy_respects_floor(self, quick_solver):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((60, 8)) @ np.diag([4, 3, 2, 1, 0.5, 0.4, 0.3, 0.2])
        result = fit(
            X, model="pca", H=1, strategy=PickStrategy.cpev_drop(0.10),
            grid_cfg=quick_grid(8),
        )
        k_chosen = result.components[0].subset.size
        # rebuild the path and the candidate CPEV curve the strategy saw
        from subsetpath.components import _build_component as bc
        Xc = X - X.mean(axis=0)
        path = dynamic_grid(Xc, None, "pca", quick_grid(8))
        cpevs = {}
        for k in range(1, 9):
            trial = bc(Xc, None, "pca", path.buckets[k].best, 1, None)
            W = adjusted_weights(Xc, [trial])
            cpevs[k] = pev_cpev(Xc, W)[1][-1]
        floor = 0.9 * cpevs[8]
        assert cpevs[k_chosen] >= floor
        assert all(cpevs[k] < floor for k in range(1, k_chosen))

    def test_min_msep_with_test_set_two_components(self, quick_solver):
        inst = gen_multiresponse(
            SimConfig(scenario="two-component", sigma=1.5, seed=14, holdout=50)
        )
        msep = {}
        for H in (1, 2):
            result = fit(
                inst.X, inst.Y, model="pls2", H=H, strategy=PickStrategy.min_msep(),
                grid_cfg=GridConfig(K=20, L=16),
                test=(inst.X_test, inst.Y_test),
            )
            pred = predict(result, inst.X_test)
            msep[H] = float(np.mean((pred - inst.Y_test) ** 2))
        assert msep[2] < msep[1]

    def test_min_msep_cv_without_test_set(self, quick_solver):
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", sigma=2.0, seed=15))
        result = fit(
            inst.X, inst.Y, model="pls2", H=1,
            strategy=PickStrategy.min_msep(folds=4),
            grid_cfg=GridConfig(K=15, L=10),
        )
        assert 1 <= result.components[0].subset.size <= 15

    def test_max_cor_canonical(self, quick_solver):
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", sigma=2.0, seed=16))
        result = fit(
            inst.X, inst.Y, model="pls2", H=1, mode="canonical",
            strategy=PickStrategy.max_cor(folds=4),
            grid_cfg=GridConfig(K=15, L=10),
        )
        assert result.beta is None
        assert result.components[0].e is not None

    def test_scores_equal_x_times_weights(self, quick_solver):
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", sigma=2.0, seed=18))
        result = fit(
            inst.X, inst.Y, model="pls2", H=3, strategy=PickStrategy.fixed_k(7),
            grid_cfg=quick_grid(15),
        )
        Xc = inst.X - inst.X.mean(axis=0)
        assert result.W.shape == (15, 3) and result.T.shape == (100, 3)
        np.testing.assert_allclose(result.T, Xc @ result.W, atol=1e-8)

    def test_model_json_schema(self, quick_solver):
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", sigma=1.0, seed=17))
        result = fit(
            inst.X, inst.Y, model="pls2", H=2, strategy=PickStrategy.fixed_k(6),
            grid_cfg=quick_grid(15),
        )
        doc = model_to_dict(result)
        assert set(doc) == {
            "model", "mode", "H", "column_means", "components", "beta", "pev", "cpev",
        }
        assert len(doc["components"]) == 2
        comp = doc["components"][0]
        assert set(comp) == {"h", "k", "support", "u", "v", "w", "objective"}
        assert comp["k"] == 6 and len(comp["support"]) == 6
        assert len(doc["beta"]) == 15 and len(doc["beta"][0]) == 10


def reference_cv_scores(kind, path, supports_prev, Xraw, Yraw, mode, folds, seed):
    """The v-fold protocol refitted from scratch for every (k, fold) pair,
    with per-k sums in fold order."""
    n = Xraw.shape[0]
    fold_idx = _fold_indices(n, folds, np.random.default_rng(seed))
    scores = []
    for k in range(1, path.K + 1):
        supports = supports_prev + [path.buckets[k].best]
        err, count, cors = 0.0, 0, []
        for val in fold_idx:
            tr = np.setdiff1d(np.arange(n), val)
            xm, ym = Xraw[tr].mean(axis=0), Yraw[tr].mean(axis=0)
            comps = _refit_fixed(Xraw[tr] - xm, Yraw[tr] - ym, "pls2", supports, mode)
            if kind == "min-msep":
                pred = (Xraw[val] - xm) @ regression_coefficients(comps) + ym
                err += float(np.sum((pred - Yraw[val]) ** 2))
                count += pred.size
                continue
            Xv, Yv = Xraw[val] - xm, Yraw[val] - ym
            for comp in comps[:-1]:
                xi_v = Xv @ comp.u
                if mode == "regression":
                    Yv = Yv - np.outer(xi_v, comp.d)
                else:
                    Yv = Yv - np.outer(Yv @ comp.v, comp.e)
                Xv = Xv - np.outer(xi_v, comp.c)
            xi_v, psi_v = Xv @ comps[-1].u, Yv @ comps[-1].v
            if float(np.std(xi_v)) > 0.0 and float(np.std(psi_v)) > 0.0:
                cors.append(abs(float(np.corrcoef(xi_v, psi_v)[0, 1])))
        if kind == "min-msep":
            scores.append(err / count)
        else:
            scores.append(np.mean(cors) if cors else -np.inf)
    return np.array(scores)


class TestCrossValidatedPick:
    @pytest.mark.parametrize("kind, mode", [("min-msep", "regression"),
                                            ("max-cor", "canonical")])
    def test_two_components_match_per_fold_refits(self, kind, mode, quick_solver):
        # Picks fall inside 1..K here: (11, 6) for min-msep, (11, 2) for max-cor.
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", sigma=2.0, seed=23))
        strategy = PickStrategy(kind=kind, folds=4)
        result = fit(
            inst.X, inst.Y, model="pls2", H=2, mode=mode, strategy=strategy,
            grid_cfg=GridConfig(K=15, L=10),
        )
        Xh = inst.X - result.x_means
        Yh = inst.Y - result.y_means
        for h in (1, 2):
            prev = result.components[:h - 1]
            if prev:
                Xh, Yh = deflate(Xh, Yh, prev[-1], mode, "pls2")
            path = dynamic_grid(Xh, Yh, "pls2", GridConfig(K=15, L=10))
            want = reference_cv_scores(kind, path, [c.subset for c in prev],
                                       inst.X, inst.Y, mode, folds=4, seed=0)
            got = _cv_scores(kind, path, prev, _splits(inst.X, inst.Y, 4, 0), "pls2", mode)
            assert np.array_equal(got, want)
            k = int(np.argmin(want) if kind == "min-msep" else np.argmax(want)) + 1
            assert result.components[h - 1].subset == path.buckets[k].best


def reference_holdout_scores(path, comps, Xh, Yh, X_test, Y_test, x_means, y_means):
    """The holdout protocol as one loop over k on the fit's own deflated
    data and components."""
    scores = []
    for k in range(1, path.K + 1):
        last = _build_component(Xh, Yh, "pls2", path.buckets[k].best, len(comps) + 1,
                                "regression")
        pred = (X_test - x_means) @ regression_coefficients(comps + [last]) + y_means
        scores.append(float(np.mean((pred - Y_test) ** 2)))
    return np.array(scores)


class TestHoldoutPick:
    def test_two_components_match_the_holdout_loop(self, monkeypatch, quick_solver):
        calls = []

        def recording(kind, path, comps, splits, model, mode):
            scores = _cv_scores(kind, path, comps, splits, model, mode)
            calls.append((path, scores))
            return scores

        monkeypatch.setattr(components, "_cv_scores", recording)
        inst = gen_multiresponse(
            SimConfig(scenario="two-component", sigma=1.5, seed=14, holdout=50)
        )
        result = fit(
            inst.X, inst.Y, model="pls2", H=2, strategy=PickStrategy.min_msep(),
            grid_cfg=GridConfig(K=20, L=16),
            test=(inst.X_test, inst.Y_test),
        )
        assert len(calls) == 2
        Xh = inst.X - result.x_means
        Yh = inst.Y - result.y_means
        for h, (path, got) in enumerate(calls, start=1):
            prev = result.components[:h - 1]
            if prev:
                Xh, Yh = deflate(Xh, Yh, prev[-1], "regression", "pls2")
            want = reference_holdout_scores(path, prev, Xh, Yh, inst.X_test, inst.Y_test,
                                            result.x_means, result.y_means)
            assert np.array_equal(got, want)
            k = int(np.argmin(want)) + 1
            assert result.components[h - 1].subset == path.buckets[k].best

    def test_one_dimensional_test_response_is_a_column(self, quick_solver):
        # A 1-d holdout response is one column: broadcast against the
        # (m, 1) prediction it would score every pair of rows.
        inst = gen_multiresponse(
            SimConfig(scenario="multiresponse", sigma=3.0, seed=50, holdout=30)
        )
        ks = []
        for y_test in (inst.Y_test[:, 0], inst.Y_test[:, :1]):
            result = fit(
                inst.X, inst.Y[:, 0], model="pls1", H=1, strategy=PickStrategy.min_msep(),
                grid_cfg=GridConfig(K=15, L=12),
                test=(inst.X_test, y_test),
            )
            ks.append(result.components[0].subset.size)
        assert ks[0] == ks[1] == 13


class TestFitArguments:
    """fit checks its arguments with typed errors before any path is solved."""

    @pytest.fixture
    def data(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a path was solved before the arguments were checked")

        monkeypatch.setattr(components, "dynamic_grid", no_work)
        return gen_multiresponse(
            SimConfig(scenario="multiresponse", sigma=1.0, seed=12, holdout=20)
        )

    def fit_min_msep(self, inst, **kwargs):
        return fit(inst.X, inst.Y, model="pls2", H=1, strategy=PickStrategy.min_msep(),
                   grid_cfg=GridConfig(K=15, L=20), **kwargs)

    def test_right_test_pair_picks_the_full_set(self, quick_solver):
        inst = gen_multiresponse(
            SimConfig(scenario="multiresponse", sigma=1.0, seed=12, holdout=20)
        )
        result = self.fit_min_msep(inst, test=(inst.X_test, inst.Y_test))
        assert result.components[0].subset.size == 15

    def test_one_response_column_against_ten_rejected(self, data):
        # Broadcast against the (m, 10) prediction, it used to pick k = 2.
        with pytest.raises(DimensionError, match="columns"):
            self.fit_min_msep(data, test=(data.X_test, data.Y_test[:, :1]))

    def test_one_test_x_column_rejected(self, data):
        with pytest.raises(DimensionError, match="columns"):
            self.fit_min_msep(data, test=(data.X_test[:, :1], data.Y_test))

    def test_test_row_counts_must_agree(self, data):
        with pytest.raises(DimensionError, match="rows"):
            self.fit_min_msep(data, test=(data.X_test[:5], data.Y_test))

    def test_pca_given_a_response_rejected(self, data):
        with pytest.raises(DimensionError, match="pca takes no response"):
            fit(data.X, data.Y, model="pca", strategy=PickStrategy.fixed_k(3))

    def test_k_above_p_rejected(self, data):
        with pytest.raises(DimensionError, match="K=16 exceeds p=15"):
            fit(data.X, data.Y, strategy=PickStrategy.fixed_k(3),
                grid_cfg=GridConfig(K=16))

    @pytest.mark.parametrize("model, mode, strategy, test", [
        ("pls2", "canonical", PickStrategy.min_msep(), False),
        ("pca", "regression", PickStrategy.min_msep(), False),
        ("pca", "regression", PickStrategy.max_cor(), False),
        ("pls2", "regression", PickStrategy.fixed_k(16), False),  # above K = p = 15
        ("pca", "regression", PickStrategy.fixed_k(3), True),
        ("pls2", "canonical", PickStrategy.fixed_k(3), True),
        ("pls2", "regression", PickStrategy.min_msep(folds=1), False),
        ("pls2", "canonical", PickStrategy.max_cor(folds=101), False),  # n = 100
    ], ids=["min-msep-canonical", "min-msep-pca", "max-cor-pca", "fixed-k-above-K",
            "test-pca", "test-canonical", "folds-1", "folds-above-n"])
    def test_option_conflicts_raise_parse_error(self, data, model, mode, strategy, test):
        Y = None if model == "pca" else data.Y
        pair = (data.X_test, data.Y_test) if test else None
        with pytest.raises(ParseError):
            fit(data.X, Y, model=model, mode=mode, strategy=strategy, test=pair)

    @pytest.mark.parametrize("kwargs", [
        {"H": 0}, {"mode": "bogus"}, {"model": "bogus"}, {"seed": -1},
    ], ids=["H-0", "mode-bogus", "model-bogus", "seed-negative"])
    def test_bad_option_values_raise_parse_error(self, data, kwargs):
        args = {"model": "pls2", "strategy": PickStrategy.fixed_k(3), **kwargs}
        with pytest.raises(ParseError):
            fit(data.X, data.Y, **args)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("strategy,mode", [
        (PickStrategy.min_msep(folds=2), "regression"),
        (PickStrategy.max_cor(folds=2), "canonical"),
    ], ids=["min-msep", "max-cor"])
    def test_one_row_training_fold_refused(self, data, n, strategy, mode):
        # Two folds of n = 2 or 3 rows leave a training fold of one row, all
        # zeros once centered; fit refuses it before the first grid.
        with pytest.raises(DegenerateLoadingError, match="training fold of 1 row"):
            fit(data.X[:n], data.Y[:n], model="pls2", mode=mode, strategy=strategy)

    def test_folds_of_a_test_pick_are_not_read(self, quick_solver):
        # min-msep with a test pair scores no fold, so its folds are free.
        inst = gen_multiresponse(
            SimConfig(scenario="multiresponse", sigma=1.0, seed=12, holdout=20)
        )
        result = fit(inst.X, inst.Y, model="pls2", strategy=PickStrategy.min_msep(folds=500),
                     grid_cfg=GridConfig(K=15, L=8),
                     test=(inst.X_test, inst.Y_test))
        assert result.H == 1
