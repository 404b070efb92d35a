import warnings

import numpy as np
import pytest

from subsetpath.errors import DimensionError, NonFiniteInputError
from subsetpath.path import Subset
from subsetpath.simulate import (
    SimConfig,
    default_c_vector,
    gen_multiresponse,
    gen_pca_cov,
    gen_univariate,
    generate,
    metrics,
    pca_cov_basis,
    pca_cov_matrix,
)


class TestMultiresponse:
    def test_default_design_shapes(self):
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", seed=0))
        assert inst.X.shape == (100, 15)
        assert inst.Y.shape == (100, 10)
        assert len(inst.truth["support"]) == 10

    def test_default_c_vector_pattern(self):
        c = default_c_vector(15, 5)
        np.testing.assert_allclose(
            c, [0, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1]
        )

    def test_noise_free_rank_one(self):
        inst = gen_multiresponse(
            SimConfig(scenario="multiresponse", sigma=0.0, seed=1)
        )
        assert np.linalg.matrix_rank(inst.X) == 1
        inactive = [j for j in range(15) if j not in inst.truth["support"]]
        assert np.all(inst.X[:, inactive] == 0.0)

    def test_seed_determinism(self):
        cfg = SimConfig(scenario="multiresponse", seed=7, holdout=10)
        a = gen_multiresponse(cfg)
        b = gen_multiresponse(cfg)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)
        np.testing.assert_array_equal(a.X_test, b.X_test)

    def test_holdout_split(self):
        inst = gen_multiresponse(SimConfig(scenario="multiresponse", seed=2, holdout=50))
        assert inst.X.shape[0] == 100 and inst.X_test.shape[0] == 50
        assert inst.Y_test.shape == (50, 10)

    def test_two_component_design(self):
        inst = gen_multiresponse(SimConfig(scenario="two-component", sigma=1.5, seed=3))
        assert inst.X.shape == (100, 30)
        assert inst.truth["component_supports"] == [list(range(10)), list(range(10, 20))]
        assert inst.truth["support"] == list(range(20))


class TestUnivariate:
    def test_block_boundaries(self):
        inst = gen_univariate(SimConfig(scenario="univariate", n=40, p=80, gamma=40,
                                        snr=10.0, seed=0))
        assert inst.truth["blocks"] == [0, 20, 40, 80]
        assert inst.truth["support"] == list(range(40))

    def test_noise_free_signal_in_hidden_span(self):
        inst = gen_univariate(SimConfig(scenario="univariate", n=50, p=20, gamma=10,
                                        snr=np.inf, seed=1))
        assert inst.truth["sigma_f"] == 0.0

    def test_odd_block_rejected(self):
        with pytest.raises(DimensionError):
            gen_univariate(SimConfig(scenario="univariate", p=20, gamma=11, seed=0))

    def test_snr_matched_on_drawn_signal(self):
        inst = gen_univariate(SimConfig(scenario="univariate", n=4000, p=20, gamma=10,
                                        snr=5.0, seed=2))
        hidden_var = 3.0**2 * 25 + 4.0**2 * 25  # population var of 3H1 - 4H2
        sigma_f = inst.truth["sigma_f"]
        # matched against the empirical signal variance, so only roughly
        # equal to the population value
        assert sigma_f**2 == pytest.approx(hidden_var / 5.0, rel=0.1)

    def test_seed_determinism(self):
        cfg = SimConfig(scenario="univariate", n=30, p=20, gamma=10, snr=3.0, seed=5)
        np.testing.assert_array_equal(gen_univariate(cfg).X, gen_univariate(cfg).X)


class TestPcaCov:
    def test_printed_vectors_orthogonal(self):
        u1, u2 = pca_cov_basis()
        assert float(u1 @ u2) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(u1[:4], 0.422, atol=5e-4)
        np.testing.assert_allclose(u2[8:], [-0.147, 0.147], atol=5e-4)

    def test_population_spectrum(self):
        Sigma = pca_cov_matrix()
        w = np.sort(np.linalg.eigvalsh(Sigma))[::-1]
        np.testing.assert_allclose(
            w, [200, 100, 50, 50, 6, 5, 4, 3, 2, 1], rtol=1e-10
        )
        u1, u2 = pca_cov_basis()
        np.testing.assert_allclose(Sigma @ u1, 200 * u1, atol=1e-9)
        np.testing.assert_allclose(Sigma @ u2, 100 * u2, atol=1e-9)

    def test_top_two_explain_about_seventy_percent(self):
        w = np.array([200, 100, 50, 50, 6, 5, 4, 3, 2, 1], dtype=float)
        assert (w[0] + w[1]) / w.sum() == pytest.approx(0.7126, abs=1e-3)

    def test_sample_covariance_monte_carlo(self):
        inst = gen_pca_cov(SimConfig(scenario="pca-cov", n=1_000_000, p=10, seed=0))
        S = inst.X.T @ inst.X / inst.X.shape[0]
        Sigma = pca_cov_matrix()
        assert np.max(np.abs(S - Sigma)) <= 0.01 * np.max(np.abs(Sigma))

    def test_supports(self):
        inst = gen_pca_cov(SimConfig(scenario="pca-cov", n=50, p=10, seed=1))
        assert inst.truth["component_supports"] == [[0, 1, 2, 3, 8, 9], [4, 5, 6, 7, 8, 9]]
        assert inst.truth["support"] == list(range(10))

    def test_wrong_p_rejected(self):
        with pytest.raises(DimensionError):
            gen_pca_cov(SimConfig(scenario="pca-cov", p=9, gamma=0, seed=0))


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n": 0},
        {"n": 1},             # one row cannot be centered
        {"p": 0, "gamma": 0},
        {"q": 0},
        {"holdout": -3},
    ])
    def test_unusable_sizes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(scenario="multiresponse", **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"sigma": float("nan")},
        {"sigma": float("inf")},
        {"sigma": -1.0},
        {"snr": float("nan")},
        {"snr": 0.0},
    ])
    def test_unusable_noise_rejected(self, kwargs):
        with pytest.raises(ValueError, match="sigma|snr"):
            SimConfig(scenario="univariate", **kwargs)

    def test_smallest_sizes_accepted(self):
        inst = generate(SimConfig(scenario="multiresponse", n=2, p=1, q=1, gamma=0,
                                  holdout=0))
        assert inst.X.shape == (2, 1) and inst.Y.shape == (2, 1)


class TestGenerateDispatch:
    @pytest.mark.parametrize(
        "scenario,kwargs",
        [
            ("multiresponse", {}),
            ("two-component", {}),
            ("univariate", {"p": 20, "gamma": 10}),
            ("pca-cov", {"p": 10, "gamma": 0}),
        ],
    )
    def test_pure_function_of_config(self, scenario, kwargs):
        cfg = SimConfig(scenario=scenario, seed=11, **kwargs)
        a, b = generate(cfg), generate(cfg)
        np.testing.assert_array_equal(a.X, b.X)


class TestMetrics:
    def test_perfect_recovery(self):
        s = Subset.from_bits((1, 0, 1, 0))
        report = metrics(s, s)
        assert report.sensitivity == 1.0
        assert report.specificity == 1.0
        assert report.f1 == 1.0

    def test_hand_count(self):
        report = metrics(Subset.from_bits((1, 0, 1, 0)), Subset.from_bits((1, 1, 0, 0)))
        assert report.sensitivity == 0.5
        assert report.specificity == 0.5
        assert report.f1 == 0.5

    def test_msep_zero_for_equal_matrices(self):
        Y = np.arange(12.0).reshape(4, 3)
        report = metrics(Subset.from_bits((1,)), Subset.from_bits((1,)), Y, Y.copy())
        assert report.msep == 0.0

    def test_empty_true_support_sensitivity_absent(self):
        report = metrics(Subset.from_bits((1, 0)), Subset.from_bits((0, 0)))
        assert report.sensitivity is None

    def test_f1_between_precision_and_sensitivity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = tuple(int(b) for b in rng.integers(0, 2, size=10))
            b = tuple(int(b) for b in rng.integers(0, 2, size=10))
            if sum(b) == 0 or sum(a) == 0:
                continue
            rep = metrics(Subset.from_bits(a), Subset.from_bits(b))
            tp = sum(x and y for x, y in zip(a, b))
            if tp == 0:
                continue
            precision = tp / sum(a)
            lo, hi = sorted([precision, rep.sensitivity])
            assert lo - 1e-12 <= rep.f1 <= hi + 1e-12

    @pytest.mark.parametrize("value", [1e200, np.nan], ids=["overflow", "nan"])
    def test_non_finite_msep_rejected(self, value):
        Y_hat = np.full((3, 2), value)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteInputError, match="msep"):
                metrics(Subset.from_bits((1,)), Subset.from_bits((1,)), Y_hat, np.zeros((3, 2)))

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
    def test_empty_pair_rejected_by_shape(self, shape):
        # Refused before np.mean warns about an empty slice.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DimensionError, match="at least one prediction"):
                metrics(Subset.from_bits((1,)), Subset.from_bits((1,)),
                        np.zeros(shape), np.zeros(shape))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            metrics(Subset.from_bits((1, 0)), Subset.from_bits((1, 0, 0)))
        with pytest.raises(DimensionError):
            metrics(Subset.from_bits((1,)), Subset.from_bits((1,)),
                    np.zeros((2, 2)), np.zeros((3, 2)))
