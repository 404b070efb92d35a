import warnings

import numpy as np
import pytest

from subsetpath.errors import DimensionError
from subsetpath import linalg
from subsetpath.linalg import DominantPair, _power_steps, center_columns, top_eigpair


class TestCenterColumns:
    def test_symmetric_two_point_column(self):
        out = center_columns(np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(out, [[-1.0], [1.0]])

    def test_already_centered_is_fixed_point(self):
        rng = np.random.default_rng(3)
        X = center_columns(rng.standard_normal((7, 4)))
        np.testing.assert_allclose(center_columns(X), X, atol=1e-12)

    def test_arithmetic_progression_columns(self):
        out = center_columns(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_allclose(out, [[-2.0, -2.0], [0.0, 0.0], [2.0, 2.0]])

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-5, 5, size=(23, 9))
        out = center_columns(X)
        bound = 1e-10 * X.shape[0] * np.max(np.abs(X))
        assert np.all(np.abs(out.sum(axis=0)) <= bound)
        assert out.shape == X.shape

    def test_single_row_rejected(self):
        with pytest.raises(DimensionError):
            center_columns(np.array([[1.0, 2.0]]))


def random_psd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T


def spiked_psd(n, seed):
    # Gram matrix with a clear top eigengap, so every route converges fast.
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)) / np.sqrt(n)
    u = rng.standard_normal(n)
    return B @ B.T + 4.0 * np.outer(u, u) / (u @ u)


def first(pair):
    # Row 0 of a stacked pair, as a pair of scalars and one vector.
    return DominantPair(float(pair.value[0]), pair.vector[0], int(pair.iterations[0]))


def power(A, v0=None):
    # The stacked warm route on a one-row stack of A, started from v0 (all
    # ones by default), whatever its size.
    v0 = np.ones(A.shape[0]) if v0 is None else np.asarray(v0, dtype=float)
    return first(_power_steps(A[None], v0[None]))


def near_tied(n, seed, gap=1e-6):
    # Top two eigenvalues 1 and 1 - gap in a random basis: power steps from
    # a start that mixes both cannot settle within POWER_STEP_CAP.
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    w = np.concatenate([[1.0, 1.0 - gap], np.linspace(0.5, 0.1, n - 2)])
    A = (Q * w) @ Q.T
    return (A + A.T) / 2.0, (Q[:, 0] + Q[:, 1]) / np.sqrt(2.0)


def dense(A):
    # The dense finish of the warm routes: eigh's top pair, sign as eigh
    # gives it.
    w, V = np.linalg.eigh(A)
    return w[-1], V[:, -1]


class TestPowerIteration:
    """The stacked power steps behind top_eigpair's warm large-matrix
    route, called directly."""

    def test_diagonal(self):
        pair = power(np.diag([2.0, 0.5]))
        assert pair.value == pytest.approx(2.0, rel=1e-10)
        np.testing.assert_allclose(np.abs(pair.vector), [1.0, 0.0], atol=1e-8)

    def test_degenerate_spectrum_identity(self):
        # Any unit vector is acceptable; only the value and residual count.
        pair = power(np.eye(3))
        assert pair.value == pytest.approx(1.0, rel=1e-10)
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_eigendecomposition(self):
        A = random_psd(6, seed=42)
        pair = power(A)
        top = np.linalg.eigvalsh(A)[-1]
        assert pair.value == pytest.approx(top, rel=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_is_max_rayleigh_quotient_up_to_8x8(self, n, seed):
        A = random_psd(n, seed=100 * n + seed)
        pair = power(A)
        top = np.linalg.eigvalsh(A)[-1]
        assert pair.value == pytest.approx(top, rel=1e-8)

    def test_unit_vector_and_residual_invariants(self):
        A = random_psd(5, seed=9)
        pair = power(A)
        assert pair.iterations < linalg.POWER_STEP_CAP  # settled, not finished
        assert abs(np.linalg.norm(pair.vector) - 1.0) <= 1e-12
        resid = np.max(np.abs(A @ pair.vector - pair.value * pair.vector))
        assert resid <= 1e-10 * max(1.0, pair.value)

    def test_sign_convention(self):
        # Warm vectors are not sign-normalized: a negated start gives the
        # negated vector, bit for bit, and the same value.
        A = random_psd(4, seed=5)
        pair, flipped = power(A), power(A, v0=-np.ones(4))
        assert flipped.value == pair.value
        np.testing.assert_array_equal(flipped.vector, -pair.vector)

    def test_warm_start_converges(self):
        A = random_psd(6, seed=12)
        base = power(A)
        warm = power(A, v0=base.vector)
        assert warm.value == pytest.approx(base.value, rel=1e-10)
        assert warm.iterations < base.iterations

    def test_capped_row_equals_the_dense_result(self):
        A, v0 = near_tied(12, seed=4)
        pair = power(A, v0)
        assert pair.iterations == linalg.POWER_STEP_CAP
        value, vector = dense(A)
        assert pair.value == value
        np.testing.assert_array_equal(pair.vector, vector)

    def test_zero_matrix_gives_zero_value(self):
        pair = power(np.zeros((3, 3)))
        assert pair.value == 0.0
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0)

    def test_start_orthogonal_to_dominant_space_recovers(self):
        # Start vector exactly in the nullspace of a rank-one matrix.
        pair = power(np.diag([1.0, 0.0]), v0=np.array([0.0, 1.0]))
        assert pair.value == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("A,v0", [
        (np.zeros((3, 3)), np.ones(3)),                 # zero matrix
        (np.diag([1.0, 0.0]), np.array([0.0, 1.0])),    # start in the nullspace
        (random_psd(4, seed=2), np.zeros(4)),           # zero start
    ])
    def test_zero_product_row_gets_the_dense_finish(self, A, v0):
        pair = power(A, v0)
        assert pair.iterations == 1
        value, vector = dense(A)
        assert pair.value == value
        np.testing.assert_array_equal(pair.vector, vector)

    def test_rows_equal_their_runs_alone_bit_for_bit(self):
        # A stack whose rows stop at different steps, by settling, by the
        # cap and by a zero product, gives each row what it gives alone.
        tied, v_tied = near_tied(12, seed=8)
        A = np.stack([spiked_psd(12, seed=0), tied, np.zeros((12, 12)),
                      spiked_psd(12, seed=3)])
        v0 = np.stack([np.ones(12), v_tied, np.ones(12), np.arange(12.0)])
        pair = _power_steps(A, v0)
        assert len(set(pair.iterations.tolist())) == 4
        for b in range(4):
            alone = first(_power_steps(A[b:b + 1], v0[b:b + 1]))
            assert pair.value[b] == alone.value
            assert pair.iterations[b] == alone.iterations
            np.testing.assert_array_equal(pair.vector[b], alone.vector)


CROSSOVER = linalg.EIGH_CROSSOVER


class TestTopEigpair:
    @pytest.mark.parametrize("n", sorted({1, 2, 10, CROSSOVER - 1, CROSSOVER,
                                          CROSSOVER + 1, 99, 100, 101, 150}))
    @pytest.mark.parametrize("warm", [False, True])
    def test_matches_eigvalsh_and_power_iteration(self, n, warm):
        A = spiked_psd(n, seed=n)
        w, V = np.linalg.eigh(A)
        ref = linalg._fix_sign(V[:, -1])
        if warm:
            rng = np.random.default_rng(n + 1)
            v0 = ref + 1e-3 * rng.standard_normal(n)
            pair = first(top_eigpair(A[None], v0=v0[None]))
        else:
            pair = top_eigpair(A)
        assert pair.value == pytest.approx(w[-1], rel=1e-10)
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pair.vector, ref, atol=1e-6)
        if warm:
            assert pair.iterations == 1 if n <= CROSSOVER else pair.iterations > 0
        else:
            assert pair.iterations == 0

    @pytest.mark.parametrize("n", [3, CROSSOVER + 1])
    def test_single_matrix_with_a_start_rejected(self, n):
        # A single matrix is solved cold; a warm start needs a stack.
        with pytest.raises(ValueError, match="single matrix is solved cold"):
            top_eigpair(spiked_psd(n, seed=n), v0=np.ones(n))

    @pytest.mark.parametrize("n,warm", [(3, False), (CROSSOVER + 1, True), (101, True)])
    def test_zero_matrix(self, n, warm):
        if warm:
            pair = first(top_eigpair(np.zeros((1, n, n)), v0=np.ones((1, n))))
        else:
            pair = top_eigpair(np.zeros((n, n)))
        assert pair.value == 0.0
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0)

    @pytest.mark.parametrize("n,warm", [(3, False), (3, True), (CROSSOVER + 1, True),
                                        (101, True)])
    def test_non_finite_rejected(self, n, warm):
        A = np.eye(n)
        A[0, 1] = A[1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            if warm:
                top_eigpair(A[None], v0=np.ones((1, n)))
            else:
                top_eigpair(A)

    @pytest.mark.parametrize("n,warm", [(3, False), (CROSSOVER + 1, True), (3, True),
                                        (CROSSOVER, True)])
    def test_non_finite_stack_row_is_nan_alone(self, n, warm):
        # A stack with one non-finite row is refused whole, as one matrix is.
        A = np.stack([spiked_psd(n, seed=1), spiked_psd(n, seed=2)])
        A[0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            top_eigpair(A, v0=np.ones((2, n)) if warm else None)

    def test_tied_spectrum(self):
        pair = top_eigpair(2.0 * np.eye(3))
        assert pair.value == pytest.approx(2.0)
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 10, CROSSOVER + 1, 101])
    def test_cold_stack_equals_eigh_row_by_row(self, n):
        # Separated, near-tied, exactly tied and zero rows.
        A = np.stack([spiked_psd(n, seed=n), near_tied(n, seed=n)[0] if n > 2 else
                      random_psd(n, seed=n), 2.0 * np.eye(n), np.zeros((n, n))])
        pair = top_eigpair(A)
        assert (pair.iterations == 0).all()
        for b in range(len(A)):
            w, V = np.linalg.eigh(A[b])
            assert pair.value[b] == w[-1]
            sign = 1.0 if pair.vector[b] @ V[:, -1] >= 0 else -1.0
            np.testing.assert_array_equal(pair.vector[b], sign * V[:, -1])


def squared(A, v0, monkeypatch):
    # The warm small-matrix route on a stack, and how many of its rows took
    # the dense finish.
    finished = []
    finish = linalg._dense_finish

    def spy(A, rest, value, vector):
        finished.append(int(np.count_nonzero(rest)))
        return finish(A, rest, value, vector)

    monkeypatch.setattr(linalg, "_dense_finish", spy)
    pair = top_eigpair(A, v0=v0)
    monkeypatch.undo()
    return pair, sum(finished)


class TestSquaredStep:
    """One power step with (A / tr A)^64: top_eigpair's warm route up to
    EIGH_CROSSOVER rows."""

    @pytest.mark.parametrize("n", [1, 2, 10, 16, CROSSOVER])
    def test_settled_rows_match_eigh(self, n, monkeypatch):
        A = np.stack([spiked_psd(n, seed=10 * n + s) for s in range(4)])
        w, V = np.linalg.eigh(A)
        rng = np.random.default_rng(n)
        v0 = V[:, :, -1] + 1e-3 * rng.standard_normal((4, n))
        pair, finished = squared(A, v0, monkeypatch)
        assert finished == 0
        assert (pair.iterations == 1).all()
        np.testing.assert_allclose(pair.value, w[:, -1], rtol=1e-12, atol=0)
        sign = np.sign((pair.vector * V[:, :, -1]).sum(axis=1))
        np.testing.assert_allclose(pair.vector, sign[:, None] * V[:, :, -1],
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_near_tied_row_is_finished_densely(self, seed, monkeypatch):
        A, v0 = near_tied(12, seed=seed)
        pair, finished = squared(A[None], v0[None], monkeypatch)
        assert finished == 1 and pair.iterations[0] == 1
        value, vector = dense(A)
        assert pair.value[0] == value
        np.testing.assert_array_equal(pair.vector[0], vector)

    @pytest.mark.parametrize("scale", [0.0, 1e307])
    def test_zero_and_overflowing_trace_are_finished_densely(self, scale, monkeypatch):
        # 24 diagonal entries around 1e307 sum past the largest float.
        A = scale * spiked_psd(CROSSOVER, seed=3)
        with np.errstate(over="ignore"):
            assert scale == 0.0 or np.isinf(np.trace(A))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair, finished = squared(A[None], np.ones((1, CROSSOVER)), monkeypatch)
        assert finished == 1
        value, vector = dense(A)
        assert pair.value[0] == value
        np.testing.assert_array_equal(pair.vector[0], vector)

    def test_stack_equals_its_rows_alone_bit_for_bit(self):
        # Rows that settle, are near-tied or are zero give in a stack what
        # they give alone.
        n = 12
        tied, v_tied = near_tied(n, seed=8)
        A = np.stack([spiked_psd(n, seed=0), tied, np.zeros((n, n)),
                      spiked_psd(n, seed=3)])
        v0 = np.stack([np.ones(n), v_tied, np.ones(n), np.arange(n) - 5.0])
        pair = top_eigpair(A, v0=v0)
        for b in range(4):
            alone = top_eigpair(A[b:b + 1], v0=v0[b:b + 1])
            assert pair.value[b] == alone.value[0]
            np.testing.assert_array_equal(pair.vector[b], alone.vector[0])


class TestFixSign:
    def test_single_vector(self):
        np.testing.assert_array_equal(linalg._fix_sign(np.array([0.1, -0.3])), [-0.1, 0.3])
