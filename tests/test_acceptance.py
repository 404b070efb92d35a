"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantity (run pytest with -s or -rA to see
them). Tolerances are fixed here, not tuned at run time.
"""

import itertools
import time

import numpy as np
import pytest

from subsetpath.components import (
    PickStrategy,
    _build_component,
    _refit_fixed,
    adjusted_weights,
    deflate,
    fit,
    pev_cpev,
    predict,
    regression_coefficients,
)
from subsetpath.linalg import center_columns
from subsetpath.objective import (
    corner_values,
    eval_batch,
    grad_r,
    make_context,
    r_of_t,
    t_of_r,
)
from subsetpath.oracle import exhaustive_path
from subsetpath.path import GridConfig, dynamic_grid
from subsetpath.simulate import SimConfig, gen_multiresponse, gen_pca_cov

from contexts import pls2_context
from corner_checks import check_corner_optimality


def central_diff(f, x, h):
    g = np.zeros_like(x)
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_err(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-8)
    return float(np.max(np.abs(got - want))) / scale


# ----------------------------------------------------------------------
# Criterion 1: analytic gradients match central finite differences with
# relative error <= 1e-5 on 100 random instances per model variant
# (instances whose active matrix has a relative top-eigenvalue gap below
# 1e-3 are re-drawn). Runtime budget: 30 s.
# ----------------------------------------------------------------------


def _draw(variant, seed):
    for offset in itertools.count():
        rng = np.random.default_rng(seed + 100_000 * offset)
        n = int(rng.integers(20, 51))
        p = int(rng.integers(3, 11))
        q = int(rng.integers(1, 7))
        X = center_columns(rng.standard_normal((n, p)))
        t = rng.uniform(0.15, 0.95, size=p)
        lam = float(rng.uniform(0.0, 0.5))
        if variant == "pls1":
            y = rng.standard_normal(n)
            ctx = make_context(X, y, "pls1")
            zsq = ctx.z * ctx.z
            return ctx, lam, t, lambda tt: -float(np.sum(tt * tt * zsq)) + lam * tt.sum()
        if variant in ("pls2-v", "pls2-u"):
            Y = center_columns(rng.standard_normal((n, q)))
            branch = variant[-1]
            ctx = pls2_context(X, Y, branch)
            M = X.T @ Y / n
            Mt = t[:, None] * M
            w = np.linalg.eigvalsh(Mt.T @ Mt)
            if len(w) > 1 and (w[-1] - w[-2]) < 1e-3 * max(w[-1], 1e-12):
                continue
            def f(tt, M=M, lam=lam):
                Mtt = tt[:, None] * M
                return -float(np.linalg.eigvalsh(Mtt.T @ Mtt)[-1]) + lam * tt.sum()
            return ctx, lam, t, f
        ctx = make_context(X, model="pca")
        A = (t[:, None] * ctx.G) * t[None, :]
        w = np.linalg.eigvalsh(A)
        if (w[-1] - w[-2]) < 1e-3 * max(w[-1], 1e-12):
            continue
        def f(tt, G=ctx.G, lam=lam):
            A = (tt[:, None] * G) * tt[None, :]
            return -float(np.linalg.eigvalsh(A)[-1]) + lam * tt.sum()
        return ctx, lam, t, f


def test_criterion_1_gradient_correctness():
    started = time.time()
    worst = 0.0
    for variant in ("pls1", "pls2-v", "pls2-u", "pca"):
        for i in range(100):
            ctx, lam, t, f = _draw(variant, seed=17 * i + 3)
            ev = eval_batch(ctx, t[None], np.array([lam]))
            fd_t = central_diff(f, t, h=1e-6)
            err_t = rel_err(ev.grad_t[0], fd_t)

            r = r_of_t(np.minimum(t, 1.0 - 1e-12))
            g_r = grad_r(ev, r)[0]
            fd_r = central_diff(lambda rr: f(t_of_r(rr)), r, h=1e-6)
            err_r = rel_err(g_r, fd_r)

            worst = max(worst, err_t, err_r)
            assert err_t <= 1e-5, f"{variant} instance {i}: grad_t error {err_t:.2e}"
            assert err_r <= 1e-5, f"{variant} instance {i}: grad_r error {err_r:.2e}"
    elapsed = time.time() - started
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 (gradient correctness): PASS - "
          f"400 instances, max rel err {worst:.2e}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# Shared 20-replicate benchmark design (p=15, q=10, n=100, gamma=5,
# sigma=3, holdout n/2) used by criteria 2 and 5.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def design_replicates():
    reps = []
    for rep in range(20):
        inst = gen_multiresponse(
            SimConfig(scenario="multiresponse", sigma=3.0, seed=1000 + rep,
                      holdout=50)
        )
        xm, ym = inst.X.mean(axis=0), inst.Y.mean(axis=0)
        Xc, Yc = inst.X - xm, inst.Y - ym
        path = dynamic_grid(Xc, Yc, "pls2", GridConfig(K=15, L=50))
        reps.append((inst, Xc, Yc, xm, ym, path))
    return reps


def test_criterion_2_oracle_retrieval(design_replicates):
    started = time.time()
    matches = 0
    cells = 0
    for inst, Xc, Yc, _, _, path in design_replicates:
        oracle = exhaustive_path(Xc, Yc, "pls2")
        for k in range(1, 16):
            cells += 1
            matches += int(path.buckets[k].best.bits == oracle.per_size[k][0].bits)
    rate = matches / cells
    elapsed = time.time() - started
    assert rate >= 0.90, f"retrieval rate {rate:.3f} below 0.90"
    assert elapsed < 600.0
    print(f"ACCEPTANCE 2 (oracle retrieval): PASS - "
          f"{matches}/{cells} cells = {rate:.3f}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# Criterion 3: corner-optimality certification on 50 random instances
# with p <= 12 reports zero failures for all four checks. Budget: 2 min.
# ----------------------------------------------------------------------


def test_criterion_3_corner_optimality_suite():
    started = time.time()
    totals = np.zeros(4, dtype=int)
    for i in range(50):
        rng = np.random.default_rng(500 + i)
        n = int(rng.integers(20, 60))
        p = int(rng.integers(4, 13))
        X = center_columns(rng.standard_normal((n, p)))
        y = rng.standard_normal(n)
        report = check_corner_optimality(X, y, samples=200, seed=i)
        totals += [
            report.interior_dominance_failures,
            report.monotonicity_failures,
            report.increment_failures,
            report.breakpoint_failures,
        ]
    elapsed = time.time() - started
    assert totals.tolist() == [0, 0, 0, 0], f"failure counts {totals.tolist()}"
    assert elapsed < 120.0
    print(f"ACCEPTANCE 3 (corner optimality suite): PASS - "
          f"50 instances, zero failures in all four checks, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# Criterion 4: sparse-PCA recovery on the two-eigenvector covariance
# design, n=300, 20 replicates, fixed-k=6, H=2: correctly identified
# zero-loading proportion >= 0.95 (first component) and >= 0.90 (second);
# two-component CPEV within 0.70 +/- 0.05. Budget: 5 min.
# ----------------------------------------------------------------------


def test_criterion_4_pca_recovery():
    started = time.time()
    true_zero = [{4, 5, 6, 7}, {0, 1, 2, 3}]
    correct = np.zeros((20, 2))
    cpev2 = np.zeros(20)
    for rep in range(20):
        inst = gen_pca_cov(SimConfig(scenario="pca-cov", n=300, p=10, gamma=0,
                                     seed=2000 + rep))
        res = fit(inst.X, model="pca", H=2, strategy=PickStrategy.fixed_k(6),
                  grid_cfg=GridConfig(K=10, L=50))
        for h in range(2):
            est_zero = set(range(10)) - set(res.components[h].subset.indices.tolist())
            correct[rep, h] = len(est_zero & true_zero[h]) / 4.0
        cpev2[rep] = res.cpev[1]
    mean_zero = correct.mean(axis=0)
    mean_cpev = float(cpev2.mean())
    elapsed = time.time() - started
    assert mean_zero[0] >= 0.95, f"first-component correct-zero rate {mean_zero[0]:.3f}"
    assert mean_zero[1] >= 0.90, f"second-component correct-zero rate {mean_zero[1]:.3f}"
    assert 0.65 <= mean_cpev <= 0.75, f"two-component CPEV {mean_cpev:.3f}"
    assert elapsed < 300.0
    print(f"ACCEPTANCE 4 (sparse PCA recovery): PASS - correct zeros "
          f"{mean_zero[0]:.3f}/{mean_zero[1]:.3f}, CPEV2 {mean_cpev:.3f}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# Criterion 5: out-of-sample MSEP decreases from subset size 1 to 10 and
# plateaus through size 15 (within 10% of the size-10 value).
# Budget: 10 min.
# ----------------------------------------------------------------------


def test_criterion_5_msep_shape(design_replicates):
    started = time.time()
    msep = np.zeros((len(design_replicates), 15))
    for i, (inst, Xc, Yc, xm, ym, path) in enumerate(design_replicates):
        for k in range(1, 16):
            comps, _, _ = _refit_fixed(Xc, Yc, "pls2", [path.buckets[k].best],
                                       "regression")
            beta = regression_coefficients(comps)
            pred = (inst.X_test - xm) @ beta + ym
            msep[i, k - 1] = np.mean((pred - inst.Y_test) ** 2)
    mean = msep.mean(axis=0)
    elapsed = time.time() - started
    assert mean[9] < mean[0], f"MSEP(10)={mean[9]:.2f} not below MSEP(1)={mean[0]:.2f}"
    plateau = abs(mean[14] - mean[9]) / mean[9]
    assert plateau <= 0.10, f"plateau deviation {plateau:.3f} exceeds 10%"
    assert elapsed < 600.0
    print(f"ACCEPTANCE 5 (MSEP shape): PASS - MSEP(1)={mean[0]:.1f} > "
          f"MSEP(10)={mean[9]:.1f}, plateau {plateau:.1%}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# Criterion 6: with the two-latent-component generator at sigma=1.5, a
# two-component model predicts better than a one-component model.
# ----------------------------------------------------------------------


def test_criterion_6_two_component_improvement():
    started = time.time()
    msep = {1: [], 2: []}
    for rep in range(10):
        inst = gen_multiresponse(
            SimConfig(scenario="two-component", sigma=1.5, seed=3000 + rep,
                      holdout=50)
        )
        for H in (1, 2):
            res = fit(inst.X, inst.Y, model="pls2", H=H,
                      strategy=PickStrategy.min_msep(),
                      grid_cfg=GridConfig(K=30, L=50),
                      test=(inst.X_test, inst.Y_test))
            pred = predict(res, inst.X_test)
            msep[H].append(float(np.mean((pred - inst.Y_test) ** 2)))
    m1, m2 = float(np.mean(msep[1])), float(np.mean(msep[2]))
    elapsed = time.time() - started
    assert m2 < m1, f"MSEP(H=2)={m2:.2f} not below MSEP(H=1)={m1:.2f}"
    print(f"ACCEPTANCE 6 (two-component improvement): PASS - "
          f"MSEP H=1 {m1:.2f} vs H=2 {m2:.2f}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# Criterion 7: structural invariants with no tolerance waivers.
# ----------------------------------------------------------------------


def _discrete_corner(model, X, Y, bits):
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


def test_criterion_7_structural_invariants():
    started = time.time()
    rng = np.random.default_rng(4242)

    # (a) corner consistency, exhaustive for p = 8, all three models
    n, p = 30, 8
    X = center_columns(rng.standard_normal((n, p)))
    Y = center_columns(rng.standard_normal((n, 4)))
    y = rng.standard_normal(n)
    contexts = {
        "pls1": (make_context(X, y, "pls1"), y),
        "pls2": (make_context(X, Y, "pls2"), Y),
        "pca": (make_context(X, model="pca"), None),
    }
    for model, (ctx, data_y) in contexts.items():
        for bits in itertools.product([0, 1], repeat=p):
            want = _discrete_corner(model, X, data_y, bits)
            idx = np.flatnonzero(bits)
            got = float(corner_values(ctx, idx[None])[0]) if idx.size else 0.0
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (
                f"{model} corner {bits}: {got} vs {want}"
            )

    # (b)-(d) deflation orthogonality, weight identity, beta equivalence
    inst = gen_multiresponse(SimConfig(scenario="multiresponse", sigma=2.0,
                                       seed=77))
    Xc = center_columns(inst.X)
    Yc = inst.Y - inst.Y.mean(axis=0)
    supports = []
    comps = []
    Xh, Yh = Xc, Yc
    rng2 = np.random.default_rng(7)
    for h in range(1, 4):
        k = int(rng2.integers(3, 10))
        idx = rng2.choice(15, size=k, replace=False)
        from subsetpath.path import Subset

        s = Subset.from_indices(15, idx)
        comp = _build_component(Xh, Yh, "pls2", s, h, "regression")
        Xh_next, Yh_next = deflate(Xh, Yh, comp, "regression", "pls2")
        assert np.max(np.abs(Xh_next.T @ comp.xi)) <= 1e-10 * max(
            1.0, float(np.max(np.abs(Xh_next)) * np.max(np.abs(comp.xi)))
        ), "deflation orthogonality violated"
        comps.append(comp)
        supports.append(s)
        Xh, Yh = Xh_next, Yh_next

    W = adjusted_weights(Xc, comps)
    for h, comp in enumerate(comps):
        assert np.max(np.abs(Xc @ W[:, h] - comp.xi)) <= 1e-8 * max(
            1.0, float(np.max(np.abs(comp.xi)))
        ), "adjusted-weight identity violated"

    beta = regression_coefficients(comps)
    score_pred = sum(np.outer(c.xi, c.d) for c in comps)
    assert np.max(np.abs(Xc @ beta - score_pred)) <= 1e-8 * max(
        1.0, float(np.max(np.abs(score_pred)))
    ), "beta-vs-score prediction equivalence violated"

    # (e) CPEV monotone and bounded by one
    _, cpev = pev_cpev(Xc, W)
    assert np.all(np.diff(cpev) >= -1e-12) and np.all(cpev <= 1.0 + 1e-12)

    # (f) the dynamic grid's top penalty yields the empty terminal subset
    path = dynamic_grid(Xc, Yc, "pls2", GridConfig(K=10, L=10))
    lam_top, size_top = path.lambda_grid[0]
    assert lam_top == max(l for l, _ in path.lambda_grid)
    assert size_top == 0, "terminal subset at lambda_max is not empty"

    elapsed = time.time() - started
    print(f"ACCEPTANCE 7 (structural invariants): PASS - corner consistency "
          f"(3 models x 256 corners), deflation/weights/beta/CPEV/grid checks, "
          f"{elapsed:.1f}s")


# ----------------------------------------------------------------------
# Criterion 8: a p=500, n=100, q=10 single-component path with a budget
# of 50 penalties completes within 60 s.
# ----------------------------------------------------------------------


def test_criterion_8_performance_envelope():
    inst = gen_multiresponse(
        SimConfig(scenario="multiresponse", n=100, p=500, q=10, gamma=490,
                  sigma=5.0, seed=42)
    )
    Xc = center_columns(inst.X)
    Yc = inst.Y - inst.Y.mean(axis=0)
    started = time.time()
    path = dynamic_grid(Xc, Yc, "pls2", GridConfig(K=15, L=50))
    elapsed = time.time() - started
    assert elapsed <= 60.0, f"p=500 path took {elapsed:.1f}s"
    assert all(path.buckets[k].best.size == k for k in range(1, 16))
    print(f"ACCEPTANCE 8 (performance envelope): PASS - p=500 path in "
          f"{elapsed:.1f}s (budget 60s)")
