"""Shared test helpers: pls2 and pca objective contexts with a chosen
kernel, and a solver run with other fixed settings.

make_context picks the kernel itself: for pls2, M when q < p ("v", a q x q
eigenproblem per evaluation) and G = M M^T otherwise ("u", p x p); for
pca, M = X^T / sqrt(n) when n < p and G = X^T X / n otherwise. Tests that
exercise one kernel on data where make_context would pick the other build
it here, with exactly the arrays make_context would store.
"""

import dataclasses

import numpy as np

from subsetpath import solver
from subsetpath.objective import make_context
from subsetpath.solver import SolverConfig


def solver_config(monkeypatch, method="adam", **constants):
    """SolverConfig(method), with solver module constants substituted for
    the rest of the test, e.g. MAX_ITER=40 or T_INIT=<a start vector>."""
    for name, value in constants.items():
        monkeypatch.setattr(solver, name, value)
    return SolverConfig(method)


def pls2_context(X, Y, branch):
    """make_context(X, Y, "pls2") with kernel "v" (M) or "u" (G)."""
    ctx = make_context(X, Y, "pls2")
    if branch == "v":
        if ctx.M is not None:
            return ctx
        return dataclasses.replace(ctx, M=(X.T @ Y) / X.shape[0], G=None)
    if branch == "u":
        if ctx.M is None:
            return ctx
        return dataclasses.replace(ctx, M=None, G=ctx.M @ ctx.M.T)
    raise ValueError(f"unknown pls2 branch {branch!r}")


def pca_context(X, kernel):
    """make_context(X, model="pca") with kernel "M" (X^T / sqrt(n), an
    n x n eigenproblem) or "G" (X^T X / n, p x p)."""
    ctx = make_context(X, model="pca")
    n = X.shape[0]
    if kernel == "M":
        if ctx.M is not None:
            return ctx
        return dataclasses.replace(ctx, M=np.ascontiguousarray(X.T) / np.sqrt(n), G=None)
    if kernel == "G":
        if ctx.G is not None:
            return ctx
        return dataclasses.replace(ctx, M=None, G=(X.T @ X) / n)
    raise ValueError(f"unknown pca kernel {kernel!r}")
