"""Shared test helper: pls2 objective contexts with a chosen kernel.

make_context picks the pls2 kernel itself: M when q < p ("v", a q x q
eigenproblem per evaluation), G = M M^T otherwise ("u", p x p). Tests that
exercise one kernel on data where make_context would pick the other build
it here, with exactly the arrays make_context would store.
"""

import dataclasses

from subsetpath.objective import make_context


def pls2_context(X, Y, branch, lam=0.0):
    """make_context(X, Y, "pls2", lam) with kernel "v" (M) or "u" (G)."""
    ctx = make_context(X, Y, "pls2", lam=lam)
    if branch == "v":
        if ctx.M is not None:
            return ctx
        return dataclasses.replace(ctx, M=(X.T @ Y) / X.shape[0], G=None)
    if branch == "u":
        if ctx.M is None:
            return ctx
        return dataclasses.replace(ctx, M=None, G=ctx.M @ ctx.M.T)
    raise ValueError(f"unknown pls2 branch {branch!r}")
