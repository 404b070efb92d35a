"""Which package functions the traced run wraps, and how its spans become
per-layer metrics.

Layers are the package modules. Every function is wrapped where callers
look it up (for example `power_iteration` both in `objective` and in
`components`), so each call passes through exactly one wrapper. Counts
come from return values and exceptions, never from inside the program.

Times are per traced task unless the unit says otherwise: a layer's
`self_s` is the summed self time of its spans (duration minus child
spans), `s` is the summed inclusive time.
"""

from __future__ import annotations

from collections import defaultdict

from spans import self_times


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _power_iteration(args, kwargs, result, error):
    A = args[0] if args else kwargs.get("A")
    dim = int(getattr(A, "shape", (0,))[0])
    cold = _arg(args, kwargs, 4, "v0") is None
    pair = result if result is not None else getattr(error, "last", None)
    steps = int(getattr(pair, "iterations", 0) or 0)
    return [dim, cold, steps, error is not None]


def _minimize(args, kwargs, result, error):
    if result is None:
        return {"abort": error is not None}
    return {
        "iterations": int(result.iterations),
        "trace_points": len(result.trace),
        "converged": bool(result.converged),
    }


def _select_best(args, kwargs, result, error):
    return len(_arg(args, kwargs, 0, "candidates", ()))


def _dynamic_grid(args, kwargs, result, error):
    if result is None:
        return 0
    return sum(len(b.candidates) for b in result.buckets.values())


def _exhaustive_path(args, kwargs, result, error):
    return 0 if result is None else int(result.enumerated_count)


# (module, attribute, span name, describe)
PATCHES = [
    ("subsetpath.objective", "power_iteration", "linalg.power_iteration", _power_iteration),
    ("subsetpath.components", "power_iteration", "linalg.power_iteration", _power_iteration),
    ("subsetpath.solver", "eval_objective", "objective.eval", None),
    ("subsetpath.objective", "corner_objective", "objective.corner", None),
    ("subsetpath.path", "corner_objective", "objective.corner", None),
    ("subsetpath.path", "make_context", "objective.make_context", None),
    ("subsetpath.path", "lambda_max", "objective.lambda_max", None),
    ("subsetpath.path", "minimize", "solver.minimize", _minimize),
    ("subsetpath.path", "extract_subsets", "path.extract_subsets", None),
    ("subsetpath.path", "select_best", "path.select_best", _select_best),
    ("subsetpath.path", "dynamic_grid", "path.dynamic_grid", _dynamic_grid),
    ("subsetpath.components", "dynamic_grid", "path.dynamic_grid", _dynamic_grid),
    ("subsetpath.components", "loading_from_subset", "components.loading", None),
    ("subsetpath.components", "regression_coefficients",
     "components.regression_coefficients", None),
    ("subsetpath.cli", "dynamic_grid", "path.dynamic_grid", _dynamic_grid),
    ("subsetpath.cli", "exhaustive_path", "oracle.exhaustive_path", _exhaustive_path),
    ("subsetpath.cli", "fit", "components.fit", None),
    ("subsetpath.cli", "q2", "components.q2", None),
    ("subsetpath.cli", "read_csv_matrix", "cli.read_csv", None),
    ("subsetpath.cli", "generate", "simulate.generate", None),
    ("subsetpath.simulate", "generate", "simulate.generate", None),
    ("subsetpath.cli", "main", "cli.main", None),
]

COUNT = "count/task"
SECONDS = "s/task"

# name -> (unit, better); BENCHMARK.json's per_layer list mirrors this.
METRICS = {
    "linalg.power_iteration.calls": (COUNT, "lower"),
    "linalg.power_iteration.steps": (COUNT, "lower"),
    "linalg.power_iteration.self_s": (SECONDS, "lower"),
    "linalg.power_iteration.cold_calls": (COUNT, "lower"),
    "linalg.power_iteration.failed": (COUNT, "lower"),
    "linalg.power_iteration.calls_dim_le10": (COUNT, "lower"),
    "linalg.power_iteration.calls_dim_le30": (COUNT, "lower"),
    "linalg.power_iteration.calls_dim_le100": (COUNT, "lower"),
    "linalg.power_iteration.calls_dim_gt100": (COUNT, "lower"),
    "objective.eval.calls": (COUNT, "lower"),
    "objective.eval.self_s": (SECONDS, "lower"),
    "objective.context.s": (SECONDS, "lower"),
    "objective.corner.calls": (COUNT, "lower"),
    "objective.corner.self_s": (SECONDS, "lower"),
    "path.select_best.self_s": (SECONDS, "lower"),
    "path.corner_per_candidate": ("ratio", "lower"),
    "solver.minimize.calls": (COUNT, "lower"),
    "solver.minimize.self_s": (SECONDS, "lower"),
    "solver.iterations": (COUNT, "lower"),
    "solver.converged_ratio": ("ratio", "higher"),
    "solver.aborts": (COUNT, "lower"),
    "path.extract.calls": (COUNT, "lower"),
    "path.extract.s": (SECONDS, "lower"),
    "path.candidates": (COUNT, "lower"),
    "solver.trace_points": (COUNT, "lower"),
    "path.dynamic_grid.self_s": (SECONDS, "lower"),
    "components.fit.self_s": (SECONDS, "lower"),
    "components.loading.calls": (COUNT, "lower"),
    "components.regression_coefficients.calls": (COUNT, "lower"),
    "components.q2.s": (SECONDS, "lower"),
    "oracle.exhaustive_path.s": (SECONDS, "lower"),
    "oracle.subsets_enumerated": (COUNT, "lower"),
    "cli.main.self_s": (SECONDS, "lower"),
    "cli.read_csv.s": (SECONDS, "lower"),
    "simulate.generate.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.tasks": ("count", "higher"),
}

# Layer -> (metric prefixes, end-to-end metrics it should move, workload
# where it does most of the work, workload where the prediction is no
# change). Written before any optimisation, so a later change can be held
# to it.
LAYER_MAP = {
    "linalg": (["linalg.power_iteration"], ["task_s_p50", "tasks_per_s", "error_rate"],
               "pca-gram (~90%); cert-fit (~63%)", "pls1-wide (never called)"),
    "objective": (["objective.eval", "objective.context", "objective.corner"],
                  ["tasks_per_s", "task_s_p50"],
                  "pca-gram (O(p^2) matrix formation per eval, cold corner solves)",
                  "pls1-wide (closed form)"),
    "solver": (["solver."], ["tasks_per_s"], "cert-fit (many short runs)",
               "pls1-wide (~5%)"),
    "path": (["path."], ["task_s_p50", "peak_rss_mb"],
             "pls1-wide (extraction ~55%, bucket scoring ~30%)", "pca-gram (~2%)"),
    "components": (["components."], ["task_s_p50"], "cert-fit (~3%)",
                   "pls1-wide, pca-gram (absent)"),
    "oracle": (["oracle."], ["task_s_p50"], "cert-fit (~18%)",
               "pls1-wide, pca-gram (absent)"),
    "cli": (["cli."], ["task_s_p50"], "cert-fit (<1%; guards I/O changes)",
            "pls1-wide, pca-gram (absent)"),
    "simulate": (["simulate."], ["setup_s"], "all (set-up only)", "-"),
}


def layer_metrics(spans, n_tasks: int, setup_reps: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `n_tasks` traced tasks plus
    `setup_reps` traced set-ups (spans whose task is "setup")."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    total = defaultdict(float)   # summed count or time, keyed by metric
    setup_generate = 0.0
    corner_in_select = 0
    candidates_scored = 0
    runs_done = runs_converged = 0

    for s in spans:
        if s.task == "setup":
            if s.name == "simulate.generate":
                setup_generate += s.end - s.start
            continue
        name, dur, own = s.name, s.end - s.start, selfs[s.id]
        if name == "linalg.power_iteration":
            dim, cold, steps, failed = s.info
            total["linalg.power_iteration.calls"] += 1
            total["linalg.power_iteration.steps"] += steps
            total["linalg.power_iteration.self_s"] += own
            total["linalg.power_iteration.cold_calls"] += cold
            total["linalg.power_iteration.failed"] += failed
            bucket = ("le10" if dim <= 10 else "le30" if dim <= 30
                      else "le100" if dim <= 100 else "gt100")
            total[f"linalg.power_iteration.calls_dim_{bucket}"] += 1
        elif name == "objective.eval":
            total["objective.eval.calls"] += 1
            total["objective.eval.self_s"] += own
        elif name in ("objective.make_context", "objective.lambda_max"):
            total["objective.context.s"] += dur
        elif name == "objective.corner":
            total["objective.corner.calls"] += 1
            total["objective.corner.self_s"] += own
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "path.select_best":
                corner_in_select += 1
        elif name == "path.select_best":
            total["path.select_best.self_s"] += own
            candidates_scored += s.info
        elif name == "solver.minimize":
            total["solver.minimize.calls"] += 1
            total["solver.minimize.self_s"] += own
            if "abort" in s.info:
                total["solver.aborts"] += s.info["abort"]
            else:
                runs_done += 1
                runs_converged += s.info["converged"]
                total["solver.iterations"] += s.info["iterations"]
                total["solver.trace_points"] += s.info["trace_points"]
        elif name == "path.extract_subsets":
            total["path.extract.calls"] += 1
            total["path.extract.s"] += dur
        elif name == "path.dynamic_grid":
            total["path.dynamic_grid.self_s"] += own
            total["path.candidates"] += s.info
        elif name == "components.fit":
            total["components.fit.self_s"] += own
        elif name == "components.loading":
            total["components.loading.calls"] += 1
        elif name == "components.regression_coefficients":
            total["components.regression_coefficients.calls"] += 1
        elif name == "components.q2":
            total["components.q2.s"] += dur
        elif name == "oracle.exhaustive_path":
            total["oracle.exhaustive_path.s"] += dur
            total["oracle.subsets_enumerated"] += s.info
        elif name == "cli.main":
            total["cli.main.self_s"] += own
        elif name == "cli.read_csv":
            total["cli.read_csv.s"] += dur

    out = {}
    for name, (unit, _) in METRICS.items():
        if unit in (COUNT, SECONDS):
            out[name] = total[name] / n_tasks if n_tasks else 0.0
    out["path.corner_per_candidate"] = (
        corner_in_select / candidates_scored if candidates_scored else 0.0
    )
    out["solver.converged_ratio"] = runs_converged / runs_done if runs_done else 0.0
    out["simulate.generate.s"] = setup_generate / setup_reps if setup_reps else 0.0
    out["trace.tasks"] = float(n_tasks)
    return out
