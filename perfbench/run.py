"""Benchmark of the subsetpath package: named workloads, end-to-end metrics
and a traced run that splits the time across the package's layers.

    python3 perfbench/run.py --workload pls1-wide --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one
                                                       # fresh process each
    python3 -m pytest perfbench/tests -q               # the benchmark's tests

Run it from anywhere inside a checkout; it imports the package from the
checkout's `src/` and refuses to run (exit 2) when that is missing.

One process runs one workload, in a closed loop: the next task starts when
the previous one has been checked, until `--seconds` have passed; the task
running at that moment completes. Set-up (imports, data
generation, CSV writing) is measured before the first task, three times,
and the median counts; each repetition starts a fresh interpreter that
imports the package and then generates the data. The process starts no
threads of its own.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics. With `--trace 1` every input runs twice, untraced and
then traced, and the last line holds the per-layer metrics (from the traced
tasks) and the tracing overhead (traced minus untraced median task time).
Every run writes a result file with the environment, every task's time,
checks and output digests under `perfbench/out/`, and the traced run also
writes its spans there.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

ALL_WORKLOADS = ("pls1-wide", "pca-gram", "cert-fit")
SETUP_REPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (unit, better). `error_rate` is printed and recorded but is not a
# gated metric: it is 0 on healthy workloads, and the result line carries
# it as `failed` / `attempted`.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "task_s_p50": ("s", "lower"),
    "tasks_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("ratio", "lower"),
    "exact_match_rate": ("ratio", "higher"),
    "support_f1": ("ratio", "higher"),
}
UNGATED = ("error_rate",)


@dataclass
class TaskResult:
    index: int
    data_seed: int
    kind: str
    traced: bool
    seconds: float
    error: str | None = None
    bug: bool = False
    failures: list = field(default_factory=list)
    exact_cells: int = 0
    exact_hits: int = 0
    f1: float | None = None
    digests: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*ALL_WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # layout differs across numpy versions
        blas = None
    return {
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def run_task(wl, inp, index: int, outdir: Path, traced: bool, tracer=None) -> TaskResult:
    """Time one task, then check its output. Errors from the package's own
    exception types are failed tasks; any other exception is also marked as
    a bug, which makes the run incorrect."""
    from workloads import PACKAGE_ERRORS
    outdir.mkdir(parents=True, exist_ok=True)
    res = TaskResult(index, inp["data_seed"], inp["kind"], traced, 0.0)
    if tracer is not None:
        tracer.task = index
    output = None
    start = time.perf_counter()
    try:
        output = wl.run(inp, outdir)
    except Exception as exc:
        res.error = f"{type(exc).__name__}: {exc}"
        res.bug = not isinstance(exc, PACKAGE_ERRORS)
        if res.bug:
            traceback.print_exc()
    res.seconds = time.perf_counter() - start
    if res.error is None:
        try:
            ev = wl.evaluate(inp, output, outdir)
        except (OSError, LookupError, TypeError, ValueError) as exc:
            res.failures = [f"output missing or malformed: {type(exc).__name__}: {exc}"]
            return res
        res.failures, res.digests = ev.failures, ev.digests
        res.exact_cells, res.exact_hits, res.f1 = ev.exact_cells, ev.exact_hits, ev.f1
    return res


def end_to_end(tasks: list[TaskResult], setup_s: float) -> dict:
    secs = [t.seconds for t in tasks]
    good = [t for t in tasks if t.ok]
    cells = sum(t.exact_cells for t in good)
    f1s = [t.f1 for t in good if t.f1 is not None]
    return {
        "setup_s": setup_s,
        "task_s_p50": statistics.median(secs),
        "tasks_per_s": len(good) / sum(secs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": (len(tasks) - len(good)) / len(tasks),
        "exact_match_rate": sum(t.exact_hits for t in good) / cells if cells else None,
        "support_f1": statistics.fmean(f1s) if f1s else None,
    }


def run_workload(args) -> int:
    if not (SRC / "subsetpath" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    from spans import Tracer
    import_s = time.perf_counter() - STARTED

    wl = workloads.WORKLOADS[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / stem
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    tracer = Tracer() if args.trace else None
    count = max(1, math.ceil(args.seconds / wl.min_task_s))
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        start_interpreter()
        if tracer:
            tracer.task = "setup"
            patch_all(tracer, layers.PATCHES)
        try:
            inputs = wl.prepare(args.seed, count, workdir)
        finally:
            if tracer:
                tracer.restore()
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    tasks: list[TaskResult] = []
    start = time.perf_counter()
    for i, inp in enumerate(inputs):
        tasks.append(run_task(wl, inp, i, workdir / f"task-{i}", False))
        if tracer:
            patch_all(tracer, layers.PATCHES)
            try:
                traced = run_task(wl, inp, i, workdir / f"task-{i}-traced", True, tracer)
            finally:
                tracer.restore()
            if traced.ok and tasks[-1].ok and traced.digests != tasks[-1].digests:
                traced.failures.append("traced output differs from untraced output")
            tasks.append(traced)
        if time.perf_counter() - start >= args.seconds:
            break

    plain = [t for t in tasks if not t.traced]
    metrics = end_to_end(plain, setup_s)
    per_layer = None
    if tracer:
        traced = [t for t in tasks if t.traced]
        per_layer = layers.layer_metrics(tracer.spans, len(traced), SETUP_REPS)
        per_layer["trace.overhead_s"] = (statistics.median(t.seconds for t in traced)
                                         - metrics["task_s_p50"])

    failed = sum(not t.ok for t in tasks)
    correct = not any(t.failures or t.bug for t in tasks)
    OUT.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "import_s": import_s,
        "setup_rep_s": setup_times,
        "metrics": metrics,
        "per_layer": per_layer,
        "tasks": [asdict(t) for t in tasks],
    }
    if tracer:
        spans_file = OUT / f"{stem}-spans.jsonl.gz"
        tracer.write(spans_file, origin=STARTED)
        result["spans_file"] = spans_file.name
        result["layer_map"] = layers.LAYER_MAP
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2))

    report(args, tasks, metrics, per_layer)
    if per_layer is not None:
        gated = {k: (v, layers.METRICS[k][0]) for k, v in per_layer.items()}
    else:
        gated = {k: (v, END_TO_END[k][0]) for k, v in metrics.items()
                 if k not in UNGATED and v is not None}
    print(json.dumps({
        "correct": correct,
        "attempted": len(tasks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()},
    }))
    return 0


def start_interpreter():
    """Start a fresh interpreter that imports the package, and wait for it
    to exit: the process start-up share of one set-up. Repeating it in a
    child, rather than timing this process's own imports once, measures
    every repetition with the files already cached."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", "import subsetpath.cli"], env=env,
                   check=True, timeout=120)


def patch_all(tracer, patches):
    for module, attr, name, describe in patches:
        tracer.patch(module, attr, name, describe)


def report(args, tasks, metrics, per_layer):
    plain = [t for t in tasks if not t.traced]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"tasks {len(plain)} untraced, {len(tasks) - len(plain)} traced")
    for t in tasks:
        status = "ok" if t.ok else (t.error or "; ".join(t.failures))
        print(f"  task {t.index:3d} {'traced' if t.traced else 'plain ':6s} "
              f"data_seed {t.data_seed:<6d} {t.kind:12s} {t.seconds:9.3f} s  {status}")
    for name, (unit, better) in END_TO_END.items():
        value = metrics[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        extra = f"  (n={len(plain)})" if name == "task_s_p50" else ""
        print(f"  {name:20s} {shown:>12s} {unit:6s} {better} is better{extra}")
    if per_layer is not None:
        import layers
        for name, value in per_layer.items():
            print(f"  {name:45s} {value:14.6g} {layers.METRICS[name][0]}")


def run_all(args) -> int:
    """Every workload in a fresh process, one at a time."""
    results, code = {}, 0
    for name in ALL_WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
