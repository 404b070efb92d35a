"""The benchmark's workloads.

A task is one unit of work. `prepare` is set-up: it makes every input a
run may need from the benchmark seed (data seeds 1000 * seed + 50 + j),
so the program receives only generated inputs. `run` is the timed part;
it may raise. `evaluate` checks the output afterwards and reports digests,
exact-reference matches and support recovery; it raises OSError, LookupError,
TypeError or ValueError on output it cannot read.

Data seeds start at 50 so that the default seed 0 covers the near-tied
pca-gram data seeds 51, 54 and 60, which raise ConvergenceFailure at the
commit that introduced this benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from subsetpath import cli, errors, simulate
from subsetpath import path as sp_path

import checks

# The package's documented failure modes; anything else a task raises is a bug.
PACKAGE_ERRORS = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
)


def data_seed(seed: int, j: int) -> int:
    return 1000 * seed + 50 + j


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Evaluation:
    failures: list[str] = field(default_factory=list)
    exact_cells: int = 0
    exact_hits: int = 0
    f1: float | None = None
    digests: dict[str, str] = field(default_factory=dict)


def _centered(A):
    return A - A.mean(axis=0)


class PathWorkload:
    """A solution path through the public API, `subsetpath.path.dynamic_grid`."""

    model: str
    K: int
    L: int

    def run(self, inp, outdir: Path):
        grid = sp_path.GridConfig(K=self.K, L=self.L)
        return sp_path.dynamic_grid(inp["X"], inp["Y"], self.model, grid)

    def evaluate(self, inp, path, outdir: Path) -> Evaluation:
        text = json.dumps(sp_path.path_to_dict(path), indent=2)
        doc = json.loads(text)
        ev = Evaluation(digests={"path.json": sha256_bytes(text.encode())})
        p = inp["X"].shape[1]
        ev.failures += checks.check_path_doc(doc, self.K, p)
        if ev.failures:
            return ev
        ev.failures += checks.check_corner_values(doc, inp["corner"])
        self.score(inp, doc, ev)
        return ev

    def score(self, inp, doc, ev: Evaluation):
        raise NotImplementedError


class Pls1Wide(PathWorkload):
    """pls1 path on the univariate design, n=100, p=500, 20 active columns.

    p = 500 rather than 2000 so that a run holds about ten tasks: a path
    takes about 5 s at p = 500 and 17 s at p = 2000, and with one or two
    tasks per run the median moved by 15% from run to run on a shared
    2-CPU host."""

    name = "pls1-wide"
    model, K, L = "pls1", 50, 50
    n, p, gamma, snr = 100, 500, 480, 3.0
    min_task_s = 2.5

    def prepare(self, seed: int, count: int, workdir: Path):
        inputs = []
        for j in range(count):
            ds = data_seed(seed, j)
            inst = simulate.generate(simulate.SimConfig(
                scenario="univariate", n=self.n, p=self.p, gamma=self.gamma,
                snr=self.snr, seed=ds))
            X, y = _centered(inst.X), _centered(inst.Y)
            z2 = ((X.T @ y[:, 0]) / self.n) ** 2
            inputs.append({
                "data_seed": ds, "kind": "univariate", "X": X, "Y": y, "z2": z2,
                "support": inst.truth["support"],
                "corner": lambda idx, z2=z2: -float(np.sum(z2[idx])),
            })
        return inputs

    def score(self, inp, doc, ev: Evaluation):
        # Closed form: the best k-subset holds the k largest z_j^2.
        order = np.argsort(-inp["z2"], kind="stable")
        reference = {k: {int(j) for j in order[:k]} for k in range(1, self.K + 1)}
        ev.exact_cells, ev.exact_hits = checks.match_cells(doc, reference)
        s = len(inp["support"])
        ev.f1 = checks.support_f1(checks.bucket_bits(doc)[s], inp["support"])


class PcaGram(PathWorkload):
    """pca path with n < p; tasks alternate a separated and a near-tied
    spectrum on the same data seed."""

    name = "pca-gram"
    model, K, L = "pca", 15, 50
    n, p, gamma = 50, 120, 110
    sigmas = (("separated", 1.0), ("near-tied", 5.0))
    min_task_s = 1.0

    def prepare(self, seed: int, count: int, workdir: Path):
        inputs = []
        for i in range(count):
            kind, sigma = self.sigmas[i % 2]
            ds = data_seed(seed, i // 2)
            inst = simulate.generate(simulate.SimConfig(
                scenario="multiresponse", n=self.n, p=self.p, gamma=self.gamma,
                sigma=sigma, seed=ds))
            X = _centered(inst.X)
            G = X.T @ X / self.n
            inputs.append({
                "data_seed": ds, "kind": kind, "X": X, "Y": None,
                "support": inst.truth["support"],
                "corner": lambda idx, G=G: -float(
                    np.linalg.eigvalsh(G[np.ix_(idx, idx)])[-1]),
            })
        return inputs

    def score(self, inp, doc, ev: Evaluation):
        # No exact reference at p = 120; the support is recoverable only
        # when the spike stands clear of the noise bulk.
        if inp["kind"] == "separated":
            s = len(inp["support"])
            ev.f1 = checks.support_f1(checks.bucket_bits(doc)[s], inp["support"])


class CertFit:
    """The criterion-2 user flow through `subsetpath.cli.main`, in-process,
    with CLI defaults: path, then oracle --compare, then a two-component
    min-msep fit."""

    name = "cert-fit"
    n, p, q, gamma, sigma, K, H = 100, 15, 10, 5, 3.0, 15, 2
    min_task_s = 2.0

    def prepare(self, seed: int, count: int, workdir: Path):
        inputs = []
        for j in range(count):
            ds = data_seed(seed, j)
            data = workdir / f"data-{j}"
            argv = ["simulate", "--scenario", "multiresponse", "--n", str(self.n),
                    "--p", str(self.p), "--q", str(self.q), "--gamma", str(self.gamma),
                    "--sigma", str(self.sigma), "--seed", str(ds), "--out", str(data)]
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"simulate exited with code {code}")
            inputs.append({"data_seed": ds, "kind": "multiresponse", "dir": data})
        return inputs

    def steps(self, inp, outdir: Path):
        xy = ["--model", "pls2", "--x", str(inp["dir"] / "X.csv"),
              "--y", str(inp["dir"] / "Y.csv")]
        return [
            ("path", ["path", *xy, "--k-max", str(self.K), "--out", str(outdir / "path")]),
            ("oracle", ["oracle", *xy, "--compare", str(outdir / "path" / "path.json"),
                        "--out", str(outdir / "oracle")]),
            ("fit", ["fit", *xy, "--components", str(self.H), "--pick", "min-msep",
                     "--out", str(outdir / "fit")]),
        ]

    def run(self, inp, outdir: Path):
        codes = {}
        for step, argv in self.steps(inp, outdir):
            codes[step] = cli.main(argv)
            if codes[step] != 0:
                break
        return codes

    def evaluate(self, inp, codes, outdir: Path) -> Evaluation:
        ev = Evaluation()
        for step, code in codes.items():
            ev.failures += checks.check_exit(step, code)
        if ev.failures:
            return ev
        raw = {name: (outdir / name).read_bytes() for name in
               ("path/path.json", "oracle/oracle.json", "fit/model.json",
                "oracle/compare.csv")}
        path_doc = json.loads(raw["path/path.json"])
        oracle_doc = json.loads(raw["oracle/oracle.json"])
        model_doc = json.loads(raw["fit/model.json"])
        rows = list(csv.DictReader(raw["oracle/compare.csv"].decode().splitlines()))
        truth = json.loads((inp["dir"] / "truth.json").read_text())
        ev.digests = {"path.json": sha256_bytes(raw["path/path.json"]),
                      "model.json": sha256_bytes(raw["fit/model.json"])}
        ev.failures += checks.check_path_doc(path_doc, self.K, self.p)
        ev.failures += checks.check_compare(rows, path_doc, oracle_doc, self.K, self.p)
        ev.failures += checks.check_model_doc(model_doc, self.H, self.p, self.q)
        if ev.failures:
            return ev
        ev.exact_cells = len(rows)
        ev.exact_hits = sum(int(r["match"]) for r in rows)
        s = len(truth["support"])
        ev.f1 = checks.support_f1(checks.bucket_bits(path_doc)[s], truth["support"])
        return ev


WORKLOADS = {w.name: w for w in (Pls1Wide(), PcaGram(), CertFit())}
