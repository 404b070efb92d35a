"""Command-line surface: simulate, path, fit, oracle, metrics.

Exit codes are stable API (see EXIT_CODES): 0 success, 2 parse error,
3 dimension error, 4 solver abort or non-finite input (a NaN or infinite
value in a model input, or cross-products of one that overflow),
5 singular system, 6 size guard, 7 degenerate data (a zero loading or
score, as from a response without signal). CSV files are RFC-4180 with an
optional auto-detected header row; floats are serialized at full
round-trip precision. Every command writes a manifest.json recording the
resolved configuration and input checksums.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .components import (PickStrategy, _check_training_folds, _fit_arguments,
                         _grid_refusals_first, fit, model_to_dict, predict, q2)
from .errors import (
    DegenerateLoadingError,
    DegenerateScoreError,
    DimensionError,
    NonFiniteInputError,
    ParseError,
    SingularMatrixError,
    SizeGuardError,
    SolverAbort,
)
from .linalg import center_columns
from .oracle import exhaustive_path, oracle_to_dict
from .path import GridConfig, Subset, dynamic_grid, path_to_dict
from .simulate import SimConfig, generate, metrics

EXIT_OK = 0
EXIT_PARSE = 2
# Package error -> exit code; each ends the run with one "error:" line.
EXIT_CODES = {
    ParseError: EXIT_PARSE,
    DimensionError: 3,
    SolverAbort: 4,
    NonFiniteInputError: 4,
    SingularMatrixError: 5,
    SizeGuardError: 6,
    DegenerateLoadingError: 7,
    DegenerateScoreError: 7,
}


def read_csv_matrix(path: str) -> np.ndarray:
    """Read a numeric CSV, skipping a single non-numeric header row."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for i, row in enumerate(reader):
                if not row:
                    continue
                try:
                    rows.append([float(x) for x in row])
                except ValueError as exc:
                    if i == 0 and not rows:
                        continue  # header row
                    bad = next(
                        (j for j, x in enumerate(row) if not _is_float(x)), None
                    )
                    raise ParseError(
                        f"{path}: non-numeric value at row {i + 1}, column "
                        f"{(bad or 0) + 1}"
                    ) from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{path}: row {i + 1} has {len(row)} fields, expected {width}")
    return np.asarray(rows, dtype=float)


def read_finite_matrix(path: str) -> np.ndarray:
    """read_csv_matrix for model inputs, which must hold finite values."""
    A = read_csv_matrix(path)
    bad = np.argwhere(~np.isfinite(A))
    if len(bad):
        i, j = bad[0]
        raise NonFiniteInputError(
            f"{path}: non-finite value at data row {i + 1}, column {j + 1}"
        )
    return A


def _is_float(x: str) -> bool:
    try:
        float(x)
        return True
    except ValueError:
        return False


def write_csv_matrix(path: Path, A: np.ndarray, header: list[str] | None = None):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        for row in A:
            writer.writerow([repr(float(x)) for x in row])


def write_csv_rows(path: Path, rows: list[list], header: list[str]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(x)) if isinstance(x, float) else x for x in row]
            )


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(outdir: Path, command: str, args: argparse.Namespace,
                   started: float, inputs: list[str], counts: dict | None = None):
    flags = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "command") and v is not None
    }
    manifest = {
        "command": command,
        "version": __version__,
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "duration_seconds": time.time() - started,
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in inputs],
    }
    if counts is not None:
        manifest["counts"] = counts
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def _outdir(args) -> Path:
    # Called once the command's results are ready, just before its first
    # output file is written, so an input or compute error leaves no
    # directory behind.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_xy(args):
    X = read_finite_matrix(args.x)
    Y = read_finite_matrix(args.y) if args.y else None
    if not args.no_center:
        X = center_columns(X)
        if Y is not None:
            Y = Y - Y.mean(axis=0)
    return X, Y


def cmd_simulate(args) -> int:
    started = time.time()
    try:
        inst = generate(SimConfig(
            scenario=args.scenario, n=args.n, p=args.p, q=args.q,
            sigma=args.sigma, gamma=args.gamma,
            snr=args.snr, holdout=args.holdout, seed=args.seed,
        ))
    except (ValueError, DimensionError) as exc:
        raise ParseError(f"invalid scenario parameters: {exc}") from exc
    out = _outdir(args)
    write_csv_matrix(out / "X.csv", inst.X)
    if inst.Y is not None:
        name = "y.csv" if args.scenario == "univariate" else "Y.csv"
        write_csv_matrix(out / name, inst.Y)
    if inst.X_test is not None:
        write_csv_matrix(out / "X_test.csv", inst.X_test)
        if inst.Y_test is not None:
            write_csv_matrix(out / "Y_test.csv", inst.Y_test)
    with open(out / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(inst.truth, fh, indent=2)
    write_manifest(out, "simulate", args, started, [])
    return EXIT_OK


def cmd_path(args) -> int:
    started = time.time()
    X, Y = _load_xy(args)
    grid = GridConfig(K=args.k_max, L=args.budget, rho=args.rho)
    path = dynamic_grid(X, Y, args.model, grid)
    out = _outdir(args)
    with open(out / "path.json", "w", encoding="utf-8") as fh:
        json.dump(path_to_dict(path), fh, indent=2)
    write_csv_rows(
        out / "lambda_grid.csv",
        [[lam, size] for lam, size in path.lambda_grid],
        header=["lambda", "terminal_size"],
    )
    write_manifest(out, "path", args, started,
                   [p for p in (args.x, args.y) if p])
    return EXIT_OK


def cmd_fit(args) -> int:
    started = time.time()
    X = read_finite_matrix(args.x)
    Y = read_finite_matrix(args.y) if args.y else None
    # Q2 runs for regression-mode pls only; fit checks a v-fold pick's folds.
    runs_q2 = args.model != "pca" and args.mode == "regression"
    if runs_q2 and args.folds > X.shape[0]:
        raise ParseError(f"--folds {args.folds} exceeds the {X.shape[0]} rows of X")
    test = tuple(read_finite_matrix(f) for f in args.test) if args.test else None
    grid = GridConfig(K=args.k_max or X.shape[1], L=args.budget, rho=args.rho)
    strategy = replace(args.pick, folds=args.folds)
    if runs_q2:  # Q2's folds are refused before any grid, after what fit refuses first
        _fit_arguments(X, Y, args.model, args.components, strategy, args.mode, grid, test,
                       args.seed)
        Xc, Yc = (X, Y) if args.no_center else (X - X.mean(axis=0), Y - Y.mean(axis=0))
        with _grid_refusals_first(Xc, Yc, args.model):
            _check_training_folds(X, Y, args.folds, args.seed, args.components)
    result = fit(
        X, Y, model=args.model, H=args.components, strategy=strategy,
        mode=args.mode, grid_cfg=grid, center=not args.no_center, test=test,
        seed=args.seed,
    )
    q2_values = [None] * result.H
    if runs_q2:
        report = q2(
            X, Y, model=result.model, H=result.H, folds=args.folds,
            seed=args.seed, supports=[c.subset for c in result.components],
        )
        q2_values = [float(v) for v in report.total]
    rows = []
    for i, comp in enumerate(result.components):
        rows.append([
            comp.h, comp.subset.size,
            float(result.pev[i]), float(result.cpev[i]),
            "" if q2_values[i] is None else q2_values[i],
        ])
    preds = None if test is None else predict(result, test[0])

    out = _outdir(args)
    with open(out / "model.json", "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(result), fh, indent=2)
    write_csv_rows(out / "report.csv", rows,
                   header=["component", "k", "pev", "cpev", "q2"])
    if preds is not None:
        write_csv_matrix(out / "predictions.csv", preds)
    write_manifest(out, "fit", args, started,
                   [p for p in (args.x, args.y, *(args.test or [])) if p])
    return EXIT_OK


def cmd_oracle(args) -> int:
    started = time.time()
    heur_bits = _read_compare(args.compare) if args.compare else None
    X, Y = _load_xy(args)
    p = X.shape[1]
    if heur_bits and any(len(bits) != p for bits in heur_bits.values()):
        raise DimensionError(f"{args.compare}: bucket bits need one bit per column of X, {p}")
    result = exhaustive_path(X, Y, args.model, max_k=args.max_k)
    out = _outdir(args)
    with open(out / "oracle.json", "w", encoding="utf-8") as fh:
        json.dump(oracle_to_dict(result), fh, indent=2)
    if heur_bits is not None:
        rows = []
        for k in sorted(result.per_size):
            ob = result.per_size[k][0].bitstring()
            hb = heur_bits.get(k, "")
            rows.append([k, hb, ob, int(hb == ob)])
        write_csv_rows(out / "compare.csv", rows,
                       header=["k", "heuristic_bits", "oracle_bits", "match"])
    write_manifest(out, "oracle", args, started,
                   [p for p in (args.x, args.y, args.compare) if p],
                   counts={"enumerated": result.enumerated_count,
                           "scored": result.scored_count})
    return EXIT_OK


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ParseError(f"{path}: {exc}") from exc


def _is_int(x) -> bool:
    # A JSON integer; json.load gives bool for true/false.
    return isinstance(x, int) and not isinstance(x, bool)


def _read_compare(path: str) -> dict[int, str]:
    """The bucket bits of a path.json, by subset size: one bucket per k,
    each a string of 0s and 1s with k ones."""
    doc = _read_json(path)
    buckets = doc.get("buckets") if isinstance(doc, dict) else None
    if not isinstance(buckets, list) or not all(
        isinstance(b, dict) and _is_int(b.get("k")) and isinstance(b.get("bits"), str)
        for b in buckets
    ):
        raise ParseError(
            f"{path}: expected an object whose buckets are objects with an "
            "integer k and a string bits"
        )
    bits = {}
    for b in buckets:
        k = b["k"]
        if k in bits:
            raise ParseError(f"{path}: more than one bucket with k={k}")
        if not set(b["bits"]) <= {"0", "1"} or b["bits"].count("1") != k:
            raise ParseError(f"{path}: bucket k={k} bits must be 0s and 1s with {k} ones")
        bits[k] = b["bits"]
    return bits


def _subset_in(p: int, indices, what: str) -> Subset:
    if any(j < 0 or j >= p for j in indices):
        raise DimensionError(f"{what} index out of range 0..{p - 1}")
    return Subset.from_indices(p, indices)


def _parse_subset(text: str, p: int) -> Subset:
    if set(text) <= {"0", "1"} and len(text) == p:
        return Subset.from_bitstring(text)
    try:
        indices = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"cannot parse subset {text!r}") from exc
    return _subset_in(p, indices, "subset")


def cmd_metrics(args) -> int:
    started = time.time()
    truth = _read_json(args.truth)
    if not isinstance(truth, dict):
        raise ParseError(f"{args.truth}: expected a JSON object")
    p = truth.get("p")
    if p is not None and not (_is_int(p) and p >= 1):
        raise ParseError(f"{args.truth}: p must be an integer of at least 1, got {p!r}")
    support = truth.get("support")
    if not isinstance(support, list) or not all(_is_int(j) for j in support):
        raise ParseError(f"{args.truth}: support must be a list of integers")
    p = args.p or p
    if p is None:
        raise ParseError("truth file does not record p; pass --p")
    s_true = _subset_in(p, support, "truth support")
    s_hat = _parse_subset(args.subset, p)
    Y_hat = read_csv_matrix(args.pred) if args.pred else None
    Y_test = read_csv_matrix(args.test) if args.test else None
    report = metrics(s_hat, s_true, Y_hat, Y_test)
    row = [
        "" if report.msep is None else repr(report.msep),
        "" if report.sensitivity is None else repr(report.sensitivity),
        "" if report.specificity is None else repr(report.specificity),
        "" if report.f1 is None else repr(report.f1),
    ]
    text = "msep,sensitivity,specificity,f1\r\n" + ",".join(row) + "\r\n"
    if args.out:
        out = _outdir(args)
        with open(out / "metrics.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        write_manifest(out, "metrics", args, started,
                       [f for f in (args.pred, args.truth, args.test) if f])
    sys.stdout.write(text)
    return EXIT_OK


def _int_from(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _open_unit(text: str) -> float:
    """argparse type: a float strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {value}")
    return value


PICK_FORMS = "fixed-k=K, cpev-drop=F, min-msep, max-cor"


def _pick(text: str) -> PickStrategy:
    """argparse type: a pick strategy in one of PICK_FORMS."""
    try:
        return PickStrategy.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid pick {text!r} ({exc}); expected one of {PICK_FORMS}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetpath",
        description="Best-subset solution paths for PCA and PLS models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a benchmark dataset")
    sim.add_argument("--scenario", required=True,
                     choices=["multiresponse", "two-component", "univariate", "pca-cov"])
    sim.add_argument("--n", type=_int_from(2), default=100)
    sim.add_argument("--p", type=_int_from(1), default=15)
    sim.add_argument("--q", type=_int_from(1), default=10)
    sim.add_argument("--sigma", type=float, default=3.0)
    sim.add_argument("--gamma", type=int, default=5)
    sim.add_argument("--snr", type=float, default=3.0)
    sim.add_argument("--holdout", type=_int_from(0), default=0)
    sim.add_argument("--seed", type=_int_from(0), default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    def common_model_flags(p_):
        p_.add_argument("--model", required=True, choices=["pls1", "pls2", "pca"])
        p_.add_argument("--x", required=True)
        p_.add_argument("--y")
        p_.add_argument("--no-center", action="store_true")
        p_.add_argument("--out", required=True)

    pth = sub.add_parser("path", help="compute a best-subset solution path")
    common_model_flags(pth)
    pth.add_argument("--k-max", type=_int_from(1), required=True)
    pth.add_argument("--budget", type=_int_from(2), default=50)
    pth.add_argument("--rho", type=_open_unit, default=0.9)
    pth.set_defaults(func=cmd_path)

    fit_p = sub.add_parser("fit", help="fit a multi-component sparse model")
    common_model_flags(fit_p)
    fit_p.add_argument("--components", type=_int_from(1), default=1)
    fit_p.add_argument("--mode", choices=["regression", "canonical"],
                       default="regression")
    fit_p.add_argument("--pick", required=True, type=_pick,
                       help=f"one of {PICK_FORMS}")
    fit_p.add_argument("--folds", type=_int_from(2), default=5)
    fit_p.add_argument("--k-max", type=_int_from(1), default=None)
    fit_p.add_argument("--budget", type=_int_from(2), default=50)
    fit_p.add_argument("--rho", type=_open_unit, default=0.9)
    fit_p.add_argument("--test", nargs=2, metavar=("X_TEST", "Y_TEST"))
    fit_p.add_argument("--seed", type=_int_from(0), default=0)
    fit_p.set_defaults(func=cmd_fit)

    orc = sub.add_parser("oracle", help="exhaustive best subsets (small p)")
    common_model_flags(orc)
    orc.add_argument("--max-k", type=_int_from(1), default=None)
    orc.add_argument("--compare", help="path.json to compare against")
    orc.set_defaults(func=cmd_oracle)

    met = sub.add_parser("metrics", help="selection/prediction metrics")
    met.add_argument("--pred")
    met.add_argument("--truth", required=True)
    met.add_argument("--test")
    met.add_argument("--subset", required=True,
                     help="bit string or space/comma separated indices")
    met.add_argument("--p", type=_int_from(1), default=None)
    met.add_argument("--out")
    met.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
