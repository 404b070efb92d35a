"""The degenerate-input matrix beyond tier-1's slice (tests/test_cli.py).

Every run of path, oracle and fit, for every model, centered and with
--no-center, on random, constant, zero-column, duplicated-column, ~1e200,
~1e76 (cross-products finite, but a Gram trace above the solver's bound
of 2^500), ~1e-200 and saturated data (column 1 at 1.7e308, whose mean
overflows), and one metrics run per kind of data, as the predictions
against finite random observations, must end with a documented exit
code: 0 with its --out directory, or an error code with exactly one
`error:` line on stderr and no --out directory. A traceback (an exception
escaping cli.main) or a RuntimeWarning fails the run. The shapes include both routes of
path._cheap_rows above 100 columns: (3, 101, 102) puts pls2 on the p x p
kernel, solved on demand; (4, 120, 3) is planned on the M kernel.

Run with: PYTHONPATH=src python -m pytest -q ci
"""

import json
import shutil
import warnings

import numpy as np
import pytest

from subsetpath.cli import main, write_csv_matrix

SHAPES = [(2, 3, 1), (3, 1, 4), (3, 20, 2), (4, 3, 5), (5, 8, 8), (2, 110, 2),
          (3, 101, 102), (4, 120, 3)]
KINDS = ["random", "constant", "zero-column", "duplicated-column", "huge", "large", "tiny",
         "saturated"]
# Fits run every grid to K = p; a budget of 12 runs per grid keeps the
# shapes above 100 columns within a few seconds each.
COMMANDS = [
    ["path", "--k-max", "2"],
    ["oracle", "--max-k", "2"],
    ["fit", "--pick", "fixed-k=1", "--components", "2", "--folds", "2", "--budget", "12"],
    ["fit", "--pick", "cpev-drop=0.5", "--folds", "2", "--budget", "12"],
    ["fit", "--pick", "min-msep", "--folds", "2", "--budget", "12"],
    ["fit", "--pick", "min-msep", "--components", "2", "--folds", "2", "--budget", "12"],
    ["fit", "--pick", "max-cor", "--mode", "canonical", "--folds", "2", "--budget", "12"],
]
DOCUMENTED_ERRORS = (2, 3, 4, 5, 6, 7)


def matrix(kind, n, p, seed):
    A = np.random.default_rng(seed).standard_normal((n, p))
    if kind == "constant":
        return np.full((n, p), 2.5)
    if kind == "zero-column":
        A[:, 0] = 0.0
    elif kind == "duplicated-column":
        A[:, -1] = A[:, 0]
    elif kind == "huge":
        A *= 1e200
    elif kind == "large":
        A *= 1e76
    elif kind == "tiny":
        A *= 1e-200
    elif kind == "saturated":
        A[:, 0] = 1.7e308
    return A


def runs(tmp_path, kind, n, p, q):
    seed = 1000 * n + p
    write_csv_matrix(tmp_path / "X.csv", matrix(kind, n, p, seed))
    Y = matrix(kind, n, q, seed + 1)
    write_csv_matrix(tmp_path / "Y.csv", Y)
    write_csv_matrix(tmp_path / "y.csv", Y[:, :1])
    for model in ("pls1", "pls2", "pca"):
        y = [] if model == "pca" else [
            "--y", str(tmp_path / ("y.csv" if model == "pls1" else "Y.csv"))]
        for command in COMMANDS:
            for center in ([], ["--no-center"]):
                yield [command[0], "--model", model, "--x", str(tmp_path / "X.csv"), *y,
                       *command[1:], *center, "--out", str(tmp_path / "out")]


def assert_documented_exit(argv, out, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    err = capsys.readouterr().err
    if code == 0:
        assert out.is_dir(), argv
    else:
        assert code in DOCUMENTED_ERRORS, (argv, code, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert not out.exists(), argv
    shutil.rmtree(out, ignore_errors=True)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n, p, q", SHAPES)
def test_every_run_ends_with_a_documented_exit(tmp_path, capsys, kind, n, p, q):
    for argv in runs(tmp_path, kind, n, p, q):
        assert_documented_exit(argv, tmp_path / "out", capsys)


@pytest.mark.parametrize("kind", KINDS)
def test_every_metrics_run_ends_with_a_documented_exit(tmp_path, capsys, kind):
    n, p = 5, 8
    write_csv_matrix(tmp_path / "pred.csv", matrix(kind, n, p, seed=p))
    write_csv_matrix(tmp_path / "test.csv", matrix("random", n, p, seed=p + 1))
    (tmp_path / "truth.json").write_text(json.dumps({"p": p, "support": [0, 1, 2]}))
    argv = ["metrics", "--truth", str(tmp_path / "truth.json"), "--subset", "0 1 3",
            "--pred", str(tmp_path / "pred.csv"), "--test", str(tmp_path / "test.csv"),
            "--out", str(tmp_path / "out")]
    assert_documented_exit(argv, tmp_path / "out", capsys)
