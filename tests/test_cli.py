import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subsetpath
from subsetpath import cli, components
from subsetpath.cli import main, read_csv_matrix, write_csv_matrix
from subsetpath.errors import DegenerateScoreError
from subsetpath.path import GridConfig


def run_cli(*argv):
    return main(list(argv))


def write_toy(tmp_path):
    # 2-column identity design with z = (0.5, 1.0)
    write_csv_matrix(tmp_path / "X.csv", np.eye(2))
    write_csv_matrix(tmp_path / "y.csv", np.array([[1.0], [2.0]]))
    return tmp_path / "X.csv", tmp_path / "y.csv"


class TestCsvIo:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((7, 3)) * np.pi
        write_csv_matrix(tmp_path / "a.csv", A)
        B = read_csv_matrix(str(tmp_path / "a.csv"))
        np.testing.assert_array_equal(A, B)

    def test_header_autodetected(self, tmp_path):
        (tmp_path / "h.csv").write_text("alpha,beta\n1.0,2.0\n3.0,4.0\n")
        A = read_csv_matrix(str(tmp_path / "h.csv"))
        np.testing.assert_array_equal(A, [[1.0, 2.0], [3.0, 4.0]])

    def test_malformed_cell_names_location(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("1.0,2.0\n3.0,oops\n")
        code = run_cli(
            "path", "--model", "pls1", "--x", str(tmp_path / "bad.csv"),
            "--y", str(tmp_path / "bad.csv"), "--k-max", "1",
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "column 2" in err


class TestSimulateCommand:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--scenario", "multiresponse",
                       "--seed", "3", "--out", str(out))
        assert code == 0
        X = read_csv_matrix(str(out / "X.csv"))
        Y = read_csv_matrix(str(out / "Y.csv"))
        truth = json.loads((out / "truth.json").read_text())
        assert X.shape == (100, 15) and Y.shape == (100, 10)
        assert len(truth["support"]) == 10
        assert (out / "manifest.json").exists()

    def test_univariate_writes_lowercase_y(self, tmp_path):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--scenario", "univariate", "--n", "30",
                       "--p", "20", "--gamma", "10", "--snr", "5",
                       "--seed", "1", "--out", str(out))
        assert code == 0
        assert (out / "y.csv").exists()

    @pytest.mark.parametrize("bad", [
        ["--sigma", "nan"],
        ["--sigma", "inf"],
        ["--sigma", "-1"],
        ["--scenario", "univariate", "--snr", "nan"],
    ])
    def test_unusable_noise_exits_2_before_writing(self, tmp_path, capsys, bad):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--scenario", "multiresponse", *bad, "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario parameters:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_deterministic_output_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("simulate", "--scenario", "pca-cov", "--p", "10",
                           "--gamma", "0", "--n", "40", "--seed", "9",
                           "--out", str(out)) == 0
        assert (a / "X.csv").read_bytes() == (b / "X.csv").read_bytes()

    def test_bad_scenario_parameters_exit_2(self, tmp_path):
        code = run_cli("simulate", "--scenario", "pca-cov", "--p", "9",
                       "--gamma", "0", "--out", str(tmp_path / "x"))
        assert code == 2

    @pytest.mark.parametrize("bad", [
        ["--n", "0"],
        ["--n", "1"],                  # one row cannot be centered
        ["--p", "0", "--gamma", "0"],
        ["--q", "0"],
        ["--holdout", "-3"],
        ["--seed", "-1"],
    ])
    def test_unusable_size_exits_2_before_writing(self, tmp_path, capsys, bad):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--scenario", "multiresponse", *bad, "--out", str(out))
        assert code == 2
        assert "must be at least" in capsys.readouterr().err
        assert not out.exists()


class TestPathCommand:
    def test_toy_bucket(self, tmp_path):
        x, y = write_toy(tmp_path)
        out = tmp_path / "out"
        code = run_cli("path", "--model", "pls1", "--x", str(x), "--y", str(y),
                       "--k-max", "2", "--budget", "8", "--no-center",
                       "--out", str(out))
        assert code == 0
        doc = json.loads((out / "path.json").read_text())
        assert doc["buckets"][0] == {"k": 1, "bits": "01", "objective": -1.0}
        grid = (out / "lambda_grid.csv").read_text().splitlines()
        assert grid[0] == "lambda,terminal_size"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "path"
        assert len(manifest["inputs"]) == 2
        assert all(len(i["sha256"]) == 64 for i in manifest["inputs"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_solver_abort_exits_4(self, tmp_path):
        # Values large enough that the objective overflows at the first
        # evaluation for every penalty.
        write_csv_matrix(tmp_path / "X.csv", np.array([[1e200], [-1e200]]))
        write_csv_matrix(tmp_path / "y.csv", np.array([[1e200], [-1e200]]))
        with np.errstate(over="ignore"):
            code = run_cli("path", "--model", "pls1", "--x", str(tmp_path / "X.csv"),
                           "--y", str(tmp_path / "y.csv"), "--k-max", "1",
                           "--no-center", "--out", str(tmp_path / "out"))
        assert code == 4

    def test_k_max_exceeding_p_exits_3(self, tmp_path):
        x, y = write_toy(tmp_path)
        code = run_cli("path", "--model", "pls1", "--x", str(x), "--y", str(y),
                       "--k-max", "3", "--out", str(tmp_path / "out"))
        assert code == 3

    def test_deterministic_path_json(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        sim = tmp_path / "sim"
        run_cli("simulate", "--scenario", "multiresponse", "--seed", "4",
                "--out", str(sim))
        for out in (out1, out2):
            code = run_cli("path", "--model", "pls2", "--x", str(sim / "X.csv"),
                           "--y", str(sim / "Y.csv"), "--k-max", "8",
                           "--budget", "10", "--out", str(out))
            assert code == 0
        assert (out1 / "path.json").read_bytes() == (out2 / "path.json").read_bytes()

    def test_simulate_then_path_covers_all_sizes(self, tmp_path):
        sim, out = tmp_path / "sim", tmp_path / "out"
        run_cli("simulate", "--scenario", "multiresponse", "--seed", "12",
                "--out", str(sim))
        code = run_cli("path", "--model", "pls2", "--x", str(sim / "X.csv"),
                       "--y", str(sim / "Y.csv"), "--k-max", "15",
                       "--budget", "50", "--out", str(out))
        assert code == 0
        doc = json.loads((out / "path.json").read_text())
        ks = [b["k"] for b in doc["buckets"]]
        assert ks == list(range(1, 16))
        assert all(b["bits"].count("1") == b["k"] for b in doc["buckets"])


class TestNoOutputOnError:
    """A command that exits with an error leaves no --out directory."""

    @pytest.fixture
    def sim(self, tmp_path):
        sim = tmp_path / "sim"  # multiresponse defaults: p = 15
        assert run_cli("simulate", "--scenario", "multiresponse", "--seed", "1",
                       "--out", str(sim)) == 0
        return sim

    def check(self, capsys, out, code, want):
        assert code == want
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_path(self, tmp_path, sim, capsys):
        out = tmp_path / "out"
        code = run_cli("path", "--model", "pls2", "--x", str(sim / "X.csv"),
                       "--y", str(sim / "Y.csv"), "--k-max", "99", "--out", str(out))
        self.check(capsys, out, code, 3)

    def test_oracle(self, tmp_path, sim, capsys):
        out = tmp_path / "out"
        compare = tmp_path / "bad.json"
        compare.write_text("[1]")
        code = run_cli("oracle", "--model", "pls2", "--x", str(sim / "X.csv"),
                       "--y", str(sim / "Y.csv"), "--compare", str(compare),
                       "--out", str(out))
        self.check(capsys, out, code, 2)

    def test_fit(self, tmp_path, sim, capsys):
        out = tmp_path / "out"
        code = run_cli("fit", "--model", "pls2", "--x", str(sim / "X.csv"),
                       "--y", str(sim / "Y.csv"), "--k-max", "99",
                       "--pick", "fixed-k=3", "--out", str(out))
        self.check(capsys, out, code, 3)

    @pytest.mark.parametrize("command", ["path", "fit", "oracle"])
    @pytest.mark.parametrize("model, y", [("pls2", None), ("pca", "Y.csv")])
    def test_response_unfit_for_the_model(self, tmp_path, sim, capsys, command, model, y):
        out = tmp_path / "out"
        argv = [command, "--model", model, "--x", str(sim / "X.csv"), "--out", str(out)]
        if y:
            argv += ["--y", str(sim / y)]
        argv += {"path": ["--k-max", "3"], "fit": ["--pick", "fixed-k=3"],
                 "oracle": ["--max-k", "2"]}[command]
        self.check(capsys, out, run_cli(*argv), 3)


class TestFitCommand:
    def test_full_subsets_reach_unit_cpev(self, tmp_path):
        rng = np.random.default_rng(2)
        write_csv_matrix(tmp_path / "X.csv", rng.standard_normal((25, 4)))
        out = tmp_path / "out"
        code = run_cli("fit", "--model", "pca", "--x", str(tmp_path / "X.csv"),
                       "--components", "4", "--pick", "fixed-k=4",
                       "--budget", "8", "--out", str(out))
        assert code == 0
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[0] == "component,k,pev,cpev,q2"
        last = rows[-1].split(",")
        assert float(last[3]) == pytest.approx(1.0, abs=1e-10)

    def test_pca_on_fewer_rows_than_folds(self, tmp_path):
        # A pca fit runs no Q2 and no v-fold pick, so --folds (5) is not read.
        rng = np.random.default_rng(3)
        write_csv_matrix(tmp_path / "X.csv", rng.standard_normal((3, 4)))
        code = run_cli("fit", "--model", "pca", "--x", str(tmp_path / "X.csv"),
                       "--pick", "fixed-k=2", "--budget", "6", "--out", str(tmp_path / "out"))
        assert code == 0

    def test_predictions_on_training_data_reproduce_fit(self, tmp_path):
        sim, out = tmp_path / "sim", tmp_path / "out"
        run_cli("simulate", "--scenario", "multiresponse", "--sigma", "1.0",
                "--seed", "6", "--out", str(sim))
        code = run_cli("fit", "--model", "pls2", "--x", str(sim / "X.csv"),
                       "--y", str(sim / "Y.csv"), "--components", "1",
                       "--pick", "fixed-k=10", "--budget", "10",
                       "--test", str(sim / "X.csv"), str(sim / "Y.csv"),
                       "--out", str(out))
        assert code == 0
        preds = read_csv_matrix(str(out / "predictions.csv"))
        model = json.loads((out / "model.json").read_text())
        X = read_csv_matrix(str(sim / "X.csv"))
        Y = read_csv_matrix(str(sim / "Y.csv"))
        beta = np.array(model["beta"])
        want = (X - X.mean(axis=0)) @ beta + Y.mean(axis=0)
        np.testing.assert_allclose(preds, want, atol=1e-8)
        assert model["components"][0]["k"] == 10
        assert len(model["column_means"]) == 15

    def test_report_carries_q2_for_regression(self, tmp_path):
        sim, out = tmp_path / "sim", tmp_path / "out"
        run_cli("simulate", "--scenario", "multiresponse", "--sigma", "1.0",
                "--seed", "8", "--out", str(sim))
        code = run_cli("fit", "--model", "pls2", "--x", str(sim / "X.csv"),
                       "--y", str(sim / "Y.csv"), "--components", "2",
                       "--pick", "fixed-k=10", "--budget", "8",
                       "--out", str(out))
        assert code == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        q2_first = float(rows[0].split(",")[4])
        assert -1.0 <= q2_first <= 1.0


class TestFitSeed:
    """fit --seed seeds the v-fold split of the CV pick and of Q2, exactly as
    the API's fit(seed=) and q2(seed=) do."""

    @pytest.fixture(scope="class")
    def sim(self, tmp_path_factory):
        sim = tmp_path_factory.mktemp("seeded") / "sim"
        assert run_cli("simulate", "--scenario", "multiresponse", "--p", "8",
                       "--gamma", "3", "--sigma", "2", "--seed", "5",
                       "--out", str(sim)) == 0
        return sim

    def fit_cli(self, sim, out, seed):
        assert run_cli("fit", "--model", "pls2", "--x", str(sim / "X.csv"),
                       "--y", str(sim / "Y.csv"), "--components", "2",
                       "--pick", "min-msep", "--budget", "12", "--seed", str(seed),
                       "--out", str(out)) == 0
        return out

    def test_cli_matches_the_api(self, sim, tmp_path):
        out = self.fit_cli(sim, tmp_path / "out", 7)
        X = read_csv_matrix(str(sim / "X.csv"))
        Y = read_csv_matrix(str(sim / "Y.csv"))
        result = components.fit(X, Y, model="pls2", H=2,
                                strategy=components.PickStrategy.min_msep(folds=5),
                                grid_cfg=GridConfig(K=8, L=12), seed=7)
        assert (out / "model.json").read_text() == json.dumps(
            components.model_to_dict(result), indent=2)
        report = components.q2(X, Y, model="pls2", H=2, folds=5, seed=7,
                               supports=[c.subset for c in result.components])
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[4]) for r in rows] == [float(v) for v in report.total]

    def test_seed_changes_the_report(self, sim, tmp_path):
        one = self.fit_cli(sim, tmp_path / "one", 1)
        two = self.fit_cli(sim, tmp_path / "two", 2)
        assert (one / "report.csv").read_bytes() != (two / "report.csv").read_bytes()

    @pytest.mark.parametrize("pick", [
        ["--pick", "min-msep"],
        ["--pick", "fixed-k=2"],
        ["--mode", "canonical", "--pick", "max-cor"],
    ], ids=["min-msep", "fixed-k", "max-cor"])
    def test_negative_seed_exits_2_before_any_grid(self, sim, tmp_path, capsys,
                                                   monkeypatch, pick):
        def no_work(*args, **kwargs):
            raise AssertionError("a grid was solved before the seed was checked")

        monkeypatch.setattr(components, "dynamic_grid", no_work)
        out = tmp_path / "out"
        assert run_cli("fit", "--model", "pls2", "--x", str(sim / "X.csv"),
                       "--y", str(sim / "Y.csv"), "--components", "2", *pick,
                       "--seed", "-1", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "--seed" in err and "must be at least 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["path", "oracle"])
    def test_path_and_oracle_take_no_seed(self, sim, tmp_path, capsys, command):
        extra = ["--k-max", "3"] if command == "path" else []
        assert run_cli(command, "--model", "pls2", "--x", str(sim / "X.csv"),
                       "--y", str(sim / "Y.csv"), *extra, "--seed", "1",
                       "--out", str(tmp_path / "out")) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestOracleCommand:
    def test_toy_closed_form(self, tmp_path):
        x, y = write_toy(tmp_path)
        out = tmp_path / "out"
        code = run_cli("oracle", "--model", "pls1", "--x", str(x), "--y", str(y),
                       "--no-center", "--out", str(out))
        assert code == 0
        doc = json.loads((out / "oracle.json").read_text())
        assert doc["oracle"] is True
        assert doc["buckets"][0]["bits"] == "01"

    def test_compare_table(self, tmp_path):
        sim, pout, oout = tmp_path / "sim", tmp_path / "p", tmp_path / "o"
        run_cli("simulate", "--scenario", "multiresponse", "--p", "8",
                "--gamma", "3", "--seed", "2", "--out", str(sim))
        run_cli("path", "--model", "pls2", "--x", str(sim / "X.csv"),
                "--y", str(sim / "Y.csv"), "--k-max", "8", "--budget", "20",
                "--out", str(pout))
        code = run_cli("oracle", "--model", "pls2", "--x", str(sim / "X.csv"),
                       "--y", str(sim / "Y.csv"),
                       "--compare", str(pout / "path.json"), "--out", str(oout))
        assert code == 0
        rows = (oout / "compare.csv").read_text().splitlines()
        assert rows[0] == "k,heuristic_bits,oracle_bits,match"
        assert len(rows) == 9
        matches = [int(r.split(",")[3]) for r in rows[1:]]
        assert sum(matches) >= 6  # heuristic finds most exact optima

    def test_manifest_records_counts(self, tmp_path):
        sim, out = tmp_path / "sim", tmp_path / "o"
        run_cli("simulate", "--scenario", "multiresponse", "--p", "8",
                "--gamma", "3", "--seed", "2", "--out", str(sim))
        code = run_cli("oracle", "--model", "pls2", "--x", str(sim / "X.csv"),
                       "--y", str(sim / "Y.csv"), "--out", str(out))
        assert code == 0
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        assert set(counts) == {"enumerated", "scored"}
        assert counts["enumerated"] == 255
        assert 8 <= counts["scored"] < 255

    @pytest.mark.parametrize("text", [
        "{not json",
        *map(json.dumps, [
            [1],
            {"buckets": 3},
            {"buckets": [{"bits": "1"}]},
            {"buckets": [{"k": 1}]},
            {"buckets": [{"k": "1", "bits": "01"}]},
            {"buckets": [{"k": True, "bits": "01"}]},
            {"buckets": [{"k": 1, "bits": 1}]},
            {},
            {"buckets": [{"k": 1, "bits": "1x"}]},
            {"buckets": [{"k": 1, "bits": "11"}]},
            {"buckets": [{"k": 1, "bits": "01"}, {"k": 1, "bits": "10"}]},
        ]),
    ])
    def test_malformed_compare_exits_2_before_enumerating(self, tmp_path, capsys,
                                                         monkeypatch, text):
        def no_work(*args, **kwargs):
            raise AssertionError("enumeration started before --compare was read")

        monkeypatch.setattr(cli, "exhaustive_path", no_work)
        x, y = write_toy(tmp_path)
        compare = tmp_path / "path.json"
        compare.write_text(text)
        code = run_cli("oracle", "--model", "pls1", "--x", str(x), "--y", str(y),
                       "--compare", str(compare), "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {compare}: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_compare_bits_of_other_data_exit_3_before_enumerating(self, tmp_path, capsys,
                                                                   monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("enumeration started before --compare was checked")

        monkeypatch.setattr(cli, "exhaustive_path", no_work)
        x, y = write_toy(tmp_path)  # p = 2
        compare = tmp_path / "path.json"
        compare.write_text(json.dumps({"buckets": [{"k": 1, "bits": "100"}]}))
        out = tmp_path / "o"
        assert run_cli("oracle", "--model", "pls1", "--x", str(x), "--y", str(y),
                       "--compare", str(compare), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {compare}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_pls1_counts(self, tmp_path):
        x, y = write_toy(tmp_path)
        out = tmp_path / "out"
        assert run_cli("oracle", "--model", "pls1", "--x", str(x), "--y", str(y),
                       "--no-center", "--out", str(out)) == 0
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        assert counts == {"enumerated": 2, "scored": 2}

    def test_pls1_multicolumn_response_exits_3(self, tmp_path, capsys):
        # The same message as path gives, not a row-count mismatch of the
        # flattened response.
        sim = tmp_path / "sim"
        run_cli("simulate", "--scenario", "multiresponse", "--p", "6", "--gamma", "2",
                "--seed", "1", "--out", str(sim))
        code = run_cli("oracle", "--model", "pls1", "--x", str(sim / "X.csv"),
                       "--y", str(sim / "Y.csv"), "--out", str(tmp_path / "o"))
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: pls1 requires a single response column, got 10\n"

    def test_guard_exit_6(self, tmp_path):
        rng = np.random.default_rng(0)
        write_csv_matrix(tmp_path / "X.csv", rng.standard_normal((4, 26)))
        write_csv_matrix(tmp_path / "y.csv", rng.standard_normal((4, 1)))
        code = run_cli("oracle", "--model", "pls1", "--x", str(tmp_path / "X.csv"),
                       "--y", str(tmp_path / "y.csv"), "--out", str(tmp_path / "o"))
        assert code == 6


class TestMetricsCommand:
    @pytest.fixture()
    def truth_file(self, tmp_path):
        truth = {"p": 4, "support": [0, 1]}
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth))
        return path

    def test_perfect_subset(self, truth_file, capsys):
        code = run_cli("metrics", "--truth", str(truth_file), "--subset", "1100")
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "msep,sensitivity,specificity,f1"
        assert out[1] == ",1.0,1.0,1.0"

    def test_disjoint_subset(self, truth_file, capsys):
        code = run_cli("metrics", "--truth", str(truth_file), "--subset", "0011")
        assert code == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[1] == "0.0"

    def test_msep_zero(self, truth_file, tmp_path, capsys):
        Y = np.arange(6.0).reshape(3, 2)
        write_csv_matrix(tmp_path / "pred.csv", Y)
        write_csv_matrix(tmp_path / "test.csv", Y)
        code = run_cli("metrics", "--truth", str(truth_file),
                       "--subset", "1100", "--pred", str(tmp_path / "pred.csv"),
                       "--test", str(tmp_path / "test.csv"))
        assert code == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[0] == "0.0"

    def test_zero_p_exits_2(self, truth_file, tmp_path, capsys):
        out = tmp_path / "m"
        code = run_cli("metrics", "--truth", str(truth_file), "--subset", "1100",
                       "--p", "0", "--out", str(out))
        assert code == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_support_beyond_p_exits_3(self, tmp_path, capsys):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps({"support": [0, 3]}))
        code = run_cli("metrics", "--truth", str(path), "--subset", "110", "--p", "3")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: truth support index out of range 0..2")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("truth, message", [
        ({"p": 15}, "support must be a list of integers"),
        ([1, 2], "expected a JSON object"),
        ({"p": 15, "support": ["a"]}, "support must be a list of integers"),
        ({"p": 15, "support": [1.5]}, "support must be a list of integers"),
        ({"p": 15, "support": [True]}, "support must be a list of integers"),
        ({"p": 15, "support": 3}, "support must be a list of integers"),
        ({"p": "x", "support": [1]}, "p must be an integer of at least 1"),
        ({"p": 15.0, "support": [1]}, "p must be an integer of at least 1"),
        ({"p": True, "support": [0]}, "p must be an integer of at least 1"),
        ({"p": 0, "support": []}, "p must be an integer of at least 1"),
    ])
    def test_malformed_truth_exits_2(self, tmp_path, capsys, truth, message):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth))
        code = run_cli("metrics", "--truth", str(path), "--subset", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert err.count("\n") == 1

    def test_truth_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "truth.json"
        path.write_bytes(b"\xff\xfe")
        assert run_cli("metrics", "--truth", str(path), "--subset", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_indices_form(self, truth_file, capsys):
        code = run_cli("metrics", "--truth", str(truth_file), "--subset", "0 1")
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1] == ",1.0,1.0,1.0"


class TestErrorExits:
    """Package errors end with a documented exit code and one error line."""

    def sim(self, tmp_path, zero_y=False):
        sim = tmp_path / "sim"
        run_cli("simulate", "--scenario", "multiresponse", "--p", "6", "--gamma", "2",
                "--seed", "1", "--out", str(sim))
        if zero_y:
            write_csv_matrix(sim / "Y.csv", np.zeros((100, 10)))
            write_csv_matrix(sim / "y.csv", np.zeros((100, 1)))
        else:
            Y = read_csv_matrix(str(sim / "Y.csv"))
            write_csv_matrix(sim / "y.csv", Y[:, :1])
        return sim

    def argv(self, command, model, sim, out):
        y = sim / ("y.csv" if model == "pls1" else "Y.csv")
        extra = (["--k-max", "3"] if command == "path"
                 else ["--pick", "fixed-k=3", "--components", "2"])
        return [command, "--model", model, "--x", str(sim / "X.csv"), "--y", str(y),
                "--budget", "6", *extra, "--out", str(out)]

    def assert_one_error_line(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["path", "fit"])
    @pytest.mark.parametrize("model", ["pls1", "pls2"])
    def test_zero_response_exits_7(self, tmp_path, capsys, command, model):
        sim = self.sim(tmp_path, zero_y=True)
        assert run_cli(*self.argv(command, model, sim, tmp_path / "out")) == 7
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("value", [2.0, 0.1])
    def test_constant_response_column_exits_7(self, tmp_path, capsys, value):
        # Q2 refuses the column; fit reports it before writing any output.
        sim = self.sim(tmp_path)
        Y = read_csv_matrix(str(sim / "Y.csv"))
        Y[:, 0] = value
        write_csv_matrix(sim / "Y.csv", Y)
        assert run_cli(*self.argv("fit", "pls2", sim, tmp_path / "out")) == 7
        self.assert_one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_degenerate_score_exits_7(self, tmp_path, capsys, monkeypatch):
        def zero_score(*args, **kwargs):
            raise DegenerateScoreError("component 1 has a zero score")

        monkeypatch.setattr(cli, "fit", zero_score)
        sim = self.sim(tmp_path)
        assert run_cli(*self.argv("fit", "pls2", sim, tmp_path / "out")) == 7
        self.assert_one_error_line(capsys)

    def test_repeated_component_exits_5(self, tmp_path, capsys, monkeypatch):
        # Without deflation the second component repeats the first, so
        # C^T U is singular and the adjusted weights cannot reproduce it.
        monkeypatch.setattr(components, "deflate", lambda X, Y, *args: (X, Y))
        sim = self.sim(tmp_path)
        assert run_cli(*self.argv("fit", "pls2", sim, tmp_path / "out")) == 5
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["path", "oracle"])
    def test_overflowing_data_exits_4(self, tmp_path, capsys, command):
        # Finite input whose cross-products overflow.
        (tmp_path / "X.csv").write_text("1,2,1e200\n2,1,-1e200\n0.5,3,1e200\n")
        argv = [command, "--model", "pca", "--x", str(tmp_path / "X.csv"),
                "--out", str(tmp_path / "out")]
        if command == "path":
            argv += ["--k-max", "2"]
        assert run_cli(*argv) == 4
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("case", ["pca", "pca-wide", "pls2-q-ge-p", "fit-pca"])
    def test_all_cross_products_overflowing_exit_4(self, tmp_path, capsys, case):
        # Every entry near 1e160, so every cross-product is inf and every
        # corner block lambda_max scores is non-finite: X^T X / n for pca,
        # the n x n block for pca with n < p, G = M M^T for pls2 with q >= p.
        signs = np.where(np.arange(18).reshape(6, 3) % 4 < 2, 1.0, -1.0)
        X = signs * (1.0 + np.arange(18).reshape(6, 3) / 17.0) * 1e160
        write_csv_matrix(tmp_path / "X.csv", X.T if case == "pca-wide" else X)
        write_csv_matrix(tmp_path / "Y.csv", X[:, ::-1])
        model = "pls2" if case == "pls2-q-ge-p" else "pca"
        argv = ["fit" if case == "fit-pca" else "path", "--model", model,
                "--x", str(tmp_path / "X.csv"), "--k-max", "2",
                "--out", str(tmp_path / "out")]
        if model == "pls2":
            argv += ["--y", str(tmp_path / "Y.csv")]
        if case == "fit-pca":
            argv += ["--pick", "fixed-k=1"]
        assert run_cli(*argv) == 4
        self.assert_one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["path", "fit"])
    @pytest.mark.parametrize("model", ["pls1", "pls2", "pca"])
    def test_overflowing_data_prints_only_the_error_line(self, tmp_path, command, model):
        # In a fresh interpreter, so that a numpy RuntimeWarning would reach
        # stderr as it does for a user.
        (tmp_path / "X.csv").write_text("1,2,1e200\n2,1,-1e200\n0.5,3,1e200\n")
        (tmp_path / "Y.csv").write_text("1e200,1\n-1e200,2\n1e200,3\n")
        (tmp_path / "y.csv").write_text("1e200\n-1e200\n1e200\n")
        argv = [command, "--model", model, "--x", str(tmp_path / "X.csv"),
                "--out", str(tmp_path / "out"), "--k-max", "2"]
        if model != "pca":
            argv += ["--y", str(tmp_path / ("y.csv" if model == "pls1" else "Y.csv"))]
        if command == "fit":
            argv += ["--pick", "fixed-k=1", "--folds", "2"]
        env = dict(os.environ, PYTHONPATH=str(Path(subsetpath.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "subsetpath.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 4
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    def test_oracle_max_k_below_1_exits_2_before_reading(self, tmp_path, capsys,
                                                         monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("data read before the flags were checked")

        monkeypatch.setattr(cli, "read_finite_matrix", no_work)
        sim = self.sim(tmp_path)
        assert run_cli("oracle", "--model", "pca", "--x", str(sim / "X.csv"),
                       "--max-k", "0", "--out", str(tmp_path / "out")) == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, model, bad", [
        ("path", "pls2", ["--budget", "1"]),
        ("path", "pls2", ["--budget", "0"]),
        ("path", "pls2", ["--rho", "1.5"]),
        ("path", "pls2", ["--k-max", "0"]),
        ("fit", "pls2", ["--folds", "1"]),
        ("fit", "pls2", ["--folds", "1000"]),
        ("fit", "pls2", ["--pick", "bogus"]),
        ("fit", "pls2", ["--pick", "fixed-k=x"]),
        ("fit", "pls2", ["--pick", "fixed-k=0"]),
        ("fit", "pls2", ["--components", "0"]),
        ("fit", "pls2", ["--mode", "canonical", "--pick", "min-msep"]),
        ("fit", "pls2", ["--k-max", "0"]),
        ("fit", "pca", ["--pick", "min-msep"]),
        ("fit", "pca", ["--pick", "max-cor"]),
        ("fit", "pls2", ["--pick", "fixed-k=9"]),  # above p = 6
        ("fit", "pls2", ["--k-max", "3", "--pick", "fixed-k=4"]),
        ("fit", "pls2", ["--mode", "canonical", "--pick", "max-cor", "--folds", "1000"]),
        ("fit", "pls2", ["--pick", "min-msep=3"]),
        ("fit", "pls2", ["--pick", "max-cor=abc"]),
        ("fit", "pls2", ["--pick", "min-msep="]),
        ("path", "pls2", ["--solver", "adam"]),  # the solver has no settings
        ("fit", "pls2", ["--solver", "adam"]),
    ])
    def test_bad_flag_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                              command, model, bad):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")

        monkeypatch.setattr(cli, "dynamic_grid", no_work)
        monkeypatch.setattr(components, "dynamic_grid", no_work)
        sim = self.sim(tmp_path)
        argv = self.argv(command, model, sim, tmp_path / "out") + bad
        if model == "pca":
            argv = [a for a in argv if a not in ("--y", str(sim / "Y.csv"))]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        if bad[0] == "--pick" and bad[1] in ("bogus", "fixed-k=x", "fixed-k=0", "min-msep=3",
                                             "max-cor=abc", "min-msep="):
            for form in ("fixed-k=K", "cpev-drop=F", "min-msep", "max-cor"):
                assert form in err
        if bad[-1] in ("fixed-k=9", "fixed-k=4"):
            assert "exceeds the largest subset size" in err

    @pytest.mark.parametrize("command", ["path", "oracle"])
    @pytest.mark.parametrize("name", ["X.csv", "Y.csv"])
    def test_non_finite_input_exits_4(self, tmp_path, capsys, command, name):
        sim = self.sim(tmp_path)
        A = read_csv_matrix(str(sim / name))
        A[3, 1] = np.nan
        write_csv_matrix(sim / name, A)
        argv = [command, "--model", "pls2", "--x", str(sim / "X.csv"),
                "--y", str(sim / "Y.csv"), "--out", str(tmp_path / "out")]
        if command == "path":
            argv += ["--k-max", "3"]
        assert run_cli(*argv) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {sim / name}: non-finite value at data row 4, column 2")

    def holdout_argv(self, tmp_path, monkeypatch, X_test, Y_test):
        # A fit whose --test pair is (X_test, Y_test); it must be rejected
        # before any work.
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the holdout was checked")

        monkeypatch.setattr(components, "dynamic_grid", no_work)
        sim = self.sim(tmp_path)
        write_csv_matrix(tmp_path / "X_test.csv", X_test(read_csv_matrix(str(sim / "X.csv"))))
        write_csv_matrix(tmp_path / "Y_test.csv", Y_test(read_csv_matrix(str(sim / "Y.csv"))))
        return self.argv("fit", "pls2", sim, tmp_path / "out") + [
            "--test", str(tmp_path / "X_test.csv"), str(tmp_path / "Y_test.csv")]

    def test_non_finite_holdout_exits_4(self, tmp_path, capsys, monkeypatch):
        def with_nan(X):
            X[0, 0] = np.nan
            return X

        argv = self.holdout_argv(tmp_path, monkeypatch, with_nan, lambda Y: Y)
        assert run_cli(*argv) == 4
        self.assert_one_error_line(capsys)
        assert not (tmp_path / "out" / "predictions.csv").exists()

    @pytest.mark.parametrize("X_test, Y_test", [
        (lambda X: X[:1], lambda Y: Y[:40]),    # row counts differ
        (lambda X: X[:, :5], lambda Y: Y),      # a column short of X
        (lambda X: X, lambda Y: Y[:, :4]),      # fewer responses than Y
    ])
    def test_mismatched_holdout_exits_3(self, tmp_path, capsys, monkeypatch,
                                        X_test, Y_test):
        argv = self.holdout_argv(tmp_path, monkeypatch, X_test, Y_test)
        assert run_cli(*argv) == 3
        self.assert_one_error_line(capsys)
        assert not (tmp_path / "out" / "predictions.csv").exists()

    @pytest.mark.parametrize("model, extra", [
        ("pca", []),
        ("pls2", ["--mode", "canonical"]),
    ])
    def test_holdout_without_predictions_exits_2(self, tmp_path, capsys, monkeypatch,
                                                 model, extra):
        # Only regression-mode pls fits predict, so --test is refused for
        # the others before any work.
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")

        monkeypatch.setattr(components, "dynamic_grid", no_work)
        sim = self.sim(tmp_path)
        argv = self.argv("fit", model, sim, tmp_path / "out") + extra
        if model == "pca":
            argv = [a for a in argv if a not in ("--y", str(sim / "Y.csv"))]
        y_test = sim / ("X.csv" if model == "pca" else "Y.csv")
        argv += ["--test", str(sim / "X.csv"), str(y_test)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err == "error: a test pair needs a pls model in regression mode\n"
        assert not (tmp_path / "out" / "predictions.csv").exists()


class TestFoldsRefusedBeforeAnyGrid:
    """A fit whose Q2 report, or whose v-fold pick, cannot use its folds
    (a training fold of no more rows than components) exits 7 before any
    grid is solved, but after every refusal that comes first at any later
    point: argument and shape errors (exit 2 or 3) and data whose
    cross-products overflow (exit 4)."""

    @pytest.fixture
    def grids(self, monkeypatch):
        calls = []
        solve = components.dynamic_grid
        monkeypatch.setattr(components, "dynamic_grid",
                            lambda *args: calls.append(args[2]) or solve(*args))
        return calls

    def argv(self, tmp_path, X, Y):
        write_csv_matrix(tmp_path / "X.csv", X)
        write_csv_matrix(tmp_path / "Y.csv", Y)
        return ["fit", "--model", "pls2", "--x", str(tmp_path / "X.csv"),
                "--y", str(tmp_path / "Y.csv"), "--folds", "2", "--out", str(tmp_path / "out")]

    def random(self, tmp_path, n, p, q):
        rng = np.random.default_rng(7)
        return self.argv(tmp_path, rng.standard_normal((n, p)), rng.standard_normal((n, q)))

    def wide(self, tmp_path):
        # 3 rows, p = 101, q = 102: the p x p kernel above 100 columns, where
        # a grid takes seconds. Two folds leave a training fold of one row.
        return self.random(tmp_path, 3, 101, 102)

    @pytest.mark.parametrize("shape, extra", [
        ((3, 101, 102), ["--pick", "fixed-k=1"]),                       # Q2's folds
        ((3, 101, 102), ["--pick", "max-cor", "--mode", "canonical"]),  # the pick's, no Q2
        ((3, 101, 102), ["--pick", "min-msep", "--no-center"]),
        # Training folds of 2 rows for 2 components, and of 3 rows for 3.
        ((4, 120, 3), ["--pick", "fixed-k=1", "--components", "2"]),
        ((4, 120, 3), ["--pick", "min-msep", "--components", "2"]),
        ((4, 120, 3), ["--pick", "max-cor", "--mode", "canonical", "--components", "2"]),
        ((6, 12, 3), ["--pick", "min-msep", "--components", "3"]),
        # A one-row training fold's response is constant too; the rows
        # refusal names the cause.
        ((3, 20, 2), ["--pick", "fixed-k=1"]),
    ], ids=["q2", "max-cor", "min-msep", "q2-2-rows-H-2", "min-msep-2-rows-H-2",
            "max-cor-2-rows-H-2", "min-msep-3-rows-H-3", "q2-1-row-narrow"])
    def test_exits_7_before_any_grid(self, tmp_path, capsys, grids, shape, extra):
        assert run_cli(*self.random(tmp_path, *shape), *extra) == 7
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too few for" in err
        assert not (tmp_path / "out").exists()
        assert grids == []

    def test_one_row_more_than_components_solves(self, tmp_path, grids):
        # 6 rows in two folds leave training folds of 3 rows, one more than
        # the 2 components: both grids are solved and the fit succeeds.
        argv = self.random(tmp_path, 6, 12, 3)
        assert run_cli(*argv, "--pick", "min-msep", "--components", "2") == 0
        assert len(grids) == 2
        assert (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize("extra, code", [
        (["--pick", "fixed-k=1", "--k-max", "102"], 3),
        (["--pick", "fixed-k=5", "--k-max", "3"], 2),
        (["--pick", "fixed-k=1", "--model", "pls1"], 3),  # 102 response columns
        (["--pick", "fixed-k=1", "--test", "X.csv", "X.csv"], 3),
        (["--pick", "max-cor", "--mode", "canonical", "--k-max", "102"], 3),
    ], ids=["k-max-above-p", "fixed-k-above-k-max", "pls1-wide-y", "test-columns",
            "max-cor-k-max-above-p"])
    def test_earlier_refusals_keep_their_exit(self, tmp_path, capsys, grids, extra, code):
        argv = self.wide(tmp_path)
        extra = [str(tmp_path / a) if a == "X.csv" else a for a in extra]
        assert run_cli(*argv, *extra) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert grids == []

    def test_overflow_still_exits_4(self, tmp_path, capsys):
        # A v-fold pick with no Q2 (TestErrorExits covers the Q2 case).
        X = np.array([[1.0, 2.0, 1e200], [2.0, 1.0, -1e200], [0.5, 3.0, 1e200]])
        Y = np.array([[1e200, 1.0], [-1e200, 2.0], [1e200, 3.0]])
        argv = self.argv(tmp_path, X, Y) + ["--pick", "max-cor", "--mode", "canonical"]
        assert run_cli(*argv) == 4
        assert capsys.readouterr().err.count("\n") == 1


# (n, p, q): pls2 with q >= p and pca with n >= p on the p x p kernel, and
# both on the smaller M kernel at (3, 5, 2).
DEGENERATE_SHAPES = [(2, 1, 1), (3, 2, 2), (3, 5, 2)]
DEGENERATE_KINDS = ["constant", "zero-column", "duplicated-column", "huge", "tiny"]


def degenerate_matrix(kind, n, p, seed):
    A = np.random.default_rng(seed).standard_normal((n, p))
    if kind == "constant":
        return np.full((n, p), 2.5)
    if kind == "zero-column":
        A[:, 0] = 0.0
    elif kind == "duplicated-column":
        A[:, -1] = A[:, 0]
    elif kind == "huge":
        A *= 1e200
    elif kind == "tiny":
        A *= 1e-200
    return A


class TestDegenerateInputMatrix:
    """A seeded slice of the degenerate-input matrix: every run of path,
    oracle and fit, for every model, on constant, zero-column,
    duplicated-column, ~1e200 and ~1e-200 data, ends with a documented exit
    code; an error prints exactly one line and leaves no --out directory."""

    COMMANDS = [
        ["path", "--k-max", "2"],
        ["oracle", "--max-k", "2"],
        ["fit", "--pick", "fixed-k=1", "--components", "2", "--folds", "2"],
        ["fit", "--pick", "cpev-drop=0.5", "--no-center", "--folds", "2"],
    ]

    def runs(self, tmp_path, kind, n, p, q, seed):
        write_csv_matrix(tmp_path / "X.csv", degenerate_matrix(kind, n, p, seed))
        Y = degenerate_matrix(kind, n, q, seed + 1)
        write_csv_matrix(tmp_path / "Y.csv", Y)
        write_csv_matrix(tmp_path / "y.csv", Y[:, :1])
        for model in ("pls1", "pls2", "pca"):
            y = [] if model == "pca" else [
                "--y", str(tmp_path / ("y.csv" if model == "pls1" else "Y.csv"))]
            commands = self.COMMANDS
            if model == "pls2":
                commands = commands + [["fit", "--mode", "canonical", "--pick", "max-cor",
                                        "--folds", "2"]]
            for command in commands:
                yield [command[0], "--model", model, "--x", str(tmp_path / "X.csv"), *y,
                       *command[1:], "--out", str(tmp_path / "out")]

    def check(self, argv, code, err, out):
        if code == 0:
            assert out.is_dir(), argv
            return
        assert code in (2, 3, 4, 5, 6, 7), (argv, code, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert not out.exists(), argv

    @pytest.mark.parametrize("kind", DEGENERATE_KINDS)
    @pytest.mark.parametrize("n, p, q", DEGENERATE_SHAPES)
    def test_every_run_ends_with_a_documented_exit(self, tmp_path, capsys, kind, n, p, q):
        codes = set()
        for argv in self.runs(tmp_path, kind, n, p, q, seed=n * 100 + p):
            code = run_cli(*argv)
            self.check(argv, code, capsys.readouterr().err, tmp_path / "out")
            codes.add(code)
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
        if kind == "huge":
            assert 0 not in codes  # every cross-product overflows
