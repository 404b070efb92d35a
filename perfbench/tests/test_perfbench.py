"""Tests of the benchmark itself: its output checks reject corrupted
outputs, self times add up on a synthetic span tree, and the metric names
in BENCHMARK.json are the ones the command prints.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from subsetpath import path as sp_path  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def small_pls1():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 12))
    y = X[:, :3] @ np.array([3.0, -2.0, 1.5]) + rng.standard_normal(30)
    X, y = X - X.mean(0), (y - y.mean())[:, None]
    path = sp_path.dynamic_grid(X, y, "pls1", sp_path.GridConfig(K=5, L=10))
    z2 = (X.T @ y[:, 0] / 30) ** 2
    return json.loads(json.dumps(sp_path.path_to_dict(path))), z2


@pytest.fixture(scope="module")
def small_path_doc(small_pls1):
    return small_pls1[0]


def corrupt(doc, k, **fields):
    doc = json.loads(json.dumps(doc))
    for b in doc["buckets"]:
        if b["k"] == k:
            b.update(fields)
    return doc


def test_path_check_accepts_real_output(small_path_doc):
    assert checks.check_path_doc(small_path_doc, K=5, p=12) == []


def test_path_check_rejects_wrong_size_bucket(small_path_doc):
    bits = checks.bucket_bits(small_path_doc)[3]
    extra = bits.index("0")
    bad = corrupt(small_path_doc, 3, bits=bits[:extra] + "1" + bits[extra + 1:])
    assert checks.check_path_doc(bad, K=5, p=12) == ["bucket 3: holds 4 bits"]


def test_path_check_rejects_missing_bucket_and_bad_values(small_path_doc):
    doc = json.loads(json.dumps(small_path_doc))
    doc["buckets"] = [b for b in doc["buckets"] if b["k"] != 2]
    assert any("not 1..5" in f for f in checks.check_path_doc(doc, K=5, p=12))
    bad = corrupt(small_path_doc, 4, objective=float("nan"))
    assert any("bucket 4: objective" in f for f in checks.check_path_doc(bad, 5, 12))
    bad = json.loads(json.dumps(small_path_doc))
    top = max(bad["lambda_grid"], key=lambda e: e["lambda"])
    top["terminal_size"] = 2
    assert any("top penalty" in f for f in checks.check_path_doc(bad, 5, 12))


def _compare_fixture():
    path_doc = {"buckets": [{"k": 1, "bits": "0100", "objective": -2.0},
                            {"k": 2, "bits": "0110", "objective": -3.0}]}
    oracle_doc = {"buckets": [{"k": 1, "bits": "0100", "objective": -2.0},
                              {"k": 2, "bits": "1100", "objective": -3.5}]}
    rows = [{"k": "1", "heuristic_bits": "0100", "oracle_bits": "0100", "match": "1"},
            {"k": "2", "heuristic_bits": "0110", "oracle_bits": "1100", "match": "0"}]
    return rows, path_doc, oracle_doc


def test_compare_check_accepts_consistent_rows():
    rows, path_doc, oracle_doc = _compare_fixture()
    assert checks.check_compare(rows, path_doc, oracle_doc, K=2, p=4) == []


def test_compare_check_rejects_mismatched_oracle_bits():
    rows, path_doc, oracle_doc = _compare_fixture()
    rows[1]["oracle_bits"] = "0110"   # no longer what oracle.json says
    found = checks.check_compare(rows, path_doc, oracle_doc, K=2, p=4)
    assert "compare k=2: oracle bits differ from oracle.json" in found
    assert "compare k=2: match column is 0" in found

    rows, path_doc, oracle_doc = _compare_fixture()
    rows[0]["oracle_bits"] = "0101"   # wrong size for k = 1
    found = checks.check_compare(rows, path_doc, oracle_doc, K=2, p=4)
    assert "compare k=1: oracle bits are not a size-1 subset of 4" in found


def test_compare_check_rejects_heuristic_beating_the_oracle():
    rows, path_doc, oracle_doc = _compare_fixture()
    path_doc["buckets"][1]["objective"] = -4.0
    found = checks.check_compare(rows, path_doc, oracle_doc, K=2, p=4)
    assert any("beats the exhaustive optimum" in f for f in found)


def test_corner_value_check_rejects_a_wrong_objective(small_pls1):
    doc, z2 = small_pls1
    assert checks.check_corner_values(doc, lambda idx: -float(np.sum(z2[idx]))) == []
    bad = corrupt(doc, 2, objective=doc["buckets"][1]["objective"] * 1.01)
    assert checks.check_corner_values(bad, lambda idx: -float(np.sum(z2[idx])))[0] \
        .startswith("bucket 2: objective")


def test_nonzero_exit_fails_the_task(tmp_path, monkeypatch):
    wl = workloads.CertFit()
    inp = wl.prepare(seed=0, count=1, workdir=tmp_path)[0]
    real_main = workloads.cli.main

    def failing_oracle(argv):
        return 6 if argv[0] == "oracle" else real_main(argv)

    monkeypatch.setattr(workloads.cli, "main", failing_oracle)
    res = run.run_task(wl, inp, 0, tmp_path / "task-0", traced=False)
    assert not res.ok
    assert res.failures == ["oracle exited with code 6"]


def test_unreadable_output_fails_the_task(tmp_path, monkeypatch):
    wl = workloads.CertFit()
    inp = wl.prepare(seed=0, count=1, workdir=tmp_path)[0]
    real_main = workloads.cli.main

    def truncating_fit(argv):
        code = real_main(argv)
        if argv[0] == "fit":
            out = tmp_path / "task-0" / "fit" / "model.json"
            out.write_text(out.read_text()[:100])
        return code

    monkeypatch.setattr(workloads.cli, "main", truncating_fit)
    res = run.run_task(wl, inp, 0, tmp_path / "task-0", traced=False)
    assert not res.ok and not res.bug
    assert res.failures[0].startswith("output missing or malformed")


def test_self_times_on_nested_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),      # overlaps a (another thread)
        Span(3, "a.child", 2.0, 3.0, 1, 0),
        Span(4, "late", 9.5, 11.0, 0, 0),  # clipped to the parent's end
        Span(5, "other", 20.0, 21.0, None, 1),
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 10.0 - 5.0 - 0.5, 1: 2.0, 2: 3.0, 3: 1.0,
                                 4: 1.5, 5: 1.0})


def test_tracer_records_parents_and_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap("inner", inner, lambda a, k, r, e: e is not None)

    def outer(x):
        return traced_inner(x)

    traced_outer = tracer.wrap("outer", outer)
    tracer.task = 7
    assert traced_outer(2) == 2
    with pytest.raises(ValueError):
        traced_outer(-1)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert [s.info for s in by_name["inner"]] == [False, True]
    assert [s.parent for s in by_name["inner"]] == [s.id for s in by_name["outer"]]
    assert all(s.task == 7 for s in tracer.spans)


def test_benchmark_json_matches_the_metric_tables():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["pls1-wide", "cert-fit"]
    e2e = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    assert e2e == {k: v for k, v in run.END_TO_END.items() if k not in run.UNGATED}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert per_layer == layers.METRICS
    prefixes = [pre for spec in layers.LAYER_MAP.values() for pre in spec[0]]
    assert all(name.startswith(("trace.", *prefixes)) for name in per_layer)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_benchmark_metrics(trace):
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "cert-fit",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    table = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_command_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "cert-fit",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
