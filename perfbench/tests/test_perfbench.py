"""Tests of the benchmark itself (not of the library).

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The first test runs every workload end to end at the shortest length
(one operation), so the module takes a minute or two.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]

import jcmspl  # noqa: E402
import jcmspl.cli  # noqa: E402
import harness  # noqa: E402
from tracer import layer_metrics, op_totals  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", 0, "--seconds", 0,
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    # the report above the result line names every metric with its unit
    report = proc.stdout.splitlines()[:-1]
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in report), m["name"]


def _perturb_A(fit):
    def perturbed(dataset, hyper):
        model, trace = fit(dataset, hyper)
        A = model.A + 1e-3 * np.ones_like(model.A)
        return type(model)(A=A, B=model.B, C=model.C, variant=model.variant,
                           hyper=model.hyper), trace
    return perturbed


@pytest.mark.parametrize("workload", ["small_cli", "large_train"])
def test_wrong_result_counts_as_failure(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(jcmspl, "fit", _perturb_A(jcmspl.fit))
    monkeypatch.setattr(jcmspl.cli, "fit", _perturb_A(jcmspl.cli.fit))
    record = harness.run_workload(workload, 0, 0, False, tmp_path / "work",
                                  setup_repeats=1)
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]
    assert record["metrics"]["fail_frac"] == 1.0
    assert "loss" in record["failures"][0]
    # a failed operation's times stay out of the medians
    assert record["samples"]["operations"] == []
    assert record["metrics"]["op_s"] is None


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "small_cli", "--seed", 0,
                  "--seconds", 1, "--trace", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tail_leaves_ten_samples_above():
    values = [float(v) for v in range(50)]
    value, pct = harness.tail(values)
    assert pct == 80
    assert sum(v > value for v in values) == 10
    assert harness.tail(values[:19]) is None


def test_self_time_subtracts_direct_children():
    # op 0: a 10 s fit holding two 3 s solves, one of which holds a 1 s eigh
    spans = [
        ["trainer.fit", 0.0, 10.0, None, 0, {"iterations": 2, "ridge_fallbacks": 0}],
        ["linalg.sylvester_solve", 1.0, 4.0, 0, 0, None],
        ["linalg.symmetric_eigen", 1.5, 2.5, 1, 0, None],
        ["linalg.sylvester_solve", 5.0, 8.0, 0, 0, None],
    ]
    m = layer_metrics(op_totals(spans)[0])
    assert m["trainer.fit.self_s"] == pytest.approx(4.0)
    assert m["linalg.sylvester_solve.calls"] == 2
    assert m["linalg.sylvester_solve.s"] == pytest.approx(6.0)
    assert m["linalg.sylvester_solve.self_s"] == pytest.approx(5.0)
    assert m["trainer.fit.iterations"] == 2
    assert m["cli.main.calls"] == 0
