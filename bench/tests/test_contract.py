"""The benchmark prints exactly the metrics BENCHMARK.json publishes."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

from bench import harness
from bench.spec import E2E_UNITS, LAYER_UNITS, ROOT, load_benchmark, workload_names
from bench.workloads import TINY, WORKLOADS

BENCHMARK = load_benchmark()


def test_unit_tables_match_benchmark_json():
    assert E2E_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert LAYER_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert workload_names(BENCHMARK) == list(WORKLOADS) == list(TINY)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_the_published_metrics(workload, capfd, monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "HISTORY_FILE", tmp_path / "history.jsonl")
    status = harness.run_workload(workload, seed=0, seconds=1.0, trace=False, tiny=True)
    lines = capfd.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    published = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == published
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
        assert any(line.split()[:1] == [name] for line in lines[:-1]), f"{name} not printed"
    row = json.loads((tmp_path / "history.jsonl").read_text())
    assert row["workload"] == workload and row["seed"] == 0
    assert {"cpu", "nproc", "python", "numpy", "blas", "pins"} <= set(row["machine"])
    assert set(row["git"]) == {"sha", "dirty"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out", "history.jsonl"))
    completed = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:],
         "--workload", "serve-engine", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
