"""``bench compare`` verdicts follow the pairing rule and the bounds."""

from __future__ import annotations

import json

from bench.compare import compare, verdict
from bench.spec import load_benchmark


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [value * 1.05 for value in base]
    assert verdict(base, faster, wins=10, pairs=10, bound=0.1, higher_is_better=True) == "improved"
    assert verdict(base, faster, wins=8, pairs=10, bound=0.1, higher_is_better=True) == "improved"
    mixed = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 100.8, 99.2, 100.0]
    assert verdict(base, mixed, wins=5, pairs=10, bound=0.1, higher_is_better=True) == "unchanged"
    slower = [value * 0.8 for value in base]
    assert verdict(base, slower, wins=0, pairs=10, bound=0.1, higher_is_better=True) == "regressed"
    assert verdict(base, slower, wins=0, pairs=10, bound=0.1, higher_is_better=False) == "improved"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, mixed, wins=5, pairs=10, bound=0.1, higher_is_better=True) == "unresolved"


def test_compare_report_pairs_by_seed(tmp_path):
    benchmark = load_benchmark()
    names = [m["name"] for m in benchmark["end_to_end"]]

    def write(path, scale):
        with open(path, "w") as handle:
            for seed in range(10):
                metrics = {name: 1.0 + 0.001 * seed for name in names}
                metrics["throughput_per_s"] *= scale
                handle.write(json.dumps({
                    "workload": "serve-engine", "seed": seed, "trace": False,
                    "metrics": metrics,
                }) + "\n")

    write(tmp_path / "a.jsonl", 1.0)
    write(tmp_path / "b.jsonl", 1.2)
    report = compare(str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"), benchmark)
    rows = {line.split()[0]: line for line in report.splitlines() if line.startswith("  ")}
    assert "10 pairs" in report
    assert rows["throughput_per_s"].rstrip().endswith("improved")
    assert rows["setup_s"].rstrip().endswith("unchanged")
