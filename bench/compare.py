"""``python -m bench compare A B``: is B better, worse or the same as A?

A and B are each a history file (JSON lines written by ``bench run``) or
a git-sha prefix selecting rows of ``bench/history.jsonl``.  Only
untraced rows count.  Runs are paired by workload and seed, in order.
For each workload and end-to-end metric the report gives each side's
median and quartiles, the share of pairs B wins (ties count for
neither) and a verdict, following the choosing-metrics rule:

* ``improved``   B wins at least 9 of 10 pairs over at least 10 pairs and
  the medians differ by more than A's interquartile range, or every B
  run beats every A run;
* ``unresolved`` A's own interquartile range is wider than the bound;
* ``regressed``  B's median is worse than A's by more than the bound;
* ``unchanged``  otherwise.

Bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from bench.spec import HISTORY_FILE

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_rows(source: str) -> list[dict]:
    """Untraced rows from a history file, or from the history by sha prefix."""
    path = Path(source)
    if path.is_file():
        rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    else:
        rows = [
            row
            for row in (
                json.loads(line)
                for line in HISTORY_FILE.read_text().splitlines()
                if line.strip()
            )
            if (row.get("git", {}).get("sha") or "").startswith(source)
        ] if HISTORY_FILE.exists() else []
    return [row for row in rows if not row.get("trace")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _pairs(a_rows: list[dict], b_rows: list[dict]) -> list[tuple[dict, dict]]:
    pairs = []
    unmatched = list(b_rows)
    for a in a_rows:
        for index, b in enumerate(unmatched):
            if b["seed"] == a["seed"]:
                pairs.append((a, unmatched.pop(index)))
                break
    return pairs


def verdict(a: list[float], b: list[float], wins: int, pairs: int,
            bound: float, higher_is_better: bool) -> str:
    """Classify B against A for one metric (see the module docstring)."""
    a_q1, a_median, a_q3 = quartiles(a)
    _, b_median, _ = quartiles(b)
    spread = a_q3 - a_q1
    better = b_median > a_median if higher_is_better else b_median < a_median
    separated = min(b) > max(a) if higher_is_better else max(b) < min(a)
    if separated or (
        pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and better
        and abs(b_median - a_median) > spread
    ):
        return "improved"
    if a_median and spread / abs(a_median) > bound:
        return "unresolved"
    worse = (a_median - b_median) if higher_is_better else (b_median - a_median)
    if a_median and worse / abs(a_median) > bound:
        return "regressed"
    return "unchanged"


def compare(a_source: str, b_source: str, benchmark: dict) -> str:
    """The comparison report (one block per workload)."""
    a_rows, b_rows = load_rows(a_source), load_rows(b_source)
    lines = [f"A = {a_source} ({len(a_rows)} runs)   B = {b_source} ({len(b_rows)} runs)"]
    for workload in [w["name"] for w in benchmark["workloads"]]:
        a_set = [row for row in a_rows if row["workload"] == workload]
        b_set = [row for row in b_rows if row["workload"] == workload]
        if not a_set or not b_set:
            continue
        pairs = _pairs(a_set, b_set)
        lines.append(f"\n{workload}: {len(a_set)} A runs, {len(b_set)} B runs, {len(pairs)} pairs")
        lines.append(
            f"  {'metric':<20} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30}"
            f" {'change':>8} {'B wins':>8}  verdict"
        )
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            higher = metric["better"] == "higher"
            a = [row["metrics"][name] for row in a_set]
            b = [row["metrics"][name] for row in b_set]
            wins = sum(
                (pb["metrics"][name] > pa["metrics"][name]) if higher
                else (pb["metrics"][name] < pa["metrics"][name])
                for pa, pb in pairs
            )
            a_q = quartiles(a)
            b_q = quartiles(b)
            change = (b_q[1] - a_q[1]) / a_q[1] if a_q[1] else float("nan")
            lines.append(
                f"  {name:<20} {_fmt(a_q):>30} {_fmt(b_q):>30} {100 * change:>+7.1f}%"
                f" {wins:>3}/{len(pairs):<4}  "
                + verdict(a, b, wins, len(pairs), metric["bound"], higher)
            )
    return "\n".join(lines)


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
