"""Launcher (parent) and workload runner (child) of ``python -m bench run``.

The parent starts one fresh child process per workload, one at a time,
with BLAS/OpenMP pinned to one thread, waits for it, prints every metric
with its unit, appends a stamped row to ``bench/history.jsonl`` and
prints the result object as the last line of standard output.  It never
imports the program; a checkout without ``src/repro`` makes the child
fail, and the parent then exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from bench.spec import E2E_UNITS, HISTORY_FILE, LAYER_UNITS, OUT_DIR, ROOT, WORK_DIR

#: Environment of every child: single-threaded numerics, fixed hashing.
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


# ----------------------------------------------------------------------
# Parent
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> int:
    """Run one workload in a child process; returns the exit code."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    result_path = workdir / "result.json"
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    command = [
        sys.executable, "-m", "bench", "_child",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(trace)), "--workdir", str(workdir),
    ] + (["--tiny"] if tiny else [])
    try:
        try:
            child = subprocess.run(command, cwd=ROOT, env=env, timeout=120 + 2.5 * seconds)
        except subprocess.TimeoutExpired:
            print(f"bench: {workload} did not finish in time; child killed", file=sys.stderr)
            return 3
        if child.returncode != 0 or not result_path.exists():
            print(f"bench: {workload} child failed (exit {child.returncode})", file=sys.stderr)
            return child.returncode or 2
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = LAYER_UNITS if trace else E2E_UNITS
    if set(result["metrics"]) != set(units):
        print(f"bench: {workload} reported {sorted(result['metrics'])}", file=sys.stderr)
        return 2
    print(render(result, units))
    append_history(result)
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"] + len(result["problems"]),
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }), flush=True)
    return 0 if correct else 1


def render(result: dict, units: dict) -> str:
    """The human-readable report of one workload run."""
    lines = [
        f"bench {result['workload']}  seed={result['seed']}  seconds={result['seconds']:g}  "
        f"trace={int(result['trace'])}  wall={result['wall_s']:.1f}s"
    ]
    for name, unit in units.items():
        lines.append(f"  {name:<36} {result['metrics'][name]:>14.6g} {unit}")
    for name, value in result["diagnostics"].items():
        lines.append(f"  ({name:<34} {value:>14.6g})")
    for phase, entry in result.get("phases", {}).items():
        busy = entry["wall_s"] - entry["idle_s"]
        share = entry["other_s"] / busy if busy > 0 else 0.0
        lines.append(
            f"  phase {phase:<12} wall {entry['wall_s']:8.3f}s  idle {entry['idle_s']:7.3f}s  "
            f"other {entry['other_s']:7.4f}s ({100 * share:.1f}% of busy)"
        )
    if result.get("missing_targets"):
        lines.append(f"  untraced (not in program): {', '.join(result['missing_targets'])}")
    checks = "ok" if not result["problems"] else "FAILED: " + "; ".join(result["problems"])
    lines.append(f"  checks: {checks}  (attempted {result['attempted']}, failed {result['failed']})")
    if result["errors"]:
        lines.append(f"  first errors: {'; '.join(result['errors'])}")
    return "\n".join(lines)


def _git(*args: str) -> str | None:
    try:
        completed = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def append_history(result: dict) -> None:
    """Append one stamped row; the history file is never rewritten."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    row = {
        "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git": {"sha": sha, "dirty": bool(status) if sha else None},
        **{key: result[key] for key in (
            "machine", "workload", "seed", "seconds", "trace", "wall_s", "attempted", "failed",
            "problems", "errors", "metrics", "diagnostics",
        )},
    }
    HISTORY_FILE.parent.mkdir(parents=True, exist_ok=True)
    with open(HISTORY_FILE, "a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Child
# ----------------------------------------------------------------------
def machine() -> dict:
    """CPU, core count, interpreter, numpy/BLAS versions and thread pins."""
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "pins": {name: os.environ.get(name) for name in PINS},
    }


def _peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
          tiny: bool = False) -> dict:
    """Run one workload in this process and return its result record."""
    from time import perf_counter

    import repro

    origin = Path(repro.__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        raise RuntimeError(f"repro imported from {origin}, not from this checkout's src/")
    from bench import trace as tracing
    from bench import workloads

    spec = (workloads.TINY if tiny else workloads.WORKLOADS)[workload]
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    span_cost = tracing.calibrate() if trace else 0.0
    installed, missing = tracing.install(tracer) if trace else ([], [])
    started = perf_counter()
    try:
        outcome = workloads.run(spec, seed, seconds, tracer, workdir)
    finally:
        tracing.uninstall(installed)
    wall = perf_counter() - started
    phases = {}
    if trace:
        metrics, phases = tracing.layer_metrics(tracer, outcome.measured, span_cost)
        tracing.write_samples(tracer, OUT_DIR / f"{workload}.spans.jsonl")
        # The end-to-end values as measured under tracing: against an
        # untraced run they give the tracing overhead directly.
        outcome.diagnostics.update(
            {f"traced.{name}": value for name, value in outcome.metrics.items()}
        )
    else:
        metrics = dict(outcome.metrics, peak_rss_mb=_peak_rss_mb())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "wall_s": wall,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "errors": outcome.errors,
        "metrics": metrics,
        "diagnostics": outcome.diagnostics,
        "phases": phases,
        "missing_targets": missing,
        "machine": machine(),
    }
