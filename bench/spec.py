"""Where the benchmark keeps things, and the metrics it reports.

This module imports nothing from the program, so the parent process (the
launcher, ``compare``) can use it in a checkout that has no program.
``BENCHMARK.json`` at the repository root is the published contract; the
unit tables here are what the code computes, and ``bench/tests`` checks
the two agree.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
HISTORY_FILE = ROOT / "bench" / "history.jsonl"
OUT_DIR = ROOT / "bench" / "out"
WORK_DIR = ROOT / "bench" / ".work"

#: End-to-end metrics of an untraced run, with their units.
E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "eval_graphs_per_s": "1/s",
    "ingest_ms_p50": "ms",
    "ingest_ms_p99": "ms",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a traced run, with their units.
LAYER_UNITS = {
    "data.generate_s": "s",
    "graph.io.save_s": "s",
    "graph.io.load_s": "s",
    "graph.io.bundle_mb": "MB",
    "setup.build_s": "s",
    "graph.megaplan.build_s": "s",
    "graph.megaplan.calls": "count",
    "graph.megaplan.edges_per_wave": "edges",
    "graph.megaplan.cache_hit_ratio": "ratio",
    "graph.plan.build_s": "s",
    "core.model.self_s": "s",
    "core.propagation.self_s": "s",
    "core.propagation.edges": "count",
    "core.extractor.self_s": "s",
    "nn.loss.self_s": "s",
    "tensor.backward.self_s": "s",
    "optim.step.self_s": "s",
    "training.loop.self_s": "s",
    "training.evaluate.ms_per_graph": "ms",
    "serve.engine.ingest.self_s": "s",
    "serve.engine.predict.self_s": "s",
    "serve.router.route.self_s": "s",
    "serve.router.hit_ratio": "ratio",
    "serve.router.evictions": "count",
    "serve.incremental.observe.self_s": "s",
    "serve.incremental.observe.calls": "count",
    "serve.incremental.predict.self_s": "s",
    "cluster.front.self_s": "s",
    "cluster.queue.self_s": "s",
    "cluster.queue.wait_ms_p50": "ms",
    "cluster.queue.wait_ms_p90": "ms",
    "cluster.queue.depth_max": "count",
    "cluster.barrier.self_s": "s",
    "cluster.fastpath.observe.self_s": "s",
    "cluster.fastpath.observe.calls": "count",
    "cluster.fastpath.share": "ratio",
    "resilience.journal.append.self_s": "s",
    "resilience.journal.append.calls": "count",
    "resilience.journal.bytes_per_record": "bytes",
    "resilience.journal.fsync.calls": "count",
    "resilience.journal.fsync_ms_p90": "ms",
    "serve.checkpoint_s": "s",
    "serve.recovery.restore_s": "s",
    "serve.recovery.scan_s": "s",
    "serve.recovery.decode_s": "s",
    "serve.recovery.replay_s": "s",
    "loadgen.lag_ms_p90": "ms",
    "loadgen.late_frac": "ratio",
    "loadgen.idle_s": "s",
    "other.self_s": "s",
    "other.phase_share_max": "ratio",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_FILE.read_text())


def workload_names(benchmark: dict) -> list[str]:
    return [workload["name"] for workload in benchmark["workloads"]]
