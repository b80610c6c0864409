"""Sharded multi-worker serving: routing, migration, loadtest harness.

The :mod:`repro.cluster` package scales the single-process
:class:`~repro.serve.StreamingEngine` to N shared-nothing shards behind
a consistent-hash front-end:

* :mod:`repro.cluster.ring` — session→shard placement (md5-stable
  consistent hashing with virtual nodes);
* :mod:`repro.cluster.queues` — bounded per-shard ingest queues with
  block/shed/raise backpressure;
* :mod:`repro.cluster.worker` — one shard: engine + queue + drain loop;
* :mod:`repro.cluster.cluster` — the front-end, live session migration
  (:meth:`~repro.cluster.cluster.ShardedCluster.rebalance`) and
  per-session quarantine;
* :mod:`repro.cluster.supervisor` — heartbeat liveness sweeps and
  automatic respawn of dead shards from snapshot + write-ahead journal;
* :mod:`repro.cluster.metrics` — cluster telemetry in the shared
  :class:`~repro.telemetry.MetricRegistry`;
* :mod:`repro.cluster.loadgen` — the ``repro loadtest`` SLO harness
  (seeded load, p50/p95/p99 latency, ``BENCH_serve.json``).
"""

from repro.cluster.cluster import RebalanceReport, ShardedCluster
from repro.cluster.loadgen import (
    DEFAULT_BENCH_PATH,
    LoadtestConfig,
    LoadtestReport,
    build_model,
    generate_feed,
    run_loadtest,
    write_bench,
)
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.queues import (
    BACKPRESSURE_POLICIES,
    BoundedQueue,
    ShardQueueFullError,
)
from repro.cluster.ring import HashRing, stable_hash
from repro.cluster.supervisor import RespawnReport, ShardSupervisor, SweepReport
from repro.cluster.worker import BACKENDS, ShardWorker

__all__ = [
    "BACKENDS",
    "BACKPRESSURE_POLICIES",
    "BoundedQueue",
    "ClusterMetrics",
    "DEFAULT_BENCH_PATH",
    "HashRing",
    "LoadtestConfig",
    "LoadtestReport",
    "RebalanceReport",
    "RespawnReport",
    "ShardQueueFullError",
    "ShardSupervisor",
    "ShardWorker",
    "ShardedCluster",
    "SweepReport",
    "build_model",
    "generate_feed",
    "run_loadtest",
    "stable_hash",
    "write_bench",
]
