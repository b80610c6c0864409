"""The ``repro loadtest`` SLO harness: seeded load + latency report.

A loadtest answers the serving-scale question operationally: *how many
events/sec does the cluster sustain, and at what ingest/predict
latency?*  The harness generates a seeded synthetic feed (configurable
session count, interleaving and event volume), drives it through a
:class:`~repro.cluster.ShardedCluster` with periodic predict
round-trips, then replays the identical feed and predict cadence
through a lone :class:`~repro.serve.StreamingEngine` — the single-engine
baseline of ``benchmarks/test_serve_throughput.py`` — so the reported
speedup compares equal per-event work.

Results (p50/p95/p99 ingest, predict and apply latency, sustained
events/sec, per-shard stats) are recorded to ``BENCH_serve.json``.

All timings use ``perf_counter``; wall-clock ``time.time`` is banned
from cluster measurement paths by lint rule (see pyproject.toml).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from repro.cluster.cluster import ShardedCluster
from repro.core.model import TPGNN
from repro.serve.engine import StreamingEngine
from repro.serve.events import StreamEvent

DEFAULT_BENCH_PATH = "BENCH_serve.json"


@dataclass(frozen=True)
class LoadtestConfig:
    """Everything one loadtest run depends on (seeded, replayable)."""

    sessions: int = 1000
    events: int = 20000
    shards: int = 4
    backend: str = "thread"
    rate: float = 0.0  # target events/sec; 0 = as fast as possible
    predict_every: int = 500  # predict round-trip cadence (0 = never)
    rebalance_at: float = 0.0  # feed fraction at which to add a shard + rebalance
    seed: int = 0
    nodes_per_session: int = 12
    feature_dim: int = 4
    hidden_size: int = 16
    gru_hidden_size: int = 16
    time_dim: int = 4
    updater: str = "sum"
    queue_capacity: int = 4096
    backpressure: str = "block"
    batch_size: int = 64
    baseline: bool = True  # also run the single-engine comparison
    journal_dir: str | None = None  # per-shard write-ahead journals live here
    journal_fsync: str = "interval"  # fsync policy when journaling

    def __post_init__(self):
        if self.sessions < 1 or self.events < 1:
            raise ValueError("sessions and events must be >= 1")
        if not 0.0 <= self.rebalance_at < 1.0:
            raise ValueError(
                f"rebalance_at must be in [0, 1), got {self.rebalance_at}"
            )


@dataclass
class LoadtestReport:
    """The outcome of one :func:`run_loadtest`."""

    config: dict
    cluster: dict
    baseline: dict | None = None
    speedup: float | None = None
    shards: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "benchmark": "repro loadtest",
            "config": self.config,
            "cluster": self.cluster,
            "baseline": self.baseline,
            "speedup_vs_single_engine": self.speedup,
            "shards": self.shards,
        }

    def render(self) -> str:
        """Human-readable block (printed by the CLI)."""
        c = self.cluster
        lines = [
            "loadtest report",
            f"  shards                   {self.config['shards']}"
            + (" (+1 mid-feed)" if self.config["rebalance_at"] else ""),
            f"  backend                  {self.config['backend']}",
            f"  events                   {self.config['events']}"
            f" over {self.config['sessions']} sessions",
            f"  accepted / shed          {c['events_accepted']} / {c['events_shed']}",
            f"  applied                  {c['events_applied']}",
            f"  duration                 {c['duration_s']:.3f}s",
            f"  events/sec               {c['events_per_sec']:.0f}",
            f"  ingest p50/p95/p99       {c['ingest_p50_ms']:.3f} / "
            f"{c['ingest_p95_ms']:.3f} / {c['ingest_p99_ms']:.3f} ms",
            f"  predict p50/p95/p99      {c['predict_p50_ms']:.3f} / "
            f"{c['predict_p95_ms']:.3f} / {c['predict_p99_ms']:.3f} ms",
            f"  apply p50/p95/p99        {c['apply_p50_ms']:.3f} / "
            f"{c['apply_p95_ms']:.3f} / {c['apply_p99_ms']:.3f} ms",
        ]
        if c.get("rebalance"):
            r = c["rebalance"]
            lines.append(
                f"  rebalance                moved={r['moved']} "
                f"quarantined={r['quarantined']}"
            )
        if self.baseline is not None:
            lines.append(
                f"  single-engine baseline   {self.baseline['events_per_sec']:.0f} "
                f"events/sec ({self.baseline['duration_s']:.3f}s)"
            )
            lines.append(f"  speedup                  {self.speedup:.2f}x")
        return "\n".join(lines)


def build_model(config: LoadtestConfig) -> TPGNN:
    """The served model for a loadtest run (eval mode, seeded)."""
    model = TPGNN(
        in_features=config.feature_dim,
        updater=config.updater,
        hidden_size=config.hidden_size,
        gru_hidden_size=config.gru_hidden_size,
        time_dim=config.time_dim,
        seed=config.seed,
    )
    model.eval()
    return model


def generate_feed(config: LoadtestConfig) -> list[StreamEvent]:
    """A seeded interleaved feed: per-session monotone timestamps,
    features attached the first time each node appears in a session."""
    rng = np.random.default_rng(config.seed)
    n = config.nodes_per_session
    features = rng.normal(size=(config.sessions, n, config.feature_dim))
    session_index = rng.integers(0, config.sessions, size=config.events)
    src = rng.integers(0, n, size=config.events)
    dst = (src + rng.integers(1, n, size=config.events)) % n
    # A globally increasing clock keeps every session's own stream
    # chronological no matter how arrivals interleave.
    times = np.cumsum(rng.exponential(1.0, size=config.events))
    session_ids = [f"s{index:06d}" for index in range(config.sessions)]
    seen: list[set[int]] = [set() for _ in range(config.sessions)]
    feed: list[StreamEvent] = []
    for i in range(config.events):
        s = int(session_index[i])
        u, v = int(src[i]), int(dst[i])
        fresh = {}
        for node in (u, v):
            if node not in seen[s]:
                fresh[node] = features[s, node]
                seen[s].add(node)
        feed.append(
            StreamEvent(
                session_id=session_ids[s],
                src=u,
                dst=v,
                time=float(times[i]),
                node_features=fresh or None,
            )
        )
    return feed


def _drive(
    feed: list[StreamEvent],
    submit: Callable[[StreamEvent], None],
    predict: Callable[[str], float],
    settle: Callable[[], None],
    config: LoadtestConfig,
    on_index: Callable[[int], None] | None = None,
) -> tuple[float, int]:
    """Push the feed through one backend; returns (duration_s, predicts)."""
    predictions = 0
    start = perf_counter()
    for index, event in enumerate(feed):
        if config.rate > 0:
            lag = start + index / config.rate - perf_counter()
            if lag > 0:
                time.sleep(lag)
        submit(event)
        if on_index is not None:
            on_index(index)
        if config.predict_every and (index + 1) % config.predict_every == 0:
            predict(event.session_id)
            predictions += 1
    settle()
    return perf_counter() - start, predictions


def run_loadtest(
    config: LoadtestConfig,
    model: TPGNN | None = None,
    log: Callable[[str], None] | None = None,
) -> LoadtestReport:
    """Run the full harness: cluster phase, then the baseline replay."""
    say = log if log is not None else (lambda message: None)
    model = model if model is not None else build_model(config)
    feed = generate_feed(config)
    say(f"generated {len(feed)} events over {config.sessions} sessions")

    cluster = ShardedCluster(
        model,
        n_shards=config.shards,
        backend=config.backend,
        queue_capacity=config.queue_capacity,
        backpressure=config.backpressure,
        batch_size=config.batch_size,
        max_sessions=config.sessions,
        journal_dir=config.journal_dir,
        journal_fsync=config.journal_fsync,
    )
    rebalance_index = (
        int(len(feed) * config.rebalance_at) if config.rebalance_at > 0 else None
    )
    rebalance_info = None

    def topology_change(index: int) -> None:
        nonlocal rebalance_info
        if index == rebalance_index:
            shard_id = cluster.add_shard()
            report = cluster.rebalance()
            rebalance_info = {
                "at_event": index,
                "added_shard": shard_id,
                "moved": report.moved,
                "quarantined": report.quarantined,
            }

    say(f"cluster phase: {config.shards} shards, backend={config.backend}")
    duration, predictions = _drive(
        feed,
        submit=cluster.submit,
        predict=cluster.predict,
        settle=cluster.flush,
        config=config,
        on_index=topology_change if rebalance_index is not None else None,
    )
    shard_stats = {
        str(shard_id): worker.stats()
        for shard_id, worker in cluster._shards.items()
    }
    applied = sum(worker.applied_total for worker in cluster._shards.values())
    metrics = cluster.metrics
    cluster_report = {
        "events_accepted": metrics.events_routed.value - metrics.events_shed.value,
        "events_shed": metrics.events_shed.value,
        "events_applied": applied,
        "predictions": predictions,
        "duration_s": duration,
        "events_per_sec": applied / duration if duration > 0 else 0.0,
        "rebalance": rebalance_info,
        **metrics.latency_summary(),
    }
    cluster.close()
    say(
        f"cluster: {cluster_report['events_per_sec']:.0f} events/sec, "
        f"p99 ingest {cluster_report['ingest_p99_ms']:.3f} ms"
    )

    baseline_report = None
    speedup = None
    if config.baseline:
        say("baseline phase: lone StreamingEngine, same feed and cadence")
        engine = StreamingEngine(model, max_sessions=config.sessions)
        base_duration, _ = _drive(
            feed,
            submit=engine.ingest,
            predict=engine.predict,
            settle=engine.flush,
            config=config,
        )
        baseline_report = {
            "events_applied": engine.metrics.events_applied,
            "duration_s": base_duration,
            "events_per_sec": (
                engine.metrics.events_applied / base_duration
                if base_duration > 0
                else 0.0
            ),
        }
        if baseline_report["events_per_sec"] > 0:
            speedup = cluster_report["events_per_sec"] / baseline_report["events_per_sec"]
        say(
            f"baseline: {baseline_report['events_per_sec']:.0f} events/sec "
            f"-> speedup {speedup:.2f}x"
        )

    return LoadtestReport(
        config=asdict(config),
        cluster=cluster_report,
        baseline=baseline_report,
        speedup=speedup,
        shards=shard_stats,
    )


def write_bench(report: LoadtestReport, path: str | Path = DEFAULT_BENCH_PATH) -> Path:
    """Record the report as JSON (the ``BENCH_serve.json`` artifact)."""
    path = Path(path)
    path.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    return path
