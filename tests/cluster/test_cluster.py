"""ShardedCluster behaviour: routing, topology, migration, isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ShardedCluster
from repro.resilience.errors import CircuitOpenError, FaultInjected
from repro.resilience.faults import FaultPlan, activate
from repro.serve.events import dataset_to_feed
from repro.telemetry import MetricRegistry
from tests.serve.conftest import make_model, random_ctdn


def feed_for(n_sessions: int, seed: int = 0):
    graphs = [
        random_ctdn(seed + i, label=i % 2, graph_id=f"g{i:03d}")
        for i in range(n_sessions)
    ]
    return dataset_to_feed(graphs, rng=np.random.default_rng(seed), spread=2.0)


def test_events_route_to_the_owning_shard():
    feed = feed_for(8)
    with ShardedCluster(make_model(), n_shards=3, backend="serial") as cluster:
        assert cluster.ingest_many(feed) == len(feed)
        cluster.barrier()
        placed = cluster.sessions()
        for shard_id, session_ids in placed.items():
            for session_id in session_ids:
                assert cluster.shard_for(session_id) == shard_id
        all_sessions = cluster.live_sessions()
        assert sorted(all_sessions) == sorted({e.session_id for e in feed})


def test_predict_and_predict_many_agree():
    feed = feed_for(6)
    with ShardedCluster(make_model(), n_shards=2, backend="serial") as cluster:
        cluster.ingest_many(feed)
        scores = cluster.predict_many()
        assert set(scores) == set(cluster.live_sessions())
        for session_id, score in scores.items():
            assert cluster.predict(session_id) == score
            assert 0.0 <= score <= 1.0


def test_unknown_session_raises_keyerror():
    with ShardedCluster(make_model(), n_shards=2, backend="serial") as cluster:
        with pytest.raises(KeyError):
            cluster.predict("never-seen")


def test_add_shard_then_rebalance_moves_sessions():
    feed = feed_for(12)
    with ShardedCluster(make_model(), n_shards=2, backend="serial") as cluster:
        cluster.ingest_many(feed)
        # Per-session predict (single matvec) so the comparison is not
        # sensitive to per-shard batch shapes in predict_many.
        sessions = cluster.live_sessions()
        before = {sid: cluster.predict(sid) for sid in sessions}
        new_shard = cluster.add_shard()
        report = cluster.rebalance()
        assert report.moved > 0
        assert report.quarantined == 0
        # Some sessions must now live on the new shard...
        assert cluster.sessions()[new_shard]
        # ...and every session still answers with its pre-move score.
        after = {sid: cluster.predict(sid) for sid in sessions}
        assert after == before
        assert cluster.metrics.sessions_migrated.value == report.moved
        assert cluster.metrics.rebalances.value == 1


def test_remove_shard_evacuates_all_its_sessions():
    feed = feed_for(12)
    with ShardedCluster(make_model(), n_shards=3, backend="serial") as cluster:
        cluster.ingest_many(feed)
        sessions = cluster.live_sessions()
        before = {sid: cluster.predict(sid) for sid in sessions}
        victim = next(
            shard_id for shard_id, ids in cluster.sessions().items() if ids
        )
        cluster.remove_shard(victim)
        assert victim not in cluster.shard_ids
        assert {sid: cluster.predict(sid) for sid in sessions} == before


def test_cannot_remove_last_shard():
    with ShardedCluster(make_model(), n_shards=1, backend="serial") as cluster:
        with pytest.raises(ValueError):
            cluster.remove_shard(cluster.shard_ids[0])
        with pytest.raises(KeyError):
            cluster.remove_shard(999)


def test_corrupt_snapshot_quarantines_session_not_shard():
    feed = feed_for(12)
    with ShardedCluster(make_model(), n_shards=2, backend="serial") as cluster:
        cluster.ingest_many(feed)
        cluster.add_shard()
        plan = FaultPlan(seed=0).add("cluster.migrate.snapshot", kind="nan", times=1)
        with activate(plan):
            report = cluster.rebalance()
        assert report.quarantined == 1
        assert report.moved >= 1
        assert len(cluster.quarantined) == 1
        victim = next(iter(cluster.quarantined))
        assert victim not in cluster.live_sessions()
        with pytest.raises(KeyError):
            cluster.predict(victim)
        # The shards themselves stay healthy and keep serving.
        for worker in cluster._shards.values():
            assert worker.engine.breaker.state == "closed"
        assert cluster.metrics.sessions_quarantined.value == 1


def test_shard_breaker_isolates_failures():
    feed = feed_for(9)
    with ShardedCluster(
        make_model(), n_shards=3, backend="serial",
        breaker_threshold=3, breaker_cooldown=1e9,
    ) as cluster:
        cluster.ingest_many(feed)
        sessions = cluster.sessions()
        victim = next(sid for sid, ids in sessions.items() if ids)
        plan = FaultPlan(seed=0).add(f"cluster.shard{victim}.apply", kind="raise")
        with activate(plan):
            cluster.ingest_many(feed)
            cluster.barrier()
        assert cluster._shards[victim].engine.breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            cluster.predict(sessions[victim][0])
        for shard_id, ids in sessions.items():
            if shard_id == victim:
                continue
            assert cluster._shards[shard_id].engine.breaker.state == "closed"
            for session_id in ids:
                assert np.isfinite(cluster.predict(session_id))


def test_shed_writes_count_in_cluster_breaker_rejections():
    # Every write an open breaker sheds — for new and live sessions
    # alike — shows in the shard's cluster counter, which mirrors the
    # engine's own ``breaker_rejections``.
    feed = feed_for(6)
    with ShardedCluster(
        make_model(), n_shards=1, backend="serial",
        breaker_threshold=2, breaker_cooldown=1e9,
    ) as cluster:
        shard_id = cluster.shard_ids[0]
        plan = FaultPlan(seed=0).add("serve.apply", kind="raise", times=2)
        with activate(plan):
            cluster.ingest_many(feed)
            cluster.barrier()
        engine = cluster._shards[shard_id].engine
        assert engine.breaker.state == "open"
        shed = engine.metrics.breaker_rejections
        assert shed == len(feed) - 2 - engine.metrics.events_dropped
        assert cluster.metrics.breaker_rejections(shard_id).value == shed


def test_worker_fault_without_breaker_counts_errors():
    feed = feed_for(4)
    with ShardedCluster(
        make_model(), n_shards=1, backend="serial", breaker_threshold=None,
    ) as cluster:
        shard_id = cluster.shard_ids[0]
        plan = FaultPlan(seed=0).add(
            f"cluster.shard{shard_id}.apply", kind="raise", times=2
        )
        with activate(plan):
            cluster.ingest_many(feed)
            cluster.barrier()
        assert cluster.metrics.shard_errors(shard_id).value == 2
        # The shard survived the burst and still serves.
        assert all(np.isfinite(s) for s in cluster.predict_many().values())


def test_shed_backpressure_counts_shed_events():
    feed = feed_for(6)
    with ShardedCluster(
        make_model(), n_shards=1, backend="thread",
        queue_capacity=1, backpressure="shed", batch_size=1,
    ) as cluster:
        accepted = cluster.ingest_many(feed)
        cluster.barrier()
        shed = cluster.metrics.events_shed.value
        assert accepted + shed == len(feed)
        assert cluster.metrics.events_routed.value == len(feed)


def test_metrics_land_in_shared_registry():
    registry = MetricRegistry()
    feed = feed_for(4)
    with ShardedCluster(
        make_model(), n_shards=2, backend="serial", registry=registry,
    ) as cluster:
        cluster.ingest_many(feed)
        cluster.predict_many()
    names = {name for name, _labels, _kind, _instr in registry}
    assert "cluster/events_routed" in names
    assert "cluster/queue_depth" in names
    assert "cluster/ingest_latency_seconds" in names
    assert "cluster/predict_latency_seconds" in names
    summary = cluster.metrics.latency_summary()
    assert summary["ingest_p99_ms"] >= summary["ingest_p50_ms"] >= 0.0
    stats = cluster.stats()
    assert stats["cluster"]["events_routed"] == len(feed)
    assert set(stats["shards"]) == set(cluster.shard_ids)


def test_invalid_construction():
    with pytest.raises(ValueError):
        ShardedCluster(make_model(), n_shards=0)
    with pytest.raises(ValueError):
        ShardedCluster(make_model(), backend="process")
    with pytest.raises(ValueError):
        ShardedCluster(make_model(), backpressure="drop")
