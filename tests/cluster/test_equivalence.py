"""Property: the cluster's predictions == a lone engine's, exactly.

The tentpole guarantee of :mod:`repro.cluster`: sharding, queueing,
and live migration are all invisible to the
model — every session's prediction is bit-for-bit the number a single
:class:`StreamingEngine` produces for the same feed.  No tolerances:
``==`` on floats, including across a forced mid-feed ``rebalance()``
and a shard retirement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ShardedCluster
from repro.serve.engine import StreamingEngine
from repro.serve.events import dataset_to_feed
from tests.serve.conftest import make_model, random_ctdn


def build_feed(n_sessions: int, seed: int):
    graphs = [
        random_ctdn(seed * 1000 + i, label=i % 2, graph_id=f"s{i:03d}")
        for i in range(n_sessions)
    ]
    return dataset_to_feed(graphs, rng=np.random.default_rng(seed), spread=3.0)


def reference_scores(model, feed, session_ids):
    engine = StreamingEngine(model)
    engine.ingest_many(feed)
    engine.flush()
    return {sid: engine.predict(sid) for sid in session_ids}


@pytest.mark.parametrize("updater", ["sum", "gru"])
@pytest.mark.parametrize("n_shards", [1, 3])
@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_cluster_matches_single_engine(updater, n_shards, backend):
    model = make_model(updater)
    feed = build_feed(10, seed=17)
    session_ids = sorted({event.session_id for event in feed})
    expected = reference_scores(model, feed, session_ids)
    with ShardedCluster(model, n_shards=n_shards, backend=backend) as cluster:
        cluster.ingest_many(feed)
        cluster.flush()
        for session_id in session_ids:
            assert cluster.predict(session_id) == expected[session_id]


@pytest.mark.parametrize("updater", ["sum", "gru"])
@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_equivalence_across_mid_feed_rebalance(updater, backend):
    model = make_model(updater)
    feed = build_feed(12, seed=29)
    session_ids = sorted({event.session_id for event in feed})
    expected = reference_scores(model, feed, session_ids)
    with ShardedCluster(model, n_shards=2, backend=backend) as cluster:
        half = len(feed) // 2
        for event in feed[:half]:
            cluster.submit(event)
        # Live topology change with events in flight behind it.
        cluster.add_shard()
        report = cluster.rebalance()
        assert report.quarantined == 0
        assert report.moved > 0, "rebalance must actually move sessions"
        for event in feed[half:]:
            cluster.submit(event)
        cluster.flush()
        for session_id in session_ids:
            assert cluster.predict(session_id) == expected[session_id]


@pytest.mark.parametrize("updater", ["sum", "gru"])
def test_equivalence_across_shard_retirement(updater):
    model = make_model(updater)
    feed = build_feed(12, seed=41)
    session_ids = sorted({event.session_id for event in feed})
    expected = reference_scores(model, feed, session_ids)
    with ShardedCluster(model, n_shards=3, backend="serial") as cluster:
        half = len(feed) // 2
        for event in feed[:half]:
            cluster.submit(event)
        victim = next(
            shard_id for shard_id, ids in cluster.sessions().items() if ids
        )
        cluster.remove_shard(victim)
        for event in feed[half:]:
            cluster.submit(event)
        cluster.flush()
        for session_id in session_ids:
            assert cluster.predict(session_id) == expected[session_id]


def test_exact_mode_also_matches():
    """mode="exact" (batch-replay logits) survives sharding too."""
    model = make_model("gru")
    feed = build_feed(6, seed=67)
    session_ids = sorted({event.session_id for event in feed})
    engine = StreamingEngine(model)
    engine.ingest_many(feed)
    engine.flush()
    expected = {sid: engine.predict(sid, mode="exact") for sid in session_ids}
    with ShardedCluster(model, n_shards=2, backend="serial") as cluster:
        cluster.ingest_many(feed)
        cluster.flush()
        for session_id in session_ids:
            assert cluster.predict(session_id, mode="exact") == expected[session_id]
