"""Sharded serving: scale one StreamingEngine out to N shards, live.

One engine folds events single-threaded.  This example fronts four
shared-nothing shards with a :class:`repro.cluster.ShardedCluster` and
walks the whole operational story:

1. trains a small TP-GNN-SUM on a warm-up split,
2. streams the held-out sessions through the cluster — events are
   routed by consistent hashing on the session id, queued per shard
   with bounded backpressure, and applied by each shard's engine,
3. resizes the cluster mid-feed: ``add_shard()`` + ``rebalance()``
   migrates live sessions over snapshot/restore while events are
   still arriving,
4. proves the sharding is invisible: every session's prediction is
   bit-for-bit what a lone engine produces for the same feed,
5. prints the per-shard stats and latency percentiles a ``repro
   loadtest`` run records to ``BENCH_serve.json``.

    python examples/sharded_serving.py
"""

import numpy as np

from repro.cluster import ShardedCluster
from repro.data import make_dataset
from repro.core import TPGNN
from repro.serve import StreamingEngine, dataset_to_feed
from repro.training import TrainConfig, train_model


def main() -> None:
    data = make_dataset("HDFS", num_graphs=60, seed=3, scale=0.3)
    train_data, live_data = data.split(0.5)

    model = TPGNN(data.feature_dim, updater="sum", hidden_size=16,
                  gru_hidden_size=16, time_dim=4, seed=0)
    print(f"== warm-up: training on {len(train_data)} historical sessions ==")
    train_model(model, train_data, TrainConfig(epochs=8, learning_rate=0.01, seed=0))
    model.eval()

    feed = dataset_to_feed(live_data, rng=np.random.default_rng(0), spread=50.0)
    print(f"\n== streaming {len(feed)} events from {len(live_data)} sessions "
          f"through 3 shards ==")

    with ShardedCluster(model, n_shards=3, backend="thread",
                        queue_capacity=1024, backpressure="block",
                        batch_size=32) as cluster:
        half = len(feed) // 2
        for event in feed[:half]:
            cluster.submit(event)

        # Live resize with events still in flight behind it: drain,
        # snapshot each moving session, validate, adopt on the new owner.
        new_shard = cluster.add_shard()
        report = cluster.rebalance()
        print(f"\n== mid-feed resize: 3 -> 4 shards ==")
        print(f"  shard {new_shard} joined; {report.moved} sessions migrated, "
              f"{report.quarantined} quarantined")

        for event in feed[half:]:
            cluster.submit(event)
        cluster.flush()  # barrier + drain out-of-order buffers

        print("\n== session placement after rebalance ==")
        for shard_id, session_ids in sorted(cluster.sessions().items()):
            print(f"  shard {shard_id}: {len(session_ids)} sessions")

        # The tentpole property: sharding, queues and the migration are
        # all invisible to the model — every shard applies events with
        # the lone engine's own code path.
        print("\n== cluster == single engine, exactly ==")
        engine = StreamingEngine(model)
        engine.ingest_many(feed)
        engine.flush()
        mismatches = 0
        for session_id in cluster.live_sessions():
            if cluster.predict(session_id) != engine.predict(session_id):
                mismatches += 1
        print(f"  {len(cluster.live_sessions())} sessions compared, "
              f"{mismatches} mismatches (== on floats, no tolerance)")
        assert mismatches == 0

        print("\n== per-shard stats ==")
        stats = cluster.stats()
        for shard_id, shard in sorted(stats["shards"].items()):
            print(f"  shard {shard_id}: applied={shard['applied']:5d}  "
                  f"sessions={shard['live_sessions']:3d}  "
                  f"breaker={shard['breaker_state']}")
        summary = cluster.metrics.latency_summary()
        print(f"  ingest p50/p99  {summary['ingest_p50_ms']:.3f} / "
              f"{summary['ingest_p99_ms']:.3f} ms")
        print(f"  apply  p50/p99  {summary['apply_p50_ms']:.3f} / "
              f"{summary['apply_p99_ms']:.3f} ms")

    print("\nFor the full SLO harness (seeded load, percentiles, "
          "single-engine baseline,\nBENCH_serve.json):  "
          "python -m repro.cli loadtest --shards 4")


if __name__ == "__main__":
    main()
