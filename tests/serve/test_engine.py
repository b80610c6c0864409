"""Tests for the streaming engine: ingest, read paths, metrics, state."""

import numpy as np
import pytest

from repro.serve import (
    IncrementalClassifier,
    ServeMetrics,
    StreamEvent,
    StreamingEngine,
    dataset_to_feed,
    session_events,
)
from repro.telemetry import Histogram
from repro.tensor import no_grad
from tests.serve.conftest import make_model, random_ctdn


def make_graphs(count=6, seed0=0):
    return [random_ctdn(seed0 + i, graph_id=f"g{seed0 + i}") for i in range(count)]


class TestIngest:
    def test_feed_replay_matches_batch_exactly(self, sum_model):
        graphs = make_graphs()
        engine = StreamingEngine(sum_model)
        engine.ingest_many(dataset_to_feed(graphs))
        for graph in graphs:
            with no_grad():
                batch = float(sum_model.predict_proba(graph))
            assert engine.predict(graph.graph_id, mode="exact") == pytest.approx(
                batch, abs=1e-8
            )

    def test_label_captured_from_events(self, sum_model):
        graph = random_ctdn(1, graph_id="g1", label=1)
        engine = StreamingEngine(sum_model)
        engine.ingest_many(session_events(graph))
        assert engine.session("g1").label == 1

    def test_buffer_policy_flush(self, sum_model):
        graph = random_ctdn(2, graph_id="g2")
        engine = StreamingEngine(sum_model, out_of_order="buffer", watermark_delay=1e9)
        applied = engine.ingest_many(session_events(graph))
        assert applied == 0  # everything is parked behind the watermark
        assert engine.flush() == graph.num_edges
        assert engine.session("g2").num_events == graph.num_edges

    def test_cold_start_after_eviction_keeps_serving(self, sum_model):
        # max_sessions=1 forces an eviction mid-feed; the re-admitted
        # session's unknown endpoints cold-start with zero features
        # (the default policy) instead of crashing ingest.
        graphs = make_graphs(2)
        events = session_events(graphs[0], "a") + session_events(graphs[1], "b")
        half = len(events) // 2
        interleaved = events[:half] + session_events(graphs[0], "a")[half // 2:]
        engine = StreamingEngine(sum_model, max_sessions=1)
        engine.ingest_many(interleaved)
        assert 0.0 < engine.predict(engine.live_sessions()[0]) < 1.0

    def test_strict_policy_raises_on_missing_features(self, sum_model):
        classifier = IncrementalClassifier(sum_model, missing_features="raise")
        state = classifier.new_session("s")
        with pytest.raises(ValueError, match="no features"):
            classifier.observe(state, (0, 1, 1.0))


class TestReadPaths:
    def test_unknown_session_raises(self, sum_model):
        engine = StreamingEngine(sum_model)
        with pytest.raises(KeyError, match="unknown session"):
            engine.predict("ghost")
        with pytest.raises(KeyError, match="unknown session"):
            engine.predict_many(["ghost"])

    def test_micro_batch_matches_single_session_reads(self, gru_model):
        graphs = make_graphs()
        engine = StreamingEngine(gru_model)
        engine.ingest_many(dataset_to_feed(graphs))
        batched = engine.predict_many()
        assert set(batched) == {g.graph_id for g in graphs}
        for session_id, probability in batched.items():
            assert probability == pytest.approx(engine.predict(session_id), abs=1e-10)

    def test_predict_many_empty(self, sum_model):
        assert StreamingEngine(sum_model).predict_many([]) == {}


class TestMetrics:
    def test_lifecycle_counters(self, sum_model):
        graphs = make_graphs(4)
        feed = dataset_to_feed(graphs)
        engine = StreamingEngine(sum_model)
        engine.ingest_many(feed)
        m = engine.metrics
        assert m.events_ingested == len(feed)
        assert m.events_applied == len(feed)
        assert m.sessions_started == 4
        assert m.sessions_evicted == 0
        assert m.step_latency.count == len(feed)
        engine.predict_many()
        assert m.predictions_served == 4

    def test_dropped_counter(self, sum_model):
        engine = StreamingEngine(sum_model)
        engine.ingest(StreamEvent("s", 0, 1, 5.0))
        engine.ingest(StreamEvent("s", 1, 2, 1.0))  # stale -> dropped
        assert engine.metrics.events_dropped == 1
        assert engine.metrics.events_applied == 1

    def test_render_and_summary(self):
        metrics = ServeMetrics()
        metrics.events_ingested = 3
        metrics.observe_step(0.002)
        summary = metrics.summary()
        assert summary["step_latency_p50_ms"] == pytest.approx(2.0)
        assert "events_ingested" in metrics.render()

    def test_latency_reservoir_is_bounded(self):
        reservoir = Histogram(capacity=4)
        for value in range(100):
            reservoir.record(float(value))
        assert reservoir.count == 100
        assert reservoir.values().size == 4
        assert set(reservoir.values()) == {96.0, 97.0, 98.0, 99.0}


class TestCheckpointRestore:
    def test_round_trip_preserves_predictions_and_counters(self, tmp_path, sum_model):
        graphs = make_graphs()
        engine = StreamingEngine(sum_model, max_sessions=32, out_of_order="buffer",
                                 watermark_delay=0.5)
        engine.ingest_many(dataset_to_feed(graphs))
        engine.flush()
        before = engine.predict_many()
        path = engine.checkpoint(tmp_path / "state.npz", metadata={"note": "t"})

        twin = make_model("sum", seed=9)  # different init, overwritten on restore
        restored = StreamingEngine.restore(path, twin)
        assert restored.live_sessions() == engine.live_sessions()
        assert restored.router.max_sessions == 32
        assert restored.router.out_of_order == "buffer"
        assert restored.metrics.events_applied == engine.metrics.events_applied
        after = restored.predict_many()
        for session_id, probability in before.items():
            assert after[session_id] == pytest.approx(probability, abs=1e-12)

    def test_restored_sessions_continue_the_stream(self, tmp_path, gru_model):
        graph = random_ctdn(42, graph_id="g42", max_edges=12)
        events = session_events(graph)
        engine = StreamingEngine(gru_model)
        engine.ingest_many(events[: len(events) // 2])
        path = engine.checkpoint(tmp_path / "mid.npz")

        restored = StreamingEngine.restore(path, make_model("gru", seed=5))
        restored.ingest_many(events[len(events) // 2:])
        with no_grad():
            batch = float(gru_model.predict_proba(graph))
        assert restored.predict("g42", mode="exact") == pytest.approx(batch, abs=1e-8)

    def test_restore_respects_lru_capacity(self, tmp_path, sum_model):
        # 6 sessions checkpointed, restored into a 4-session router:
        # the 4 most recently active survive, the 2 oldest are evicted
        # (checkpoints list sessions least-recently-active first).
        graphs = make_graphs(6)
        engine = StreamingEngine(sum_model, max_sessions=32)
        for graph in graphs:
            engine.ingest_many(session_events(graph))
        order = engine.live_sessions()  # LRU -> MRU
        path = engine.checkpoint(tmp_path / "state.npz")

        restored = StreamingEngine.restore(path, sum_model, max_sessions=4)
        assert restored.router.max_sessions == 4
        assert restored.live_sessions() == order[2:]
        assert restored.metrics.sessions_restore_evicted == 2
        # Survivors still answer with their checkpointed scores.
        expected = {sid: engine.predict(sid) for sid in order[2:]}
        assert restored.predict_many() == expected

    def test_restore_without_override_adopts_everything(self, tmp_path, sum_model):
        graphs = make_graphs(5)
        engine = StreamingEngine(sum_model, max_sessions=32)
        engine.ingest_many(dataset_to_feed(graphs))
        path = engine.checkpoint(tmp_path / "state.npz")
        restored = StreamingEngine.restore(path, make_model("sum", seed=2))
        assert restored.live_sessions() == engine.live_sessions()
        assert restored.metrics.sessions_restore_evicted == 0

    def test_non_checkpoint_rejected(self, tmp_path, sum_model):
        path = tmp_path / "junk.npz"
        np.savez(path, foo=np.zeros(2))
        with pytest.raises(ValueError, match="not a repro checkpoint"):
            StreamingEngine.restore(path, sum_model)

    def test_model_checkpoint_rejected(self, tmp_path, sum_model):
        # A plain model checkpoint has metadata but the wrong format.
        from repro.nn import save_checkpoint

        path = save_checkpoint(sum_model, tmp_path / "model.npz")
        with pytest.raises(ValueError, match="not a serving-state checkpoint"):
            StreamingEngine.restore(path, sum_model)


class TestEvictionHook:
    def test_hook_sees_final_state(self, sum_model):
        graphs = make_graphs(3)
        final = {}
        engine = StreamingEngine(
            sum_model,
            max_sessions=1,
            on_evict=lambda sid, state: final.__setitem__(sid, state.num_events),
        )
        for graph in graphs:
            engine.ingest_many(session_events(graph))
        assert final == {g.graph_id: g.num_edges for g in graphs[:2]}
        assert engine.metrics.sessions_evicted == 2
