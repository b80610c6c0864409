"""The correctness checks catch what they claim to catch."""

from __future__ import annotations

from bench.feeds import SessionFeed
from bench.workloads import recovery_problems, serve_model
from repro.resilience.journal import Journal
from repro.serve.engine import StreamingEngine
from repro.serve.recovery import recover_engine


def _crash_and_recover(tmp_path):
    feed = SessionFeed(0, sessions=30, nodes_per_session=6)
    journal = Journal(tmp_path / "journal", fsync="interval")
    engine = StreamingEngine(serve_model(0), max_sessions=64, journal=journal)
    for event in feed.take(300):
        engine.ingest(event)
    checkpoint = tmp_path / "engine.npz"
    engine.checkpoint(checkpoint)
    anchor = journal.last_seq
    for event in feed.take(200):
        engine.ingest(event)
    recovered, report = recover_engine(journal.directory, serve_model(0), checkpoint=checkpoint)
    journal.close()
    return engine, recovered, report, journal.last_seq - anchor


def test_faithful_recovery_passes(tmp_path):
    engine, recovered, report, tail = _crash_and_recover(tmp_path)
    assert tail == 200
    assert recovery_problems(engine, recovered, report, tail) == []


def test_tampered_recovered_session_fails(tmp_path):
    engine, recovered, report, tail = _crash_and_recover(tmp_path)
    session = recovered.session(recovered.live_sessions()[-1])
    session.ext_state.hidden.data[0, 0] += 1e-12
    problems = recovery_problems(engine, recovered, report, tail)
    assert problems == ["recovered predictions differ from the crashed engine's"]


def test_short_replay_fails(tmp_path):
    engine, recovered, report, tail = _crash_and_recover(tmp_path)
    assert any("replayed" in p for p in recovery_problems(engine, recovered, report, tail + 1))
