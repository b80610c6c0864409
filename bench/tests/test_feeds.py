"""Feeds are a pure function of the seed, however they are consumed."""

from __future__ import annotations

import numpy as np

from bench.feeds import SessionFeed


def _key(events):
    return [
        (e.session_id, e.src, e.dst, e.time,
         sorted((node, tuple(row)) for node, row in (e.node_features or {}).items()))
        for e in events
    ]


def _feed(seed, zipf=None):
    return SessionFeed(seed, sessions=300, nodes_per_session=8, zipf=zipf, chunk_size=128)


def test_same_seed_same_events_in_any_chunking():
    for zipf in (None, 1.1):
        whole = _feed(7, zipf).take(700)
        pieces = _feed(7, zipf)
        split = pieces.take(3) + pieces.take(250) + pieces.take(447)
        assert _key(whole) == _key(split)


def test_different_seeds_differ():
    for zipf in (None, 1.1):
        assert _key(_feed(1, zipf).take(200)) != _key(_feed(2, zipf).take(200))


def test_features_ride_on_first_sight_and_clock_is_monotone():
    events = _feed(3).take(2000)
    seen = set()
    for event in events:
        fresh = set(event.node_features or {})
        for node in (event.src, event.dst):
            assert ((event.session_id, node) in seen) != (node in fresh)
            seen.add((event.session_id, node))
    times = np.array([event.time for event in events])
    assert np.all(np.diff(times) > 0)


def test_zipf_concentrates_on_few_sessions():
    uniform = _feed(5).take(3000)
    skewed = _feed(5, zipf=1.1).take(3000)
    assert len({e.session_id for e in skewed}) < len({e.session_id for e in uniform})
