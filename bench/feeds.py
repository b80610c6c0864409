"""Seeded serving feeds: the benchmark's load, generated outside the program.

A :class:`SessionFeed` is an endless, deterministic stream of
:class:`~repro.serve.events.StreamEvent` over a session population.  The
population (node features, which ids are popular) belongs to the
workload and is the same for every seed; the seed draws the traffic:
which session each event hits, its endpoints and arrival times.  The
same seed yields the same sequence however it is consumed.  Events are
materialised a chunk at a time, outside every timed region.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.serve.events import StreamEvent

#: Raw node-feature width of every generated session.
FEATURE_DIM = 4
#: Seed of the session population, which does not vary with the workload seed.
_POPULATION_SEED = 0x5E55


class SessionFeed:
    """Endless seeded event feed over ``sessions`` sessions.

    Parameters
    ----------
    seed:
        Workload seed; the traffic is a function of it.
    sessions:
        Size of the session-id population.
    nodes_per_session:
        Node ids per session; each event is an edge between two distinct
        nodes of its session.
    zipf:
        ``None`` picks sessions uniformly; an exponent ``s`` picks the
        rank-``k`` session with probability proportional to ``k**-s``
        (ranks are shuffled over the ids).
    chunk_size:
        Events materialised per refill.
    """

    def __init__(
        self,
        seed: int,
        sessions: int,
        nodes_per_session: int,
        zipf: float | None = None,
        chunk_size: int = 2048,
    ):
        if sessions < 1 or nodes_per_session < 2:
            raise ValueError("need at least one session of at least two nodes")
        population = np.random.default_rng(_POPULATION_SEED)
        self._rng = np.random.default_rng((seed, 0x5EED))
        self._sessions = sessions
        self._nodes = nodes_per_session
        self._chunk = chunk_size
        self._features = population.normal(size=(sessions, nodes_per_session, FEATURE_DIM))
        self._weights = None
        if zipf is not None:
            ranks = np.arange(1, sessions + 1, dtype=np.float64) ** -zipf
            self._weights = (ranks / ranks.sum())[population.permutation(sessions)]
        self._ids = [f"s{index:06d}" for index in range(sessions)]
        # seen[s * nodes + v] marks nodes whose features already went out,
        # so features ride only on a node's first event in its session.
        self._seen = bytearray(sessions * nodes_per_session)
        self._clock = 0.0
        self._buffer: deque[StreamEvent] = deque()
        #: Ids of the sessions the events taken so far belong to.
        self.touched: set[str] = set()

    def _refill(self) -> None:
        rng, count, nodes = self._rng, self._chunk, self._nodes
        if self._weights is None:
            picks = rng.integers(0, self._sessions, size=count)
        else:
            picks = rng.choice(self._sessions, size=count, p=self._weights)
        src = rng.integers(0, nodes, size=count)
        dst = (src + rng.integers(1, nodes, size=count)) % nodes
        # One global clock keeps every session's own stream in order.
        times = self._clock + np.cumsum(rng.exponential(1.0, size=count))
        self._clock = float(times[-1])
        seen, features, ids = self._seen, self._features, self._ids
        for s, u, v, t in zip(picks.tolist(), src.tolist(), dst.tolist(), times.tolist()):
            fresh = None
            for node in (u, v):
                slot = s * nodes + node
                if not seen[slot]:
                    seen[slot] = 1
                    if fresh is None:
                        fresh = {}
                    fresh[node] = features[s, node]
            self._buffer.append(StreamEvent(ids[s], u, v, t, fresh))

    def take(self, count: int) -> list[StreamEvent]:
        """The next ``count`` events of the sequence."""
        while len(self._buffer) < count:
            self._refill()
        events = [self._buffer.popleft() for _ in range(count)]
        self.touched.update(event.session_id for event in events)
        return events
