"""Online serving: streaming TP-GNN inference with incremental state.

Batch TP-GNN re-reads a session's whole edge list to score it — O(m)
per new event.  This package serves live traffic instead: it ingests
an interleaved per-edge event feed, carries each session's temporal
recurrences forward (propagation state + global-extractor GRU hidden),
and predicts in O(1) per session.

Layers, innermost out:

* :class:`~repro.serve.incremental.IncrementalClassifier` — O(1)
  ``observe``/``logit`` on top of the core model's ``step`` APIs.
* :class:`~repro.serve.router.SessionRouter` — demultiplexes the feed;
  LRU session eviction and out-of-order admission policies.
* :class:`~repro.serve.engine.StreamingEngine` — the deployable unit:
  router + classifier + :class:`~repro.serve.metrics.ServeMetrics`,
  micro-batched reads, checkpoint/restore of full serving state.
* :func:`~repro.serve.events.dataset_to_feed` — replay any dataset as
  a live feed (used by ``repro serve`` and the examples).
"""

from repro.serve.engine import StreamingEngine
from repro.serve.events import StreamEvent, dataset_to_feed, iter_feed, session_events
from repro.serve.recovery import RecoveryReport, recover_engine
from repro.serve.incremental import READ_MODES, IncrementalClassifier
from repro.serve.metrics import ServeMetrics
from repro.serve.router import (
    OUT_OF_ORDER_POLICIES,
    OutOfOrderError,
    RouterStats,
    SessionRouter,
)
from repro.serve.state import SessionState

__all__ = [
    "StreamingEngine",
    "StreamEvent",
    "RecoveryReport",
    "recover_engine",
    "dataset_to_feed",
    "session_events",
    "iter_feed",
    "IncrementalClassifier",
    "READ_MODES",
    "ServeMetrics",
    "SessionRouter",
    "SessionState",
    "RouterStats",
    "OutOfOrderError",
    "OUT_OF_ORDER_POLICIES",
]
