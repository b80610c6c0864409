"""One shard of the serving cluster: engine + queue + drain loop.

A :class:`ShardWorker` is a shared-nothing serving unit: it owns a
private :class:`~repro.serve.StreamingEngine` (sessions, router, LRU,
metrics), a :class:`~repro.cluster.queues.BoundedQueue` of pending
events, and — in the threaded backend — a daemon drain thread that
applies micro-batches.  The serial backend drains inline on the
submitting thread (deterministic; the property/chaos suites use it).

Every dequeued event goes through ``engine.ingest`` — byte for byte
the lone engine's code path (admission, journal, router, the raw-array
apply kernel inside
:meth:`~repro.serve.incremental.IncrementalClassifier.observe`), so a
shard adds queueing and isolation, never a second way to apply.

Failure isolation reuses the engine's circuit breaker: apply-path
exceptions (including faults injected at ``cluster.shard<id>.apply``)
feed the shard's breaker; once it trips, that shard sheds writes and
rejects reads while the rest of the cluster keeps serving.
"""

from __future__ import annotations

import threading
from time import perf_counter

from repro.cluster.metrics import ClusterMetrics
from repro.cluster.queues import BoundedQueue
from repro.resilience.faults import inject
from repro.serve.engine import StreamingEngine
from repro.serve.events import StreamEvent

BACKENDS = ("serial", "thread")

#: How long a barrier waits for the drain thread before giving up.
_BARRIER_TIMEOUT = 120.0


class ShardWorker:
    """One shard: a private engine behind a bounded ingest queue.

    Parameters
    ----------
    shard_id:
        Stable identifier (the ring placement target).
    engine:
        The shard's private :class:`StreamingEngine`.  Its breaker (if
        configured) is the shard's failure isolator.
    metrics:
        The cluster-wide :class:`ClusterMetrics` (per-shard series are
        labeled with ``shard_id``).
    queue_capacity / backpressure:
        Ingest queue bound and overflow policy (see
        :mod:`repro.cluster.queues`).
    batch_size:
        Micro-batch size of the drain loop.
    threaded:
        ``True`` runs a daemon drain thread; ``False`` drains inline on
        :meth:`submit` / :meth:`barrier` (deterministic).
    """

    def __init__(
        self,
        shard_id,
        engine: StreamingEngine,
        metrics: ClusterMetrics,
        queue_capacity: int = 2048,
        backpressure: str = "block",
        batch_size: int = 32,
        threaded: bool = False,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.shard_id = shard_id
        self.engine = engine
        self.metrics = metrics
        self.batch_size = batch_size
        self.queue = BoundedQueue(capacity=queue_capacity, policy=backpressure)
        self.applied_total = 0
        self._fault_point = f"cluster.shard{shard_id}.apply"
        self._gauge = metrics.queue_depth(shard_id)
        self._errors = metrics.shard_errors(shard_id)
        self._rejections = metrics.breaker_rejections(shard_id)
        self._apply_latency = metrics.apply_latency
        self._lock = threading.Lock()
        self._closed = False
        self._engine_rejections = engine.metrics.counter("breaker_rejections")
        self._thread: threading.Thread | None = None
        if threaded:
            self._thread = threading.Thread(
                target=self._drain_loop, name=f"shard-{shard_id}", daemon=True
            )
            self._thread.start()

    @property
    def threaded(self) -> bool:
        return self._thread is not None

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def submit(self, event: StreamEvent) -> bool:
        """Enqueue one event; returns False when backpressure shed it."""
        queue = self.queue
        if self._thread is None and len(queue) >= queue.capacity:
            # A serial shard is its own consumer: drain inline rather
            # than deadlocking on a full queue under the block policy.
            self._drain_pending()
        accepted = queue.put(event)
        if accepted and self._thread is None and len(queue) >= self.batch_size:
            self._drain_pending()
        self._gauge.set(len(queue))
        return accepted

    def _drain_pending(self) -> int:
        """Apply everything queued right now (serial backend)."""
        applied = 0
        while True:
            batch = self.queue.get_batch(self.batch_size, timeout=0)
            if not batch:
                return applied
            with self._lock:
                for event in batch:
                    applied += self._apply_one(event)
            self.queue.task_done(len(batch))

    def _drain_loop(self) -> None:
        """Threaded backend: block on the queue, apply micro-batches."""
        while True:
            batch = self.queue.get_batch(self.batch_size, timeout=0.05)
            if not batch:
                if self.queue.closed:
                    return
                continue
            with self._lock:
                for event in batch:
                    self._apply_one(event)
            self.queue.task_done(len(batch))
            self._gauge.set(len(self.queue))

    def _apply_one(self, event: StreamEvent) -> int:
        """Apply one dequeued event through ``engine.ingest``."""
        engine = self.engine
        try:
            inject(self._fault_point)
        except Exception:
            # A worker-level fault is an apply failure: feed the shard
            # breaker so repeated faults trip it open.
            if engine.breaker is not None:
                engine.breaker.record_failure()
            self._errors.inc()
            return 0
        rejected = self._engine_rejections.value
        start = perf_counter()
        try:
            applied = engine.ingest(event)
        except Exception:
            # engine.ingest already recorded the breaker failure on the
            # apply path; the shard stays up, the event is lost.
            self._errors.inc()
            return 0
        self._apply_latency.record(perf_counter() - start)
        shed = self._engine_rejections.value - rejected
        if shed:
            self._rejections.inc(shed)
        self.applied_total += applied
        return applied

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        """Liveness probe: raises when this shard can no longer serve.

        Checks the states a wedged or dead shard exhibits — worker
        closed, ingest queue closed, drain thread dead — and fires the
        ``cluster.heartbeat`` injection point first so chaos plans can
        simulate a shard death the supervisor must detect.  Cheap
        enough to run on every supervisor sweep; never drains.
        """
        inject("cluster.heartbeat", context=self.shard_id)
        if self._closed:
            raise RuntimeError(f"shard {self.shard_id}: worker is closed")
        if self.queue.closed:
            raise RuntimeError(f"shard {self.shard_id}: ingest queue is closed")
        if self._thread is not None and not self._thread.is_alive():
            raise RuntimeError(f"shard {self.shard_id}: drain thread died")
        return True

    # ------------------------------------------------------------------
    # Barrier + read path
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Return once every event submitted so far has been applied."""
        if self._thread is None:
            self._drain_pending()
        elif not self.queue.join(timeout=_BARRIER_TIMEOUT):
            raise TimeoutError(
                f"shard {self.shard_id}: drain did not settle within "
                f"{_BARRIER_TIMEOUT:.0f}s ({len(self.queue)} events pending)"
            )
        self._gauge.set(len(self.queue))

    def predict(self, session_id: str, mode: str = "online") -> float:
        self.barrier()
        with self._lock:
            return self.engine.predict(session_id, mode=mode)

    def predict_many(self, session_ids=None) -> dict[str, float]:
        self.barrier()
        with self._lock:
            return self.engine.predict_many(session_ids)

    def sessions(self) -> list[str]:
        """Live session ids (after a barrier), LRU order."""
        self.barrier()
        with self._lock:
            return self.engine.live_sessions()

    def flush(self) -> int:
        """Barrier + drain the engine's out-of-order buffers."""
        self.barrier()
        with self._lock:
            return self.engine.flush()

    # ------------------------------------------------------------------
    # Migration hooks (cluster-internal)
    # ------------------------------------------------------------------
    def snapshot_session(self, session_id: str) -> dict:
        """Drain in-flight events, then snapshot one session's arrays."""
        self.barrier()
        with self._lock:
            self.engine.flush(session_id)
            return self.engine.snapshot_session(session_id)

    def adopt_snapshot(self, session_id: str, arrays) -> list[str]:
        """Restore a migrated session under LRU discipline."""
        with self._lock:
            state = self.engine.classifier.restore(session_id, arrays)
            return self.engine.adopt_session(session_id, state)

    def drop_session(self, session_id: str):
        """Remove a session (migration source side; no evict hook)."""
        with self._lock:
            return self.engine.remove_session(session_id)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Engine counters + shard-local queue/breaker state."""
        engine = self.engine
        info: dict = dict(engine.metrics.counters())
        info.update(
            queue_depth=len(self.queue),
            queue_shed=self.queue.shed,
            errors=self._errors.value,
            applied=self.applied_total,
            live_sessions=len(engine.router),
            breaker_state=None if engine.breaker is None else engine.breaker.state,
        )
        return info

    def close(self) -> None:
        """Stop the drain thread; pending events are applied first."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            self.queue.join(timeout=_BARRIER_TIMEOUT)
            self.queue.close()
            self._thread.join(timeout=5.0)
        else:
            self._drain_pending()
            self.queue.close()
        if self.engine.journal is not None:
            self.engine.journal.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardWorker(shard={self.shard_id!r}, queued={len(self.queue)}, "
            f"applied={self.applied_total})"
        )
