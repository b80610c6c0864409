"""The sharded serving front-end: consistent routing + live migration.

:class:`ShardedCluster` scales :class:`~repro.serve.StreamingEngine`
horizontally: N shared-nothing :class:`~repro.cluster.worker.ShardWorker`
shards each own a private engine, and the front-end routes every event
to the shard owning its session on a consistent-hash ring
(:class:`~repro.cluster.ring.HashRing`).  Because a session's whole
event stream lands on one shard, per-session ordering — and therefore
the streaming==batch equivalence guarantee — is preserved; the
property suite pins cluster predictions bitwise-equal to a lone
engine's, including across a mid-feed :meth:`rebalance`.

Topology is dynamic: :meth:`add_shard` / :meth:`remove_shard` change
the ring (consistent hashing moves only ~1/n of the keys) and
:meth:`rebalance` performs the **live session migration**: a global
barrier drains in-flight events, then each misplaced session is
snapshotted (``classifier.snapshot``), integrity-validated, and adopted
by its new shard (``classifier.restore`` + LRU-disciplined adoption).
A snapshot that fails validation — e.g. corrupted by a fault injected
at ``cluster.migrate.snapshot`` — quarantines that *session* only; the
shard and the rest of the migration proceed.

Failure isolation is per shard: each engine carries its own circuit
breaker, so a faulting shard sheds writes and rejects reads without
taking down the cluster (chaos-tested by the ``shard-kill`` scenario).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from repro.cluster.metrics import ClusterMetrics
from repro.cluster.queues import BACKPRESSURE_POLICIES
from repro.cluster.ring import HashRing
from repro.cluster.worker import ShardWorker
from repro.core.model import TPGNN
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import inject
from repro.resilience.journal import FSYNC_POLICIES, Journal
from repro.resilience.retry import RetryPolicy
from repro.serve.engine import StreamingEngine
from repro.serve.events import StreamEvent
from repro.telemetry import MetricRegistry

BACKENDS = ("serial", "thread")


@dataclass
class RebalanceReport:
    """What one :meth:`ShardedCluster.rebalance` did."""

    examined: int = 0
    moved: int = 0
    quarantined: int = 0
    moves: list[tuple[str, object, object]] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RebalanceReport(examined={self.examined}, moved={self.moved}, "
            f"quarantined={self.quarantined})"
        )


class ShardedCluster:
    """Consistent-hash sharded serving over N private engines.

    Parameters
    ----------
    model:
        The served TP-GNN.  Parameters are shared (read-only on the
        serving path) across all shard engines — shards are
        shared-nothing in *state*, not in weights.
    n_shards:
        Initial shard count.
    backend:
        ``"serial"`` applies events inline on the submitting thread
        (deterministic — tests, chaos); ``"thread"`` runs one daemon
        drain thread per shard behind the ingest queues.
    registry:
        Optional shared :class:`~repro.telemetry.MetricRegistry` for
        the cluster series.
    queue_capacity / backpressure / batch_size:
        Per-shard ingest queue bound, overflow policy
        (:data:`~repro.cluster.queues.BACKPRESSURE_POLICIES`) and
        drain micro-batch size.
    max_sessions / out_of_order / watermark_delay / max_buffered /
    missing_features:
        Per-shard engine configuration (see :class:`StreamingEngine`).
    breaker_threshold / breaker_cooldown:
        Per-shard circuit breaker; ``breaker_threshold=None`` disables
        breakers entirely.
    replicas:
        Virtual nodes per shard on the hash ring.
    migration_retry:
        :class:`RetryPolicy` for the adopt step of a migration;
        failures that survive the retries quarantine the session.
    journal_dir:
        Root directory for per-shard write-ahead journals.  Each shard
        appends its accepted events to ``<journal_dir>/shard-<id>``
        before applying them, and learner observations go to
        ``<journal_dir>/learner`` — the durable stream a
        :class:`~repro.cluster.supervisor.ShardSupervisor` replays to
        respawn a dead shard.  ``None`` (default) disables journaling.
    journal_fsync:
        Fsync policy of every journal
        (:data:`~repro.resilience.journal.FSYNC_POLICIES`).
    """

    def __init__(
        self,
        model: TPGNN,
        n_shards: int = 2,
        backend: str = "serial",
        registry: MetricRegistry | None = None,
        queue_capacity: int = 2048,
        backpressure: str = "block",
        batch_size: int = 32,
        max_sessions: int = 1024,
        out_of_order: str = "drop",
        watermark_delay: float = 0.0,
        max_buffered: int | None = 4096,
        missing_features: str = "zeros",
        breaker_threshold: int | None = 5,
        breaker_cooldown: float = 30.0,
        replicas: int = 64,
        migration_retry: RetryPolicy | None = RetryPolicy(attempts=2),
        journal_dir: str | Path | None = None,
        journal_fsync: str = "interval",
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if journal_fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"journal_fsync must be one of {FSYNC_POLICIES}, got {journal_fsync!r}"
            )
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {backpressure!r}; "
                f"choose from {BACKPRESSURE_POLICIES}"
            )
        self.model = model
        self.backend = backend
        self.learner = None
        self.journal_dir = None if journal_dir is None else Path(journal_dir)
        self.journal_fsync = journal_fsync
        self.learner_journal: Journal | None = None
        self.metrics = ClusterMetrics(registry)
        self.ring = HashRing(replicas=replicas)
        self.quarantined: dict[str, str] = {}
        self._engine_config = dict(
            max_sessions=max_sessions,
            out_of_order=out_of_order,
            watermark_delay=watermark_delay,
            max_buffered=max_buffered,
            missing_features=missing_features,
        )
        self._breaker_config = (
            None
            if breaker_threshold is None
            else dict(failure_threshold=breaker_threshold, cooldown=breaker_cooldown)
        )
        self._worker_config = dict(
            queue_capacity=queue_capacity,
            backpressure=backpressure,
            batch_size=batch_size,
            threaded=(backend == "thread"),
        )
        self._migration_retry = migration_retry
        self._shards: dict[int, ShardWorker] = {}
        # Ring placements are pure in the topology, so they are cached
        # per session (md5 once, dict lookups after); any add/remove
        # invalidates the whole cache.
        self._placement: dict[str, int] = {}
        self._next_shard_id = 0
        self._closed = False
        for _ in range(n_shards):
            self.add_shard()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def shard_journal_dir(self, shard_id: int) -> Path:
        """Journal directory of one shard (requires ``journal_dir``)."""
        if self.journal_dir is None:
            raise ValueError("cluster was built without journal_dir")
        return self.journal_dir / f"shard-{shard_id}"

    def _build_worker(self, shard_id: int) -> ShardWorker:
        breaker = (
            None
            if self._breaker_config is None
            else CircuitBreaker(**self._breaker_config)
        )
        journal = None
        if self.journal_dir is not None:
            journal = Journal(
                self.shard_journal_dir(shard_id),
                fsync=self.journal_fsync,
                registry=self.metrics.registry,
            )
        engine = StreamingEngine(
            self.model, breaker=breaker, journal=journal, **self._engine_config
        )
        return ShardWorker(shard_id, engine, self.metrics, **self._worker_config)

    def add_shard(self) -> int:
        """Join a fresh, empty shard; returns its id.

        Existing sessions stay put until :meth:`rebalance` moves the
        ~1/n of them the ring now places on the new shard.
        """
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        self._shards[shard_id] = self._build_worker(shard_id)
        self.ring.add(shard_id)
        self._placement.clear()
        return shard_id

    def remove_shard(self, shard_id: int) -> RebalanceReport:
        """Retire a shard, migrating every one of its sessions away."""
        worker = self._shards.get(shard_id)
        if worker is None:
            raise KeyError(f"unknown shard {shard_id!r}")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self.ring.remove(shard_id)
        self._placement.clear()
        report = RebalanceReport()
        for session_id in worker.sessions():
            target = self._shards[self.ring.place(session_id)]
            self._migrate(session_id, shard_id, worker, target, report)
        worker.close()
        del self._shards[shard_id]
        return report

    @property
    def shard_ids(self) -> list[int]:
        return sorted(self._shards)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_for(self, session_id: str) -> int:
        """The shard id currently owning ``session_id``."""
        shard_id = self._placement.get(session_id)
        if shard_id is None:
            shard_id = self.ring.place(session_id)
            self._placement[session_id] = shard_id
        return shard_id

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def submit(self, event: StreamEvent) -> bool:
        """Route one event to its shard; returns False when shed."""
        start = perf_counter()
        worker = self._shards[self.shard_for(event.session_id)]
        accepted = worker.submit(event)
        self.metrics.events_routed.inc()
        if not accepted:
            self.metrics.events_shed.inc()
        self.metrics.ingest_latency.record(perf_counter() - start)
        return accepted

    def ingest_many(self, feed: Iterable[StreamEvent]) -> int:
        """Route a whole feed; returns how many events were accepted."""
        return sum(1 for event in feed if self.submit(event))

    def barrier(self) -> None:
        """Wait until every submitted event has been applied."""
        for worker in self._shards.values():
            worker.barrier()

    def flush(self) -> int:
        """Barrier + drain every shard's out-of-order buffers."""
        return sum(worker.flush() for worker in self._shards.values())

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def predict(self, session_id: str, mode: str = "online") -> float:
        """Probability that ``session_id`` is positive (its shard's
        engine answers after a drain barrier)."""
        start = perf_counter()
        worker = self._shards[self.shard_for(session_id)]
        probability = worker.predict(session_id, mode=mode)
        self.metrics.predict_latency.record(perf_counter() - start)
        return probability

    def predict_many(
        self, session_ids: Sequence[str] | None = None
    ) -> dict[str, float]:
        """Micro-batched scoring, grouped per shard."""
        if session_ids is None:
            groups = {
                shard_id: worker.sessions()
                for shard_id, worker in self._shards.items()
            }
        else:
            groups = {}
            for session_id in session_ids:
                groups.setdefault(self.shard_for(session_id), []).append(session_id)
        out: dict[str, float] = {}
        for shard_id, ids in groups.items():
            if ids:
                out.update(self._shards[shard_id].predict_many(ids))
        return out

    def sessions(self) -> dict[int, list[str]]:
        """Live session ids per shard (after a barrier)."""
        return {
            shard_id: worker.sessions()
            for shard_id, worker in self._shards.items()
        }

    def live_sessions(self) -> list[str]:
        """All live session ids across the cluster."""
        return [sid for ids in self.sessions().values() for sid in ids]

    # ------------------------------------------------------------------
    # Continual learning
    # ------------------------------------------------------------------
    def attach_learner(self, learner) -> None:
        """Co-deploy an online learner updating the cluster's model.

        Shards share the model object (weights are shared by identity,
        state is not), so one learner updates every shard's serving
        weights coherently; the learner must therefore wrap exactly
        ``self.model``.  Learner state moves with serve checkpoints
        (see ``StreamingEngine.checkpoint``) and survives
        :meth:`rebalance` — migration moves session state only, the
        updated weights and optimizer moments stay attached.
        """
        if learner.model is not self.model:
            raise ValueError(
                "learner must wrap the same model object the cluster serves"
            )
        self.learner = learner
        if self.journal_dir is not None and self.learner_journal is None:
            self.learner_journal = Journal(
                self.journal_dir / "learner",
                fsync=self.journal_fsync,
                registry=self.metrics.registry,
            )

    def observe_example(self, graph) -> float:
        """Prequential test-then-train on one completed labelled session.

        Runs behind a drain barrier so the score reflects every event
        already submitted (the same discipline reads use).  Returns the
        pre-update probability.
        """
        if self.learner is None:
            raise ValueError("no learner attached (call attach_learner first)")
        self.barrier()
        if self.learner_journal is not None:
            # Write-ahead for the learner too: a crash mid-update
            # replays the observation and reconstructs the exact
            # post-update weights/moments/buffer/RNG.
            self.learner_journal.append_observation(graph)
        return self.learner.observe(graph)

    # ------------------------------------------------------------------
    # Live migration
    # ------------------------------------------------------------------
    def rebalance(self) -> RebalanceReport:
        """Move every session to the shard the ring currently assigns.

        Drains all in-flight events first (so the moved state includes
        everything submitted before the call — the equivalence property
        depends on it), then snapshot→validate→adopt each misplaced
        session.  Corrupt snapshots quarantine the session, never the
        shard.
        """
        self.barrier()
        report = RebalanceReport()
        for shard_id, worker in list(self._shards.items()):
            for session_id in worker.sessions():
                target_id = self.ring.place(session_id)
                report.examined += 1
                if target_id == shard_id:
                    continue
                self._migrate(
                    session_id, shard_id, worker, self._shards[target_id], report
                )
        self.metrics.rebalances.inc()
        return report

    def _migrate(
        self,
        session_id: str,
        source_id: int,
        source: ShardWorker,
        target: ShardWorker,
        report: RebalanceReport,
    ) -> bool:
        """Move one session; on any failure quarantine it (not the shard)."""
        arrays = source.snapshot_session(session_id)
        try:
            inject(
                "cluster.migrate.snapshot",
                # Poisonable context: the snapshot's float payloads
                # (int arrays would reject a nan write with ValueError).
                context=lambda: [
                    a for a in arrays.values() if a.dtype.kind == "f"
                ],
            )
            self._validate_snapshot(session_id, arrays)
            if self._migration_retry is not None:
                self._migration_retry.call(target.adopt_snapshot, session_id, arrays)
            else:
                target.adopt_snapshot(session_id, arrays)
        except Exception as error:
            # The state failed integrity checks (or could not be
            # adopted): it cannot be trusted on either side.  Remove it
            # from serving and keep migrating the rest.
            source.drop_session(session_id)
            target.drop_session(session_id)
            self.quarantined[session_id] = f"{type(error).__name__}: {error}"
            self.metrics.sessions_quarantined.inc()
            report.quarantined += 1
            return False
        source.drop_session(session_id)
        self.metrics.sessions_migrated.inc()
        report.moved += 1
        report.moves.append((session_id, source_id, target.shard_id))
        return True

    @staticmethod
    def _validate_snapshot(session_id: str, arrays: dict) -> None:
        """Reject snapshots carrying non-finite state."""
        for key, array in arrays.items():
            if array.dtype.kind == "f" and not np.isfinite(array).all():
                raise ValueError(
                    f"session {session_id!r}: snapshot array {key!r} "
                    "contains non-finite values"
                )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Cluster counters, latency percentiles and per-shard stats."""
        return {
            "cluster": {
                "n_shards": self.n_shards,
                "events_routed": self.metrics.events_routed.value,
                "events_shed": self.metrics.events_shed.value,
                "sessions_migrated": self.metrics.sessions_migrated.value,
                "sessions_quarantined": self.metrics.sessions_quarantined.value,
                "rebalances": self.metrics.rebalances.value,
            },
            "latency": self.metrics.latency_summary(),
            "shards": {
                shard_id: worker.stats()
                for shard_id, worker in self._shards.items()
            },
        }

    def close(self) -> None:
        """Stop every shard (pending events are applied first)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._shards.values():
            worker.close()
        if self.learner_journal is not None:
            self.learner_journal.close()

    def __enter__(self) -> "ShardedCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedCluster(shards={self.shard_ids}, backend={self.backend!r}, "
            f"routed={self.metrics.events_routed.value})"
        )
