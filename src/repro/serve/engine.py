"""The streaming inference engine: router + incremental model + metrics.

:class:`StreamingEngine` is the deployable unit of :mod:`repro.serve`.
It ingests an interleaved :class:`~repro.serve.events.StreamEvent`
feed, maintains live per-session temporal state, and answers
predictions in O(1) per session — no edge-list replay on the hot path.

Responsibilities are split cleanly so later scaling PRs (sharding,
async ingest, state caches) replace one seam at a time:

* :class:`~repro.serve.router.SessionRouter` — session table, LRU
  eviction, out-of-order admission;
* :class:`~repro.serve.incremental.IncrementalClassifier` — the O(1)
  model-state updates and the online/exact read paths;
* :class:`~repro.serve.metrics.ServeMetrics` — operational counters
  and step-latency percentiles;
* :meth:`StreamingEngine.checkpoint` / :meth:`StreamingEngine.restore`
  — full serving state (weights + every live session + counters) in
  one archive, via :mod:`repro.nn.serialization`.
"""

from __future__ import annotations

import time as _time
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import telemetry
from repro.core.model import TPGNN
from repro.nn.serialization import read_archive, write_archive
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.errors import DeadlineExceededError
from repro.resilience.faults import inject
from repro.serve.events import StreamEvent
from repro.serve.incremental import IncrementalClassifier
from repro.serve.metrics import ServeMetrics
from repro.serve.router import SessionRouter
from repro.serve.state import SessionState

_FORMAT = "repro-serve-state"
_FORMAT_VERSION = 1


def _code_version() -> str:
    # Imported lazily: repro.experiments pulls in the whole offline
    # training stack, which the serve layer must not load at import.
    from repro.experiments.parallel import CODE_VERSION

    return CODE_VERSION


class StreamingEngine:
    """Online TP-GNN inference over an interleaved multi-session feed.

    Parameters
    ----------
    model:
        The (ideally trained) TP-GNN whose parameters serve traffic.
    max_sessions:
        LRU capacity of the session table.
    out_of_order:
        Admission policy for per-session disorder (``"drop"``,
        ``"raise"`` or ``"buffer"``; see :class:`SessionRouter`).
    watermark_delay:
        Buffer window for the ``"buffer"`` policy.
    on_evict:
        Optional hook ``(session_id, SessionState) -> None`` fired when
        the LRU evicts a session (e.g. emit its final prediction).
    missing_features:
        Endpoint cold-start policy (see :class:`IncrementalClassifier`).
        The engine defaults to ``"zeros"``: after an LRU eviction the
        tail of a re-admitted session must keep serving rather than
        crash the ingest loop.
    metrics:
        Inject a :class:`ServeMetrics` (a fresh one is created
        otherwise).
    max_buffered:
        Per-session cap on the out-of-order buffer (see
        :class:`SessionRouter`); overflow drops are counted in
        ``metrics.events_overflow_dropped``.
    validate:
        Event admission control: ``None`` (off), a policy string
        (``"strict"`` / ``"skip"`` / ``"degrade"``, see
        :class:`~repro.resilience.validation.EventValidator`), or a
        pre-built validator.  Quarantined events are counted in
        ``metrics.events_quarantined`` and never touch model state.
    max_node:
        Node-range bound handed to the validator (ignored when
        ``validate`` is a pre-built instance).
    breaker:
        Optional :class:`~repro.resilience.CircuitBreaker` guarding the
        hot paths.  While open, *writes are shed* (the update is
        skipped and ``metrics.breaker_rejections`` counted — the stream
        keeps flowing) and *reads raise*
        :class:`~repro.resilience.CircuitOpenError` (a caller must not
        mistake a rejection for a prediction).
    deadline_seconds:
        Cooperative per-call latency budget for apply/predict.  A
        breach is detected when the call returns: it is counted in
        ``metrics.deadline_breaches``, recorded as a breaker failure,
        and — on the read path only — raised as
        :class:`~repro.resilience.DeadlineExceededError`.
    learner:
        Optional :class:`~repro.online.OnlineLearner` co-deployed with
        this engine (continual learning on the served model).  Its full
        state — weights, optimizer moments, replay buffer — is folded
        into :meth:`checkpoint` archives and restored by
        :meth:`restore`, so online updates survive restarts and
        cluster live migration.
    journal:
        Optional :class:`~repro.resilience.journal.Journal` the engine
        appends every *accepted* event (and every learner observation
        routed through :meth:`observe_example`) to **before** applying
        it — the write-ahead discipline
        :func:`~repro.serve.recovery.recover_engine` replays after a
        crash.  Quarantined events never reach the journal; router
        drops do (replay re-drops them deterministically).
    """

    def __init__(
        self,
        model: TPGNN,
        max_sessions: int = 1024,
        out_of_order: str = "drop",
        watermark_delay: float = 0.0,
        on_evict: Callable[[str, SessionState], None] | None = None,
        missing_features: str = "zeros",
        metrics: ServeMetrics | None = None,
        max_buffered: int | None = 4096,
        validate=None,
        max_node: int | None = None,
        breaker: CircuitBreaker | None = None,
        deadline_seconds: float | None = None,
        learner=None,
        journal=None,
    ):
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(f"deadline_seconds must be positive, got {deadline_seconds}")
        self.classifier = IncrementalClassifier(model, missing_features=missing_features)
        self.metrics = metrics if metrics is not None else ServeMetrics()
        # Counter handles for the hot paths: one ``inc()`` per event
        # instead of a property get/set round-trip.
        counter = self.metrics.counter
        self._ingested = counter("events_ingested")
        self._applied = counter("events_applied")
        self._quarantined = counter("events_quarantined")
        self._started = counter("sessions_started")
        self._evicted = counter("sessions_evicted")
        self._rejections = counter("breaker_rejections")
        self._served = counter("predictions_served")
        self._step_latency = self.metrics.step_latency
        self._drop_counters = (
            counter("events_dropped"),
            counter("events_late_dropped"),
            counter("events_overflow_dropped"),
        )
        # Router drop counts already folded into ``_drop_counters``.
        self._drops_seen = (0, 0, 0)
        self.learner = None
        if learner is not None:
            self.attach_learner(learner)
        self.journal = journal
        # Replay position of the checkpoint this engine was restored
        # from: journal records with seq <= anchor are already folded
        # into the state (0 for a fresh engine).
        self._journal_anchor = 0
        self._user_on_evict = on_evict
        self.validator = self._build_validator(validate, max_node)
        self.breaker = breaker
        self.deadline_seconds = deadline_seconds
        self.router: SessionRouter[SessionState] = SessionRouter(
            factory=self._new_session,
            max_sessions=max_sessions,
            out_of_order=out_of_order,
            watermark_delay=watermark_delay,
            max_buffered=max_buffered,
            on_evict=self._on_evict,
        )
        self._buffering = out_of_order == "buffer"

    @staticmethod
    def _build_validator(validate, max_node: int | None):
        # Imported lazily: repro.resilience.validation imports this
        # module back (see the note in repro/resilience/__init__.py).
        if validate is None:
            return None
        from repro.resilience.validation import EventValidator

        if isinstance(validate, EventValidator):
            return validate
        return EventValidator(policy=str(validate), max_node=max_node)

    @property
    def model(self) -> TPGNN:
        """The served model (parameters shared, not copied)."""
        return self.classifier.model

    @property
    def journal_anchor(self) -> int:
        """Journal seq already folded into this engine's base state."""
        return self._journal_anchor

    def attach_learner(self, learner) -> None:
        """Co-deploy an online learner updating this engine's model.

        The learner must hold the *same* model object the engine serves
        — parameter updates are shared by identity, never copied — so a
        mismatch is a wiring bug and raises.
        """
        if learner.model is not self.classifier.model:
            raise ValueError(
                "learner must wrap the same model object this engine serves"
            )
        self.learner = learner

    def attach_journal(self, journal) -> None:
        """Start write-ahead journaling every accepted event.

        Attached *after* replay by :func:`~repro.serve.recovery.recover_engine`
        so replayed events are not re-journaled.
        """
        self.journal = journal

    def observe_example(self, graph) -> float:
        """Feed one labelled graph to the co-deployed learner, journaled.

        The observation is appended to the journal (when one is
        attached) *before* the learner sees it, so a crash mid-update
        replays it and reconstructs the exact post-update weights,
        Adam moments, replay buffer and RNG state.
        """
        if self.learner is None:
            raise ValueError(
                "no learner attached; pass learner= or call attach_learner() "
                "before observe_example()"
            )
        if self.journal is not None:
            self.journal.append_observation(graph)
        return self.learner.observe(graph)

    def _new_session(self, session_id: str) -> SessionState:
        self._started.inc()
        return self.classifier.new_session(session_id)

    def _on_evict(self, session_id: str, state: SessionState) -> None:
        self._evicted.inc()
        if self._user_on_evict is not None:
            self._user_on_evict(session_id, state)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def ingest(self, event: StreamEvent) -> int:
        """Admit one event; returns how many session updates it applied.

        Under the buffer policy one arrival can release several queued
        events (or none); under drop/raise it is 0 or 1.  With a
        validator configured, a quarantined event is counted and
        returns 0 without touching the router.
        """
        self._ingested.inc()
        if self.validator is not None:
            admitted = self.validator.admit(event)
            if admitted is None:
                self._quarantined.inc()
                return 0
            event = admitted
        if self.journal is not None:
            # Write-ahead: the event hits stable storage before any
            # router/model state changes.  Replay routes it through
            # this same deterministic path, so drops/buffering recur
            # identically and recovery is bit-exact.
            self.journal.append_event(event)
        deliveries = self.router.route(event)
        if not deliveries or self._buffering:
            # Under drop/raise an event is delivered or dropped, never
            # both; only the buffer policy can release and drop at once.
            self._count_drops()
        for state, ready in deliveries:
            self._apply(state, ready)
        return len(deliveries)

    def _count_drops(self) -> None:
        """Fold the router's drop counts that moved into the metrics."""
        stats = self.router.stats
        drops = (stats.dropped, stats.late_dropped, stats.buffer_overflow_dropped)
        if drops != self._drops_seen:
            for counter, now, seen in zip(self._drop_counters, drops, self._drops_seen):
                counter.inc(now - seen)
            self._drops_seen = drops

    def _apply(self, state: SessionState, event: StreamEvent) -> None:
        if self.breaker is not None and not self.breaker.allow():
            # Load shedding: while the circuit is open the stream keeps
            # flowing, but updates are skipped and counted.
            self._rejections.inc()
            return
        if state.label is None and event.label is not None:
            state.label = event.label
        with telemetry.span("serve_apply"):
            start = _time.perf_counter()
            try:
                inject("serve.apply")
                self.classifier.observe(
                    state, (event.src, event.dst, event.time), event.node_features
                )
            except Exception:
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise
            elapsed = _time.perf_counter() - start
            self._applied.inc()
            self._step_latency.record(elapsed)
        if self.deadline_seconds is not None and self._deadline_breached(elapsed):
            return
        if self.breaker is not None:
            self.breaker.record_success()

    def _deadline_breached(self, elapsed: float) -> bool:
        """Count (and feed the breaker) a post-call deadline breach."""
        if self.deadline_seconds is None or elapsed <= self.deadline_seconds:
            return False
        self.metrics.deadline_breaches += 1
        if self.breaker is not None:
            self.breaker.record_failure()
        return True

    def ingest_many(self, feed: Iterable[StreamEvent]) -> int:
        """Ingest a whole feed; returns total session updates applied."""
        return sum(self.ingest(event) for event in feed)

    def flush(self, session_id: str | None = None) -> int:
        """Drain buffered events (end-of-stream); returns count applied.

        With ``session_id`` only that session's buffer is drained — the
        pre-migration barrier a cluster runs before snapshotting one
        session out of a live shard.
        """
        applied = 0
        for state, event in self.router.flush(session_id):
            self._apply(state, event)
            applied += 1
        return applied

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def session(self, session_id: str) -> SessionState | None:
        """The live state of one session (None if unknown/evicted)."""
        return self.router.get(session_id)

    def live_sessions(self) -> list[str]:
        """Ids of all live sessions, least-recently-active first."""
        return self.router.session_ids()

    def predict(self, session_id: str, mode: str = "online") -> float:
        """Probability that ``session_id`` is positive, from live state.

        ``mode="online"`` is the O(1) hot path; ``mode="exact"``
        reproduces batch-replay logits (O(m) in the extractor only).
        """
        state = self.router.get(session_id)
        if state is None:
            raise KeyError(f"unknown session {session_id!r} (never seen or evicted)")
        if self.breaker is not None and not self.breaker.allow():
            self._rejections.inc()
            from repro.resilience.errors import CircuitOpenError

            raise CircuitOpenError(
                f"serving circuit open; prediction for {session_id!r} rejected"
            )
        with telemetry.span("serve_predict"):
            start = _time.perf_counter()
            try:
                inject("serve.predict")
                probability = self.classifier.predict_proba(state, mode=mode)
            except Exception:
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise
            elapsed = _time.perf_counter() - start
        if self._deadline_breached(elapsed):
            raise DeadlineExceededError(
                f"predict({session_id!r}) took {elapsed:.3f}s, exceeding the "
                f"{self.deadline_seconds:.3f}s deadline"
            )
        if self.breaker is not None:
            self.breaker.record_success()
        self._served.inc()
        return probability

    def predict_many(
        self, session_ids: Sequence[str] | None = None
    ) -> dict[str, float]:
        """Micro-batched online scoring of many sessions at once.

        Groups the pending sessions' graph embeddings into one matrix
        and runs the classifier head in a single matmul pass — the
        grouped read path a polling consumer should use.
        """
        ids = list(session_ids) if session_ids is not None else self.live_sessions()
        states = []
        for session_id in ids:
            state = self.router.get(session_id)
            if state is None:
                raise KeyError(f"unknown session {session_id!r} (never seen or evicted)")
            states.append(state)
        with telemetry.span("serve_predict_many"):
            logits = self.classifier.logits_online(states)
        self._served.inc(len(ids))
        probabilities = 1.0 / (1.0 + np.exp(-logits))
        return dict(zip(ids, (float(p) for p in probabilities)))

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, path: str | Path, metadata: dict | None = None) -> Path:
        """Persist the full serving state to one ``.npz`` archive.

        Contains the model weights, every live session's temporal
        state, the LRU order, and the metric counters — enough to
        restart the server mid-stream with :meth:`restore`.

        With a journal attached the archive also anchors the journal
        position (``journal_seq``): recovery replays only records past
        it, and :meth:`Journal.truncate_upto` can reclaim the segments
        behind it.  The journal is fsynced first so the anchor never
        points past stable storage.  Note the anchor covers *accepted*
        events — under the ``buffer`` policy, drain with :meth:`flush`
        before checkpointing if buffered events must be folded in.
        """
        if self.journal is not None:
            self.journal.sync()
        arrays: dict[str, np.ndarray] = {
            f"model.{name}": value for name, value in self.model.state_dict().items()
        }
        session_ids = self.live_sessions()
        labels = {}
        for index, session_id in enumerate(session_ids):
            state = self.router.get(session_id)
            for key, value in self.classifier.snapshot(state).items():
                arrays[f"session.{index}.{key}"] = value
            labels[session_id] = state.label
        if self.learner is not None:
            for key, value in self.learner.snapshot().items():
                arrays[f"learner.{key}"] = value
        meta = {
            "format": _FORMAT,
            "format_version": _FORMAT_VERSION,
            "code_version": _code_version(),
            "journal_seq": (
                self.journal.last_seq
                if self.journal is not None
                else self._journal_anchor
            ),
            "model_class": type(self.model).__name__,
            "has_learner": self.learner is not None,
            "sessions": session_ids,
            "config": {
                "max_sessions": self.router.max_sessions,
                "out_of_order": self.router.out_of_order,
                "watermark_delay": self.router.watermark_delay,
                "max_buffered": self.router.max_buffered,
            },
            "metrics": self.metrics.counters(),
            "user": metadata or {},
        }
        return write_archive(path, arrays, meta)

    @classmethod
    def restore(
        cls,
        path: str | Path,
        model: TPGNN,
        on_evict: Callable[[str, SessionState], None] | None = None,
        max_sessions: int | None = None,
        learner=None,
        allow_version_mismatch: bool = False,
        load_weights: bool = True,
    ) -> "StreamingEngine":
        """Rebuild an engine (weights + sessions + counters) from disk.

        ``model`` must be architecturally identical to the one that
        wrote the checkpoint; its parameters are overwritten.
        ``max_sessions`` overrides the checkpointed LRU capacity (e.g.
        restoring into a smaller shard).  If the checkpoint holds more
        sessions than the capacity — a tampered archive, or a deliberate
        downsize — the oldest sessions *in checkpoint order* (the
        checkpoint lists least-recently-active first) are evicted and
        counted in ``metrics.sessions_restore_evicted`` rather than
        silently over-filling the router.

        ``learner`` restores a co-deployed online learner: pass a fresh
        :class:`~repro.online.OnlineLearner` built over ``model`` with
        the same config, and its weights, optimizer moments and replay
        buffer are loaded from the checkpoint (written there by
        :meth:`checkpoint` when a learner was attached).  Restoring a
        learner from a checkpoint that carries none raises.

        A checkpoint written by a different ``CODE_VERSION`` (or one
        predating the version field) raises
        :class:`~repro.resilience.errors.CheckpointVersionError` —
        state layouts are only guaranteed compatible within one
        version.  Pass ``allow_version_mismatch=True`` to load it
        anyway after verifying the layouts match.

        ``load_weights=False`` keeps ``model``'s *current* parameters
        instead of the checkpointed ones — the shard-respawn path: the
        cluster model is live (possibly advanced by the online
        learner), and a respawned shard must rejoin it, not roll it
        back.
        """
        arrays, meta = read_archive(path)
        if meta.get("format") != _FORMAT:
            raise ValueError(f"{path} is not a serving-state checkpoint")
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported serving-state format {meta.get('format_version')!r}"
            )
        stored_version = meta.get("code_version")
        current_version = _code_version()
        if stored_version != current_version and not allow_version_mismatch:
            from repro.resilience.errors import CheckpointVersionError

            raise CheckpointVersionError(
                f"{path} was written by code version {stored_version!r} but this "
                f"process runs {current_version!r}; serving-state layouts are only "
                "guaranteed compatible within one version.  Re-checkpoint from a "
                "matching build, or pass allow_version_mismatch=True "
                "(repro recover --allow-version-mismatch) after verifying the "
                "layouts match.",
                stored=stored_version,
                current=current_version,
            )
        # One pass over the archive keys: ``model.*``, ``learner.*`` and
        # ``session.<index>.*`` grouped by their first component(s).
        model_state: dict[str, np.ndarray] = {}
        learner_state: dict[str, np.ndarray] = {}
        session_arrays: dict[str, dict[str, np.ndarray]] = {}
        for key, value in arrays.items():
            section, _, rest = key.partition(".")
            if section == "model":
                model_state[rest] = value
            elif section == "learner":
                learner_state[rest] = value
            elif section == "session":
                index, _, name = rest.partition(".")
                session_arrays.setdefault(index, {})[name] = value
        if load_weights:
            model.load_state_dict(model_state)
        config = meta.get("config", {})
        max_buffered = config.get("max_buffered", 4096)
        engine = cls(
            model,
            max_sessions=int(config.get("max_sessions", 1024))
            if max_sessions is None
            else int(max_sessions),
            out_of_order=str(config.get("out_of_order", "drop")),
            watermark_delay=float(config.get("watermark_delay", 0.0)),
            max_buffered=None if max_buffered is None else int(max_buffered),
            on_evict=on_evict,
        )
        engine.metrics.load_counters(meta.get("metrics", {}))
        engine._journal_anchor = int(meta.get("journal_seq", 0) or 0)
        for index, session_id in enumerate(meta.get("sessions", [])):
            state = engine.classifier.restore(session_id, session_arrays.get(str(index), {}))
            evicted = engine.adopt_session(session_id, state)
            engine.metrics.sessions_restore_evicted += len(evicted)
        if learner is not None:
            if not meta.get("has_learner"):
                raise ValueError(
                    f"{path} carries no learner state but a learner was passed"
                )
            learner.restore(learner_state)
            engine.attach_learner(learner)
        return engine

    # ------------------------------------------------------------------
    # Session migration (single-session snapshot / adopt / remove)
    # ------------------------------------------------------------------
    def snapshot_session(self, session_id: str) -> dict[str, np.ndarray]:
        """Flat array snapshot of one live session (for migration).

        Drain the session's out-of-order buffer first (``flush(session_id)``)
        if in-flight events must be folded in before the state moves.
        """
        state = self.router.get(session_id)
        if state is None:
            raise KeyError(f"unknown session {session_id!r} (never seen or evicted)")
        return self.classifier.snapshot(state)

    def adopt_session(self, session_id: str, state: SessionState) -> list[str]:
        """Install an externally restored session under LRU discipline.

        The router evicts least-recently-active sessions (firing
        ``on_evict`` and counting ``sessions_evicted``) until the
        adoptee fits; their ids are returned so the caller can account
        the displacement (restore counts them as
        ``sessions_restore_evicted``).
        """
        return self.router.adopt(session_id, state, last_time=state.last_time)

    def remove_session(self, session_id: str) -> SessionState | None:
        """Drop one session from the table (no evict hook); returns it.

        The migration source calls this after the target has adopted
        the snapshot — removal is not an eviction, so ``on_evict`` (a
        final-prediction or checkpoint hook) must not fire.
        """
        return self.router.pop(session_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingEngine(sessions={len(self.router)}, "
            f"policy={self.router.out_of_order!r}, "
            f"events={self.metrics.events_applied})"
        )
