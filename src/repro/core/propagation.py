"""Temporal propagation — the paper's message-passing mechanism (Sec. IV-B).

Temporal propagation walks the edge list in chronological order and
pushes information along each edge from source to target, so a node's
embedding aggregates exactly its *influential nodes* (Definition 4,
Theorem 1).  Two updaters are provided, matching Algorithm 1:

* **SUM** — ``X(v) += X(u)`` plus an additive time-embedding memory
  ``M(v) += f(t)``; output is ``tanh(X ⊕ M)``.
* **GRU** — ``h(v) = GRU(h(v), [h(u) ⊕ f(t)])``; output is ``tanh(H)``.

Both touch each edge exactly once (O(m) updates), which the test suite
asserts via :attr:`TemporalPropagationBase.last_update_count`.

Two execution engines share the recurrence:

* ``"wave"`` (default) — the edge list is partitioned into *waves*
  (see :mod:`repro.graph.plan`): maximal chronological runs in which no
  edge reads a node row written earlier in the same wave and no two
  edges write the same target.  The whole wave schedule runs as ONE
  autograd node — :func:`~repro.tensor.ops.sum_wave_scan` or
  :func:`~repro.tensor.ops.gru_wave_scan` — that updates one copy of
  the ``(n, q)`` node-state matrix wave by wave on raw arrays and
  back-propagates with a hand-written reverse sweep over the waves; all
  edge-time embeddings come from a single Time2Vec call up front.
  Within a wave every edge sees exactly the states the per-edge
  recurrence would have shown it, so the result matches the fold to
  machine precision (property-tested).
* ``"per-edge"`` — the literal fold of :meth:`step` over the
  chronological edges: the reference semantics.  The online-serving
  kernel (:mod:`repro.serve.incremental`) runs the same step on raw
  arrays and is tested bit-for-bit against it.

Both updaters are *recurrences over the edge sequence*, so each exposes
an incremental API:

* :meth:`~TemporalPropagationBase.init_state` — per-session state from
  the raw node features;
* :meth:`~TemporalPropagationBase.step` — advance the state by one
  :class:`~repro.graph.edge.TemporalEdge` in O(1);
* :meth:`~TemporalPropagationBase.finalize` — the node embedding matrix
  ``H`` for the edges consumed so far;
* :meth:`~TemporalPropagationBase.snapshot_state` /
  :meth:`~TemporalPropagationBase.restore_state` — checkpointable
  array form of the state.

State lives in a single ``(n, q)`` matrix tensor per session (not one
tensor per node).  In the per-edge fold, reads are row gathers and
writes go through :meth:`TemporalPropagationBase._write_rows`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.graph.ctdn import CTDN
from repro.graph.edge import TemporalEdge
from repro.graph.megaplan import MegaPlan
from repro.graph.plan import PropagationPlan
from repro.nn import FeatureEncoder, GRUCell, Module, Time2Vec
from repro.resilience.faults import inject
from repro.tensor import Tensor, ops

_log = logging.getLogger("repro.resilience")


@dataclass
class PropagationState:
    """Per-session propagation state shared by both updaters.

    ``node_state`` is the ``(n, q)`` node-state matrix (the updater
    defines its width); ``origin`` is the session's first edge time
    (time encoding is session-relative, see
    :meth:`TemporalPropagationBase._encode_time`) and ``updates``
    counts the edges consumed.
    """

    node_state: Tensor
    origin: float | None = None
    updates: int = 0

    @property
    def num_nodes(self) -> int:
        """Number of nodes tracked by this state."""
        return int(self.node_state.shape[0])


@dataclass
class SumPropagationState(PropagationState):
    """SUM-updater state: encoded features plus additive time memory.

    ``time_state`` is the ``(n, d_t)`` temporal-memory matrix (``None``
    when the updater has no time encoder); ``time_touched`` marks which
    rows have absorbed at least one time embedding.  Untouched rows are
    exactly zero, so the memory matrix needs no masking in the forward
    math — the flag only preserves the checkpoint format.
    """

    time_state: Tensor | None = None
    time_touched: np.ndarray | None = None


@dataclass
class GruPropagationState(PropagationState):
    """GRU-updater state: the ``(n, hidden)`` GRU hidden-state matrix."""


class TemporalPropagationBase(Module):
    """Shared plumbing of the SUM and GRU updaters.

    Parameters
    ----------
    in_features:
        Raw node feature dimensionality ``q_raw``.
    hidden_size:
        Width ``q`` of the encoded node features (paper Eq. 1).
    time_dim:
        Time-embedding width ``d_t`` (paper Eq. 2).  Set to 0 to drop
        time encoding entirely (the ``temp`` ablation variant).
    rng:
        Generator for parameter initialisation.
    """

    ENGINES = ("wave", "per-edge")

    def __init__(
        self,
        in_features: int,
        hidden_size: int,
        time_dim: int = 6,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.hidden_size = hidden_size
        self.time_dim = time_dim
        self.encoder = FeatureEncoder(in_features, hidden_size, rng=rng)
        self.time_encoder = Time2Vec(time_dim, rng=rng) if time_dim > 0 else None
        self.last_update_count = 0
        self.engine = "wave"
        #: True when the most recent :meth:`forward` had to abandon the
        #: wave engine (or plan construction) and replay per edge.
        self.fallback = False

    @property
    def output_dim(self) -> int:
        """Width ``k`` of the local node embedding produced by forward."""
        raise NotImplementedError

    def _ordered_edges(
        self, graph: CTDN, rng: np.random.Generator | None
    ) -> list[TemporalEdge]:
        """Chronological edges, optionally shuffling timestamp ties."""
        return graph.edges_sorted(rng=rng)

    def _encode_time(self, time: float, origin: float = 0.0) -> Tensor:
        """Time embedding ``f(t - origin)`` as a ``(1, d_t)`` tensor.

        ``origin`` is the graph's first edge time: encoding session-
        relative times lets one set of Time2Vec frequencies generalise
        across graphs whose absolute clocks differ by orders of
        magnitude (every graph in a dataset is an independent session).
        """
        assert self.time_encoder is not None
        return self.time_encoder(np.array([time - origin]))

    # ------------------------------------------------------------------
    # Incremental (streaming) API
    # ------------------------------------------------------------------
    def init_state(self, features: np.ndarray) -> PropagationState:
        """Fresh per-session state from a ``(n, q_raw)`` feature matrix."""
        raise NotImplementedError

    def step(self, state: PropagationState, edge: TemporalEdge) -> None:
        """Advance ``state`` by one temporal edge — O(1) work."""
        raise NotImplementedError

    def node_embedding(self, state: PropagationState, node: int) -> Tensor:
        """Embedding of a single node under the current state (shape ``(k,)``)."""
        raise NotImplementedError

    def finalize(self, state: PropagationState) -> Tensor:
        """Node embedding matrix ``H`` of shape ``(n, k)`` for ``state``."""
        raise NotImplementedError

    def snapshot_state(self, state: PropagationState) -> dict[str, np.ndarray]:
        """Checkpointable array form of ``state`` (see :meth:`restore_state`)."""
        raise NotImplementedError

    def restore_state(self, arrays: dict[str, np.ndarray]) -> PropagationState:
        """Rebuild a state from :meth:`snapshot_state` output."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Batch engines
    # ------------------------------------------------------------------
    def _run_waves(self, state: PropagationState, plan: PropagationPlan) -> None:
        """Advance ``state`` by every edge of ``plan``, one wave at a time."""
        raise NotImplementedError

    def forward(
        self,
        graph: CTDN | MegaPlan,
        rng: np.random.Generator | None = None,
        plan: PropagationPlan | None = None,
        engine: str | None = None,
    ) -> Tensor:
        """Compute the local node embedding matrix ``H`` of shape ``(n, k)``.

        Parameters
        ----------
        graph:
            The dynamic network to embed — or a
            :class:`~repro.graph.megaplan.MegaPlan` packing a whole
            minibatch, which dispatches to :meth:`forward_mega` and
            returns the packed ``(Σn, k)`` matrix.
        rng:
            When given, edges sharing a timestamp are shuffled (the
            paper applies this during training).  Ignored when ``plan``
            is supplied.
        plan:
            Pre-built execution plan; by default the graph's cached
            :meth:`~repro.graph.ctdn.CTDN.propagation_plan` is used.
        engine:
            ``"wave"`` for the batched kernels, ``"per-edge"`` for the
            reference fold of :meth:`step`.  Defaults to
            :attr:`engine` (``"wave"``).

        Degraded mode
        -------------
        The per-edge fold is the reference semantics, so it doubles as
        the recovery path: if plan construction fails, the chronological
        edge list is folded directly; if the wave kernel fails mid-run,
        the state is re-initialised and the plan's edge order replayed
        per edge (identical order ⇒ identical result).  Either fallback
        sets :attr:`fallback`, logs a warning, and bumps the
        ``resilience/fallback_engine_activations`` telemetry counter.
        """
        if isinstance(graph, MegaPlan):
            return self.forward_mega(graph, engine=engine)
        engine = engine if engine is not None else self.engine
        if engine not in self.ENGINES:
            raise KeyError(f"unknown engine {engine!r}; choose from {self.ENGINES}")
        self.fallback = False
        if plan is None:
            try:
                plan = graph.propagation_plan(rng=rng)
            except Exception as error:
                self._activate_fallback("plan", error)
                state = self.init_state(graph.features)
                for edge in self._ordered_edges(graph, rng):
                    self.step(state, edge)
                self.last_update_count = state.updates
                return self.finalize(state)
        state = self.init_state(graph.features)
        if engine == "per-edge":
            for edge in plan.edges():
                self.step(state, edge)
        else:
            try:
                inject("propagation.wave")
                self._run_waves(state, plan)
            except Exception as error:
                self._activate_fallback("wave", error)
                state = self.init_state(graph.features)
                for edge in plan.edges():
                    self.step(state, edge)
        self.last_update_count = state.updates
        return self.finalize(state)

    def forward_mega(self, mega: MegaPlan, engine: str | None = None) -> Tensor:
        """Node embeddings of a whole minibatch — one packed ``(Σn, k)`` matrix.

        Executes the block-diagonal plan over one shared state matrix
        in one fused scan: merged wave ``k`` updates wave ``k`` of every
        member graph at once.  Members are node-disjoint, so the result
        rows equal the per-graph
        :meth:`forward` outputs exactly (slice with
        :meth:`~repro.graph.megaplan.MegaPlan.member_node_slice`).

        Mega-plan times are session-relative per member, so the state
        runs with origin 0 — Time2Vec sees the same ``t - origin``
        inputs as the per-graph path.  The wave-failure fallback replays
        the merged order per edge, mirroring :meth:`forward`'s degraded
        mode.
        """
        engine = engine if engine is not None else self.engine
        if engine not in self.ENGINES:
            raise KeyError(f"unknown engine {engine!r}; choose from {self.ENGINES}")
        self.fallback = False
        state = self.init_state(mega.features)
        state.origin = 0.0
        if engine == "per-edge":
            for edge in mega.edges():
                self.step(state, edge)
        else:
            try:
                inject("propagation.wave")
                self._run_waves(state, mega)
            except Exception as error:
                self._activate_fallback("wave", error)
                state = self.init_state(mega.features)
                state.origin = 0.0
                for edge in mega.edges():
                    self.step(state, edge)
        self.last_update_count = state.updates
        return self.finalize(state)

    def _activate_fallback(self, stage: str, error: BaseException) -> None:
        """Record a wave→per-edge engine downgrade (log + telemetry)."""
        self.fallback = True
        _log.warning(
            "%s failed (%s: %s); falling back to per-edge propagation",
            "plan construction" if stage == "plan" else "wave kernel",
            type(error).__name__,
            error,
        )
        from repro import telemetry

        telemetry.get_registry().counter(
            "resilience/fallback_engine_activations", stage=stage
        ).inc()

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _encode_features(self, features: np.ndarray) -> Tensor:
        """Encode raw features into the hidden space (paper Eq. 1)."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != self.in_features:
            raise ValueError(
                f"expected features of width {self.in_features}, got {features.shape[1]}"
            )
        return self.encoder(Tensor(features))

    @staticmethod
    def _write_rows(matrix: Tensor, indices, rows: Tensor) -> Tensor:
        """Overwrite ``matrix[indices]`` with ``rows``, preserving gradients.

        On the tape (training / gradient checks) this is a functional
        :func:`~repro.tensor.ops.scatter_rows` node; off the tape
        (serving, ``no_grad`` inference) it mutates the backing array
        in place — O(rows) instead of O(n).
        """
        if matrix.requires_grad or rows.requires_grad:
            idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
            return ops.scatter_rows(
                matrix, idx, rows.reshape(idx.shape[0], matrix.shape[1])
            )
        matrix.data[indices] = rows.data
        return matrix

    def _batched_time_encodings(self, plan: PropagationPlan, origin: float) -> Tensor | None:
        """All edge-time embeddings of ``plan`` in one Time2Vec call.

        Time2Vec is purely elementwise, so the ``(m, d_t)`` batch is
        bit-identical to ``m`` scalar calls — each wave slices its rows.
        """
        if self.time_encoder is None:
            return None
        return self.time_encoder(plan.times - origin)

    def _common_snapshot(self, state: PropagationState) -> dict[str, np.ndarray]:
        """Origin/update-count arrays shared by both updaters."""
        has_origin = state.origin is not None
        return {
            "origin": np.array([state.origin if has_origin else 0.0, float(has_origin)]),
            "updates": np.array([state.updates], dtype=np.int64),
        }

    @staticmethod
    def _restore_common(arrays: dict[str, np.ndarray]) -> tuple[float | None, int]:
        """Invert :meth:`_common_snapshot`."""
        origin_value, has_origin = arrays["origin"]
        origin = float(origin_value) if has_origin else None
        return origin, int(arrays["updates"][0])


class TemporalPropagationSum(TemporalPropagationBase):
    """The SUM updater (Algorithm 1, Eqs. 3-5).

    Maintains an encoded feature vector and an additive temporal memory
    per node; each edge adds the source's features into the target and
    the edge-time embedding into the target's memory.

    Stability note: Eq. 3's literal update ``X(v) := X(u) + X(v)`` grows
    exponentially along revisit chains (a node updated k times through a
    cycle accumulates ~2^k of its own signal), which saturates the final
    ``tanh`` into a pure sign pattern on edge-dense graphs such as
    Brightkite and kills the gradient.  Three stabilizers are offered:

    * ``"bounded"`` (default) — ``X(v) := tanh(X(u) + X(v))``: the sum
      is squashed after every update, so magnitudes stay in (-1, 1)
      while strong signals (e.g. an exception flag) persist instead of
      being averaged away.
    * ``"average"`` — ``X(v) := (X(u) + X(v)) / 2``: a running average.
    * ``"none"`` — the verbatim Eq. 3.

    All three preserve the information-flow semantics and Theorem 1
    (influential ⇔ not independent): the source always enters the
    target with non-zero weight, in chronological order.
    """

    STABILIZERS = ("bounded", "average", "none")

    def __init__(
        self,
        in_features: int,
        hidden_size: int,
        time_dim: int = 6,
        stabilizer: str = "bounded",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(in_features, hidden_size, time_dim=time_dim, rng=rng)
        if stabilizer not in self.STABILIZERS:
            raise KeyError(
                f"unknown stabilizer {stabilizer!r}; choose from {self.STABILIZERS}"
            )
        self.stabilizer = stabilizer

    @property
    def output_dim(self) -> int:
        """Encoded features concatenated with the temporal memory."""
        return self.hidden_size + self.time_dim

    def _stabilize(self, merged: Tensor) -> Tensor:
        """Apply the configured stabilizer to a merged feature update."""
        if self.stabilizer == "bounded":
            return ops.tanh(merged)
        if self.stabilizer == "average":
            return merged * 0.5
        return merged

    # ------------------------------------------------------------------
    # Incremental API
    # ------------------------------------------------------------------
    def init_state(self, features: np.ndarray) -> SumPropagationState:
        """Fresh SUM state: encoded features, all-zero time memories."""
        encoded = self._encode_features(features)
        n = encoded.shape[0]
        time_state = (
            Tensor(np.zeros((n, self.time_dim))) if self.time_encoder is not None else None
        )
        return SumPropagationState(
            node_state=encoded,
            time_state=time_state,
            time_touched=np.zeros(n, dtype=bool),
        )

    def step(self, state: SumPropagationState, edge: TemporalEdge) -> None:
        """One SUM update (Eqs. 3-4) along ``edge``."""
        if state.origin is None:
            state.origin = edge.time
        merged = self._stabilize(state.node_state[edge.src] + state.node_state[edge.dst])
        state.node_state = self._write_rows(state.node_state, edge.dst, merged)
        if self.time_encoder is not None:
            # Eq. 4 verbatim: the temporal memory is a plain running
            # sum of time embeddings.  Unlike the feature update it
            # only grows linearly with in-degree, so it needs no
            # stabilisation — and the raw sum is the per-node
            # arrival-time signature that separates shuffled orders.
            f_t = self._encode_time(edge.time, state.origin).reshape(self.time_dim)
            state.time_state = self._write_rows(
                state.time_state, edge.dst, f_t + state.time_state[edge.dst]
            )
            state.time_touched[edge.dst] = True
        state.updates += 1

    def _run_waves(self, state: SumPropagationState, plan: PropagationPlan) -> None:
        """Whole-plan SUM kernel: one fused scan plus one segment sum.

        The time memory (Eq. 4) is a plain in-order running sum, so it
        is one :func:`~repro.tensor.ops.segment_sum` of the edge-time
        embeddings into the destination rows — ``np.add.at`` adds in
        index order, which reproduces the per-edge sums bit for bit.
        """
        if plan.num_edges == 0:
            return
        if state.origin is None:
            state.origin = float(plan.times[0])
        state.node_state = ops.sum_wave_scan(
            state.node_state, plan.src, plan.dst, plan.wave_bounds, self.stabilizer
        )
        encodings = self._batched_time_encodings(plan, state.origin)
        if encodings is not None:
            state.time_state = state.time_state + ops.segment_sum(
                encodings, plan.dst, state.num_nodes
            )
            state.time_touched[plan.dst] = True
        state.updates += plan.num_edges

    def node_embedding(self, state: SumPropagationState, node: int) -> Tensor:
        """Single-node view of :meth:`finalize` (same math, shape ``(k,)``)."""
        features = state.node_state[node]
        if self.time_encoder is None:
            return ops.tanh(features)
        return ops.tanh(ops.concat([features, state.time_state[node]], axis=0))

    def finalize(self, state: SumPropagationState) -> Tensor:
        """Node embedding matrix ``tanh(X ⊕ M)`` of shape ``(n, k)``."""
        if self.time_encoder is None:
            return ops.tanh(state.node_state)
        return ops.tanh(ops.concat([state.node_state, state.time_state], axis=1))

    def snapshot_state(self, state: SumPropagationState) -> dict[str, np.ndarray]:
        """Arrays capturing the full SUM state."""
        arrays = self._common_snapshot(state)
        arrays["node_state"] = state.node_state.data.copy()
        memory = np.zeros((state.num_nodes, max(self.time_dim, 1)))
        if state.time_state is not None:
            memory[:, : self.time_dim] = state.time_state.data
        arrays["time_state"] = memory
        arrays["time_mask"] = state.time_touched.astype(np.int64)
        return arrays

    def restore_state(self, arrays: dict[str, np.ndarray]) -> SumPropagationState:
        """Rebuild a SUM state from :meth:`snapshot_state` arrays."""
        origin, updates = self._restore_common(arrays)
        mask = arrays["time_mask"].astype(bool)
        time_state = None
        if self.time_encoder is not None:
            memory = arrays["time_state"][:, : self.time_dim].copy()
            memory[~mask] = 0.0
            time_state = Tensor(memory)
        return SumPropagationState(
            node_state=Tensor(arrays["node_state"].copy()),
            origin=origin,
            updates=updates,
            time_state=time_state,
            time_touched=mask.copy(),
        )


class TemporalPropagationGRU(TemporalPropagationBase):
    """The GRU updater (Algorithm 1, Eq. 6).

    Each edge gates the concatenation of the source embedding and the
    edge-time embedding into the target's hidden state, letting the
    model selectively retain information from influential nodes across
    long interaction sequences.  The wave engine feeds a whole wave of
    messages through the :class:`~repro.nn.GRUCell` update as one batch,
    inside the fused :func:`~repro.tensor.ops.gru_wave_scan`.
    """

    def __init__(
        self,
        in_features: int,
        hidden_size: int,
        time_dim: int = 6,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(in_features, hidden_size, time_dim=time_dim, rng=rng)
        rng_cell = rng if rng is not None else np.random.default_rng(0)
        self.cell = GRUCell(hidden_size + time_dim, hidden_size, rng=rng_cell)

    @property
    def output_dim(self) -> int:
        """The GRU hidden width ``q``."""
        return self.hidden_size

    # ------------------------------------------------------------------
    # Incremental API
    # ------------------------------------------------------------------
    def init_state(self, features: np.ndarray) -> GruPropagationState:
        """Fresh GRU state: the encoded ``(n, q)`` feature matrix."""
        return GruPropagationState(node_state=self._encode_features(features))

    def step(self, state: GruPropagationState, edge: TemporalEdge) -> None:
        """One GRU update (Eq. 6) along ``edge``."""
        if state.origin is None:
            state.origin = edge.time
        source = state.node_state[edge.src].reshape(1, self.hidden_size)
        if self.time_encoder is not None:
            message = ops.concat(
                [source, self._encode_time(edge.time, state.origin)], axis=1
            )
        else:
            message = source
        target = state.node_state[edge.dst].reshape(1, self.hidden_size)
        state.node_state = self._write_rows(
            state.node_state, edge.dst, self.cell(message, target)
        )
        state.updates += 1

    def _run_waves(self, state: GruPropagationState, plan: PropagationPlan) -> None:
        """Whole-plan GRU kernel: one fused scan over every wave."""
        if plan.num_edges == 0:
            return
        if state.origin is None:
            state.origin = float(plan.times[0])
        state.node_state = ops.gru_wave_scan(
            state.node_state,
            plan.src,
            plan.dst,
            plan.wave_bounds,
            self.cell.weight_ih,
            self.cell.weight_hh,
            self.cell.bias,
            self._batched_time_encodings(plan, state.origin),
        )
        state.updates += plan.num_edges

    def node_embedding(self, state: GruPropagationState, node: int) -> Tensor:
        """Single-node view of :meth:`finalize` (shape ``(q,)``)."""
        return ops.tanh(state.node_state[node])

    def finalize(self, state: GruPropagationState) -> Tensor:
        """Node embedding matrix ``tanh(H)`` of shape ``(n, q)``."""
        return ops.tanh(state.node_state)

    def snapshot_state(self, state: GruPropagationState) -> dict[str, np.ndarray]:
        """Arrays capturing the full GRU state."""
        arrays = self._common_snapshot(state)
        arrays["node_state"] = state.node_state.data.copy()
        return arrays

    def restore_state(self, arrays: dict[str, np.ndarray]) -> GruPropagationState:
        """Rebuild a GRU state from :meth:`snapshot_state` arrays."""
        origin, updates = self._restore_common(arrays)
        return GruPropagationState(
            node_state=Tensor(arrays["node_state"].copy()),
            origin=origin,
            updates=updates,
        )


class RandomAggregation(TemporalPropagationBase):
    """The ``rand`` ablation: time-blind random-neighbour aggregation.

    Ignores edge timestamps entirely; every node sums the encoded
    features of a random subset of its (undirected) neighbours.  Used by
    the Fig. 3/4 ablation studies as the degenerate message-passing
    reference.  Not a recurrence over the edge sequence, so it has no
    incremental API.
    """

    def __init__(
        self,
        in_features: int,
        hidden_size: int,
        num_samples: int = 3,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(in_features, hidden_size, time_dim=0, rng=rng)
        self.num_samples = num_samples

    @property
    def output_dim(self) -> int:
        """Width of the encoded node features."""
        return self.hidden_size

    def forward(self, graph: CTDN, rng: np.random.Generator | None = None) -> Tensor:
        """Aggregate random neighbours, disregarding time.

        The per-node draws are accumulated as one gather plus one
        segment-sum over the encoded feature matrix instead of a tensor
        op per sampled neighbour; the rng stream (one ``choice`` per
        non-isolated node, in node order) is unchanged.
        """
        sampler = rng if rng is not None else np.random.default_rng(0)
        encoded = self.encoder(Tensor(graph.features))
        neighbours: list[set[int]] = [set() for _ in range(graph.num_nodes)]
        for edge in graph.edges:
            neighbours[edge.src].add(edge.dst)
            neighbours[edge.dst].add(edge.src)
        picked_nodes: list[int] = []
        targets: list[int] = []
        for node in range(graph.num_nodes):
            candidates = sorted(neighbours[node])
            if not candidates:
                continue
            count = min(self.num_samples, len(candidates))
            picked = sampler.choice(len(candidates), size=count, replace=False)
            picked_nodes.extend(candidates[int(index)] for index in picked)
            targets.extend([node] * count)
        self.last_update_count = len(picked_nodes)
        out = encoded
        if picked_nodes:
            gathered = ops.index_rows(encoded, np.asarray(picked_nodes, dtype=np.int64))
            out = out + ops.segment_sum(
                gathered, np.asarray(targets, dtype=np.int64), graph.num_nodes
            )
        return ops.tanh(out)
