"""Incremental TP-GNN inference: O(1) state updates per temporal edge.

Batch TP-GNN scores a session by replaying its entire edge list —
O(m) per new event.  Both of the model's components are recurrences
over the chronological edge sequence, so this module carries their
state forward instead:

* :meth:`IncrementalClassifier.observe` advances the propagation state
  and the global extractor's GRU hidden by exactly one edge;
* :meth:`IncrementalClassifier.logit` scores the session from the live
  state.

Two read modes are offered:

* ``"online"`` — the classifier head on the live extractor hidden.
  O(1): one small matmul.  The extractor consumed each edge's
  embedding *as it arrived* (causal semantics — the standard
  continuous-time TGNN serving discipline), so early edges were
  embedded from the node states current at that moment.
* ``"exact"`` — re-runs only the extractor GRU over the logged edges
  using the *current* node states, which reproduces the batch
  ``forward`` logits bit-for-bit (batch embeds every edge with the
  final node states).  O(m) in the extractor but still skips the O(m)
  propagation replay.

The write path and the online read run on raw ndarrays, not Tensors:
per event the model does a few dozen tiny array ops, so autograd-node
allocation and op dispatch would cost several times the arithmetic.
The kernel repeats the Tensor recurrence's op sequence (propagation
``step``, endpoint ``node_embedding``, EdgeAgg, extractor ``step``):
every matmul at the Tensor path's shape, so the same BLAS call runs,
and every elementwise op on the same operands, so every result is
bitwise identical to the Tensor fold kept as the test oracle
(``tests/serve/oracle.py``, pinned by ``tests/serve/test_kernel_oracle.py``).
Parameters are read through ``.data`` on every call: optimizers update
them in place and ``load_state_dict`` rebinds them.

The equivalence suite (``tests/serve/test_equivalence.py``) pins
``"exact"`` streaming == batch to ≤ 1e-8, including across
:meth:`snapshot` / :meth:`restore` round-trips.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.extractor import GlobalTemporalExtractor
from repro.core.model import TPGNN
from repro.core.propagation import TemporalPropagationGRU, TemporalPropagationSum
from repro.graph.edge import TemporalEdge
from repro.serve.state import SessionState
from repro.tensor import Tensor, no_grad
from repro.tensor.ops import _stable_sigmoid

READ_MODES = ("online", "exact")

_EDGE_LOG_KEY = "edges"
_FEATURE_SEEN_KEY = "feature_seen"
_LABEL_KEY = "label"


def _weighted_l2(h_u: np.ndarray, h_v: np.ndarray) -> np.ndarray:
    diff = h_u - h_v
    return diff * diff


#: Raw twins of :data:`repro.core.edge_agg.EDGE_AGGREGATORS` — each is
#: elementwise or a concatenation, so it matches the Tensor op bit for bit.
_EDGE_AGGREGATORS = {
    "average": lambda h_u, h_v: (h_u + h_v) * 0.5,
    "hadamard": lambda h_u, h_v: h_u * h_v,
    "weighted_l1": lambda h_u, h_v: np.abs(h_u - h_v),
    "weighted_l2": _weighted_l2,
    "activation": lambda h_u, h_v: np.tanh(h_u + h_v),
    "concatenation": lambda h_u, h_v: np.concatenate([h_u, h_v], axis=0),
}


def _linear(layer, x: np.ndarray) -> np.ndarray:
    """Raw :meth:`repro.nn.Linear.forward`."""
    out = x @ layer.weight.data
    if layer.bias is not None:
        out = out + layer.bias.data
    return out


def _gru_cell(cell, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Raw :meth:`repro.nn.GRUCell.forward` of one ``(1, in)`` row — ``(H,)``.

    The matmuls run at the Tensor cell's ``(1, ·)`` shapes, so the same
    BLAS call produces the same bits; the elementwise rest runs on 1-d
    rows, which is cheaper than broadcasting ``(1, ·)`` blocks and, op
    by op, element by element, the same arithmetic.  The z and r gates
    share one sigmoid over the ``2H`` slice for the same reason.
    """
    H = cell.hidden_size
    gates_x = (x @ cell.weight_ih.data)[0] + cell.bias.data
    gates_h = (h @ cell.weight_hh.data)[0]
    zr = _stable_sigmoid(gates_x[: 2 * H] + gates_h[: 2 * H])
    z = zr[:H]
    n = np.tanh(gates_x[2 * H :] + zr[H:] * gates_h[2 * H :])
    return z * h[0] + (1.0 - z) * n


def _time2vec(encoder, delta: float) -> np.ndarray:
    """Raw :meth:`repro.nn.Time2Vec.forward` of one scalar — ``(d_t,)``."""
    trend = delta * encoder.linear_weight.data + encoder.linear_bias.data
    periodic = np.sin(delta * encoder.periodic_weight.data + encoder.periodic_bias.data)
    return np.concatenate([trend, periodic])


class IncrementalClassifier:
    """Streaming wrapper around a (trained) :class:`TPGNN` model.

    The model's parameters are shared, never copied: one classifier can
    serve any number of concurrent sessions, each represented by a
    :class:`SessionState`.  Serving never builds autograd graphs.

    Parameters
    ----------
    model:
        A TP-GNN instance: SUM (any stabilizer) or GRU updater, any
        ``time_dim``, any EdgeAgg method, the GRU global extractor.
        Anything else (e.g. a transformer extractor swapped in by
        :func:`~repro.core.make_tpgnn_with_extractor`) raises
        ``TypeError``.
    missing_features:
        What to do when an edge endpoint is new to its session and the
        event carries no features for it: ``"raise"`` (default —
        strict, the replay/equivalence discipline) or ``"zeros"``
        (cold-start with zero features; what a server does when a
        session was LRU-evicted mid-stream and its tail re-admitted).
    """

    MISSING_FEATURE_POLICIES = ("raise", "zeros")

    def __init__(self, model: TPGNN, missing_features: str = "raise"):
        if not isinstance(model, TPGNN):
            raise TypeError(
                f"IncrementalClassifier requires a TPGNN model, got {type(model).__name__}"
            )
        if missing_features not in self.MISSING_FEATURE_POLICIES:
            raise KeyError(
                f"unknown missing_features policy {missing_features!r}; "
                f"choose from {self.MISSING_FEATURE_POLICIES}"
            )
        propagation, extractor = model.propagation, model.extractor
        if type(propagation) not in (TemporalPropagationSum, TemporalPropagationGRU):
            raise TypeError(
                "serving needs the SUM or GRU propagation updater, got "
                f"{type(propagation).__name__}"
            )
        if type(extractor) is not GlobalTemporalExtractor:
            raise TypeError(
                "serving needs the GRU global temporal extractor, got "
                f"{type(extractor).__name__}"
            )
        self.model = model
        self.missing_features = missing_features
        self.propagation = propagation
        self.extractor = extractor
        self._is_sum = type(propagation) is TemporalPropagationSum
        self._aggregate = _EDGE_AGGREGATORS[extractor.aggregator_name]

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def new_session(
        self, session_id: str, features: np.ndarray | None = None
    ) -> SessionState:
        """Create an empty session.

        ``features`` optionally pre-materialises the full ``(n, q_raw)``
        node-feature matrix (replay-style usage); live usage starts with
        no nodes and materialises them from event payloads.
        """
        with no_grad():
            if features is None:
                features = np.zeros((0, self.propagation.in_features))
            features = np.asarray(features, dtype=np.float64)
            state = SessionState(
                session_id=session_id,
                prop_state=self.propagation.init_state(features),
                ext_state=self.extractor.init_state(),
            )
            state.feature_seen.update(range(features.shape[0]))
        return state

    def _encode(self, features) -> np.ndarray:
        """Raw feature encoding (paper Eq. 1) of a ``(rows, q_raw)`` block."""
        propagation = self.propagation
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != propagation.in_features:
            raise ValueError(
                f"expected features of width {propagation.in_features}, "
                f"got {features.shape[1]}"
            )
        return _linear(propagation.encoder.projection, features)

    def _materialize(
        self,
        state: SessionState,
        node: int,
        node_features: Mapping[int, np.ndarray] | None,
    ) -> None:
        """Give ``node`` a real (feature-encoded) state row."""
        features = None if node_features is None else node_features.get(node)
        if features is None:
            if self.missing_features == "raise":
                raise ValueError(
                    f"session {state.session_id!r}: node {node} is new but the event "
                    "carries no features for it"
                )
            features = np.zeros(self.propagation.in_features)
        prop_state = state.prop_state
        # Reserve placeholder rows for any ids between the current size
        # and the new node; they are overwritten if their features ever
        # arrive, and are never read as edge endpoints before that.
        missing = node + 1 - prop_state.num_nodes
        if missing > 0:
            placeholders = self._encode(np.zeros((missing, self.propagation.in_features)))
            prop_state.node_state = Tensor(
                np.concatenate([prop_state.node_state.data, placeholders], axis=0)
            )
            if self._is_sum:
                if prop_state.time_state is not None:
                    memory = prop_state.time_state.data
                    prop_state.time_state = Tensor(
                        np.concatenate([memory, np.zeros((missing, memory.shape[1]))], axis=0)
                    )
                prop_state.time_touched = np.concatenate(
                    [prop_state.time_touched, np.zeros(missing, dtype=bool)]
                )
        prop_state.node_state.data[node] = self._encode(features)[0]
        if self._is_sum:
            if prop_state.time_state is not None:
                prop_state.time_state.data[node] = 0.0
            prop_state.time_touched[node] = False
        state.feature_seen.add(node)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def observe(
        self,
        state: SessionState,
        edge: TemporalEdge | tuple[int, int, float],
        node_features: Mapping[int, np.ndarray] | None = None,
    ) -> None:
        """Ingest one temporal edge into the session — O(1) work.

        Advances the propagation recurrence (Eqs. 3-6), embeds the edge
        from the now-current endpoint states, and steps the extractor
        GRU (Eqs. 7-10).
        """
        src, dst, time = int(edge[0]), int(edge[1]), float(edge[2])
        seen = state.feature_seen
        if src not in seen:
            self._materialize(state, src, node_features)
        if dst not in seen:
            self._materialize(state, dst, node_features)
        propagation = self.propagation
        prop_state = state.prop_state
        if prop_state.origin is None:
            prop_state.origin = time
        node_state = prop_state.node_state.data
        encoder = propagation.time_encoder
        f_t = None if encoder is None else _time2vec(encoder, time - prop_state.origin)
        if self._is_sum:
            merged = node_state[src] + node_state[dst]
            stabilizer = propagation.stabilizer
            if stabilizer == "bounded":
                merged = np.tanh(merged)
            elif stabilizer == "average":
                merged = merged * 0.5
            node_state[dst] = merged
            if f_t is None:
                endpoints = np.concatenate([node_state[src], node_state[dst]])
            else:
                memory = prop_state.time_state.data
                memory[dst] = f_t + memory[dst]
                prop_state.time_touched[dst] = True
                endpoints = np.concatenate(
                    [node_state[src], memory[src], node_state[dst], memory[dst]]
                )
        else:
            message = node_state[src] if f_t is None else np.concatenate([node_state[src], f_t])
            target = node_state[dst].reshape(1, propagation.hidden_size)
            node_state[dst] = _gru_cell(propagation.cell, message.reshape(1, -1), target)
            endpoints = np.concatenate([node_state[src], node_state[dst]])
        prop_state.updates += 1
        # Both endpoint embeddings (``node_embedding``'s tanh) in one op.
        embeddings = np.tanh(endpoints)
        width = embeddings.shape[0] // 2
        row = self._aggregate(embeddings[:width], embeddings[width:])
        ext_state = state.ext_state
        hidden = _gru_cell(self.extractor.gru.cell, row.reshape(1, -1), ext_state.hidden.data)
        ext_state.hidden = Tensor(hidden.reshape(1, -1))
        ext_state.steps += 1
        state.edges.append(TemporalEdge(src, dst, time))

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def graph_embedding(self, state: SessionState, mode: str = "online") -> Tensor:
        """The session's graph embedding ``g`` under the chosen read mode."""
        if mode not in READ_MODES:
            raise KeyError(f"unknown read mode {mode!r}; choose from {READ_MODES}")
        with no_grad():
            if mode == "online":
                return self.extractor.graph_embedding(state.ext_state)
            if not state.edges:
                raise ValueError(
                    "exact mode needs at least one observed edge "
                    "(batch TP-GNN rejects empty graphs too)"
                )
            node_embeddings = self.propagation.finalize(state.prop_state)
            sequence = self.extractor.edge_embeddings(node_embeddings, state.edges)
            replay = self.extractor.init_state()
            width = sequence.shape[1]
            for index in range(len(state.edges)):
                self.extractor.step(replay, sequence[index].reshape(1, width))
            return self.extractor.graph_embedding(replay)

    def logit(self, state: SessionState, mode: str = "online") -> float:
        """Raw classification logit of the session's current state."""
        if mode == "online":
            return float(_linear(self.model.classifier, state.ext_state.hidden.data)[0, 0])
        with no_grad():
            return float(self.model.logit(self.graph_embedding(state, mode)).item())

    def predict_proba(self, state: SessionState, mode: str = "online") -> float:
        """Probability that the session is positive (label 1)."""
        return float(1.0 / (1.0 + np.exp(-self.logit(state, mode))))

    def logits_online(self, states: Sequence[SessionState]) -> np.ndarray:
        """Micro-batched online read path: one matmul for many sessions.

        Stacks the live extractor hiddens into a ``(b, d)`` matrix and
        runs the classifier head once — the engine's grouped scoring
        pass.
        """
        if not states:
            return np.zeros(0)
        stacked = np.concatenate([s.ext_state.hidden.data for s in states], axis=0)
        return _linear(self.model.classifier, stacked).reshape(len(states))

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self, state: SessionState) -> dict[str, np.ndarray]:
        """Flat array form of the full session state.

        Round-trips through :meth:`restore`: a restored session
        continues the stream with bit-identical results (asserted by
        the equivalence suite).
        """
        arrays = {
            f"prop.{key}": value
            for key, value in self.propagation.snapshot_state(state.prop_state).items()
        }
        arrays.update(
            {
                f"ext.{key}": value
                for key, value in self.extractor.snapshot_state(state.ext_state).items()
            }
        )
        arrays[_EDGE_LOG_KEY] = np.asarray(state.edges, dtype=np.float64).reshape(
            len(state.edges), 3
        )
        arrays[_FEATURE_SEEN_KEY] = np.array(sorted(state.feature_seen), dtype=np.int64)
        has_label = state.label is not None
        arrays[_LABEL_KEY] = np.array(
            [state.label if has_label else 0, int(has_label)], dtype=np.int64
        )
        return arrays

    def restore(self, session_id: str, arrays: Mapping[str, np.ndarray]) -> SessionState:
        """Rebuild a session from :meth:`snapshot` output."""
        prop_arrays = {
            key[len("prop."):]: value
            for key, value in arrays.items()
            if key.startswith("prop.")
        }
        ext_arrays = {
            key[len("ext."):]: value
            for key, value in arrays.items()
            if key.startswith("ext.")
        }
        label_value, has_label = (int(v) for v in arrays[_LABEL_KEY])
        state = SessionState(
            session_id=session_id,
            prop_state=self.propagation.restore_state(prop_arrays),
            ext_state=self.extractor.restore_state(ext_arrays),
            edges=[
                TemporalEdge(int(src), int(dst), time)
                for src, dst, time in arrays[_EDGE_LOG_KEY].tolist()
            ],
            feature_seen=set(int(n) for n in arrays[_FEATURE_SEEN_KEY]),
            label=label_value if has_label else None,
        )
        return state

    # ------------------------------------------------------------------
    # Replay convenience
    # ------------------------------------------------------------------
    def replay(
        self,
        session_id: str,
        features: np.ndarray,
        edges: Iterable[TemporalEdge | tuple[int, int, float]],
    ) -> SessionState:
        """Fold :meth:`observe` over a full edge list (testing/warm-up)."""
        state = self.new_session(session_id, features=features)
        for edge in edges:
            self.observe(state, edge)
        return state
