"""The Tensor reference fold of :class:`IncrementalClassifier`'s kernel.

:meth:`IncrementalClassifier.observe` and the online read run on raw
ndarrays.  This module keeps the original Tensor formulation — the
model's own ``step`` / ``node_embedding`` / ``gru.cell`` / ``logit``
calls — as the oracle the kernel must match bit for bit
(``tests/serve/test_kernel_oracle.py``).  The helpers only this fold
needs (growing the node-state matrix, re-encoding one node, embedding
one edge) live here rather than in the model.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.propagation import TemporalPropagationSum
from repro.graph.edge import TemporalEdge
from repro.serve.incremental import IncrementalClassifier
from repro.serve.state import SessionState
from repro.tensor import Tensor, no_grad, ops


def add_nodes(propagation, state, features: np.ndarray) -> None:
    """Append newly observed nodes (rows of raw features) to ``state``."""
    encoded = propagation._encode_features(features)
    state.node_state = ops.concat([state.node_state, encoded], axis=0)
    if isinstance(propagation, TemporalPropagationSum):
        added = encoded.shape[0]
        if state.time_state is not None:
            state.time_state = ops.concat(
                [state.time_state, Tensor(np.zeros((added, propagation.time_dim)))], axis=0
            )
        state.time_touched = np.concatenate(
            [state.time_touched, np.zeros(added, dtype=bool)]
        )


def set_node(propagation, state, node: int, features: np.ndarray) -> None:
    """(Re-)materialize one node's state row from its raw features."""
    encoded = propagation._encode_features(features)
    state.node_state = propagation._write_rows(state.node_state, node, encoded[0])
    if isinstance(propagation, TemporalPropagationSum):
        if state.time_state is not None:
            state.time_state = propagation._write_rows(
                state.time_state, node, Tensor(np.zeros(propagation.time_dim))
            )
        state.time_touched[node] = False


def edge_embedding(extractor, src_embedding: Tensor, dst_embedding: Tensor) -> Tensor:
    """Single-edge EdgeAgg row of shape ``(1, k)``."""
    row = extractor._aggregate(src_embedding, dst_embedding)
    return row.reshape(1, row.shape[-1])


def materialize(
    classifier: IncrementalClassifier,
    state: SessionState,
    node: int,
    node_features: Mapping[int, np.ndarray] | None,
) -> None:
    """Ensure ``node`` has a real (feature-encoded) state row."""
    if node in state.feature_seen:
        return
    propagation = classifier.propagation
    features = None if node_features is None else node_features.get(node)
    if features is None:
        if classifier.missing_features == "raise":
            raise ValueError(
                f"session {state.session_id!r}: node {node} is new but the event "
                "carries no features for it"
            )
        features = np.zeros(propagation.in_features)
    missing = node + 1 - state.prop_state.num_nodes
    if missing > 0:
        add_nodes(propagation, state.prop_state, np.zeros((missing, propagation.in_features)))
    set_node(propagation, state.prop_state, node, np.asarray(features, dtype=np.float64))
    state.feature_seen.add(node)


def observe(
    classifier: IncrementalClassifier,
    state: SessionState,
    edge,
    node_features: Mapping[int, np.ndarray] | None = None,
) -> None:
    """Ingest one temporal edge through the Tensor modules."""
    edge = TemporalEdge(int(edge[0]), int(edge[1]), float(edge[2]))
    propagation, extractor = classifier.propagation, classifier.extractor
    with no_grad():
        materialize(classifier, state, edge.src, node_features)
        materialize(classifier, state, edge.dst, node_features)
        propagation.step(state.prop_state, edge)
        row = edge_embedding(
            extractor,
            propagation.node_embedding(state.prop_state, edge.src),
            propagation.node_embedding(state.prop_state, edge.dst),
        )
        extractor.step(state.ext_state, row)
    state.edges.append(edge)


def logit_online(classifier: IncrementalClassifier, state: SessionState) -> float:
    """The model's Tensor head on the live extractor hidden."""
    with no_grad():
        embedding = classifier.extractor.graph_embedding(state.ext_state)
        return float(classifier.model.logit(embedding).item())


def logits_online(
    classifier: IncrementalClassifier, states: Sequence[SessionState]
) -> np.ndarray:
    """The model's Tensor micro-batched head over many sessions."""
    hidden = classifier.extractor.hidden_size
    stacked = np.stack([s.ext_state.hidden.data.reshape(hidden) for s in states], axis=0)
    with no_grad():
        return classifier.model.logits(Tensor(stacked)).data.copy()
