"""Global Temporal Embedding Extractor (paper Sec. IV-C, Eqs. 7-10).

Converts the local node embedding matrix ``H`` into edge embeddings
(one per temporal edge, in chronological order) and runs a GRU along
the sequence; the final hidden state is the graph embedding ``g``.
This is how TP-GNN learns the *network evolution process* from the
global edge ordering — the paper's answer to limitation 3.

The GRU is a recurrence over the edge sequence, so the extractor also
exposes an incremental API (:meth:`GlobalTemporalExtractor.init_state`,
:meth:`GlobalTemporalExtractor.step`); the batch :meth:`forward` is a
fold of :meth:`step` over the chronological edge embeddings, and the
online-serving kernel in :mod:`repro.serve.incremental` runs the same
step on raw arrays, tested bit-for-bit against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.edge_agg import EDGE_AGGREGATORS, edge_dim
from repro.graph.ctdn import CTDN
from repro.graph.edge import TemporalEdge
from repro.graph.plan import PropagationPlan
from repro.nn import GRU, Module
from repro.tensor import Tensor, is_grad_enabled, ops

#: Padded ``(step, member)`` slots per time slice of a no-grad
#: :meth:`GlobalTemporalExtractor.forward_mega` scan.  A whole-grid scan
#: of a wide scoring pass would hold the edge-row grid, the fused GRU's
#: input projection and every step's output for all slots at once;
#: slicing keeps that to one slice.
_NO_GRAD_SCAN_SLOTS = 256


@dataclass
class ExtractorState:
    """Live GRU hidden state of one session's evolution sequence."""

    hidden: Tensor  # (1, hidden_size)
    steps: int = 0


class GlobalTemporalExtractor(Module):
    """GRU over the chronological edge-embedding sequence.

    Parameters
    ----------
    node_dim:
        Width ``k`` of the local node embeddings (propagation output).
    hidden_size:
        GRU hidden width ``d`` — the graph-embedding dimensionality.
    aggregator:
        One of the six EdgeAgg methods; the paper uses ``"average"``.
    rng:
        Generator for parameter initialisation.
    """

    def __init__(
        self,
        node_dim: int,
        hidden_size: int = 32,
        aggregator: str = "average",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if aggregator not in EDGE_AGGREGATORS:
            raise KeyError(
                f"unknown EdgeAgg method {aggregator!r}; choose from {sorted(EDGE_AGGREGATORS)}"
            )
        self.node_dim = node_dim
        self.hidden_size = hidden_size
        self.aggregator_name = aggregator
        self._aggregate = EDGE_AGGREGATORS[aggregator]
        self.gru = GRU(edge_dim(aggregator, node_dim), hidden_size, rng=rng)

    def edge_embeddings(
        self, node_embeddings: Tensor, edges: list[TemporalEdge]
    ) -> Tensor:
        """Local edge embedding matrix ``S_loc`` of shape (m, k).

        Row ``i`` aggregates the embeddings of the endpoints of the
        ``i``-th edge in the given (chronological) order.
        """
        if not edges:
            raise ValueError("cannot embed a graph with no edges")
        src = np.array([e.src for e in edges], dtype=np.int64)
        dst = np.array([e.dst for e in edges], dtype=np.int64)
        return self._edge_matrix(node_embeddings, src, dst)

    def _edge_matrix(
        self, node_embeddings: Tensor, src: np.ndarray, dst: np.ndarray
    ) -> Tensor:
        """Aggregate endpoint rows given the endpoint index arrays."""
        if self.aggregator_name == "average":
            # Fast path for the paper's default: two row gathers.
            return (
                ops.index_rows(node_embeddings, src) + ops.index_rows(node_embeddings, dst)
            ) * 0.5
        rows = [
            self._aggregate(node_embeddings[int(u)], node_embeddings[int(v)])
            for u, v in zip(src, dst)
        ]
        return ops.stack(rows, axis=0)

    # ------------------------------------------------------------------
    # Incremental (streaming) API
    # ------------------------------------------------------------------
    def init_state(self) -> ExtractorState:
        """Fresh per-session GRU state (zero hidden, no edges seen)."""
        return ExtractorState(hidden=Tensor(np.zeros((1, self.hidden_size))))

    def step(self, state: ExtractorState, edge_embedding: Tensor) -> None:
        """Advance the session GRU by one ``(1, k)`` edge embedding."""
        state.hidden = self.gru.cell(edge_embedding, state.hidden)
        state.steps += 1

    def graph_embedding(self, state: ExtractorState) -> Tensor:
        """The current graph embedding ``g`` of shape ``(hidden_size,)``."""
        return state.hidden.reshape(self.hidden_size)

    def snapshot_state(self, state: ExtractorState) -> dict[str, np.ndarray]:
        """Checkpointable array form of ``state``."""
        return {
            "hidden": state.hidden.data.copy(),
            "steps": np.array([state.steps], dtype=np.int64),
        }

    def restore_state(self, arrays: dict[str, np.ndarray]) -> ExtractorState:
        """Rebuild a state from :meth:`snapshot_state` output."""
        return ExtractorState(
            hidden=Tensor(arrays["hidden"].copy()), steps=int(arrays["steps"][0])
        )

    def forward(
        self,
        node_embeddings: Tensor,
        graph: CTDN,
        rng: np.random.Generator | None = None,
        plan: PropagationPlan | None = None,
    ) -> Tensor:
        """Return the graph embedding ``g`` of shape (hidden_size,).

        Edges are fed to the GRU in chronological order (ties shuffled
        when ``rng`` is provided, mirroring training-time tie handling;
        pass ``plan`` to reuse an already-built order — the model does
        so to keep propagation and extraction on one evolution
        sequence).  The scan runs through the fused
        :func:`~repro.tensor.ops.gru_sequence` kernel, which matches
        folding :meth:`step` — the streaming engine's recurrence — to
        machine precision.
        """
        if plan is None:
            plan = graph.propagation_plan(rng=rng)
        if plan.num_edges == 0:
            raise ValueError("cannot embed a graph with no edges")
        sequence = self._edge_matrix(node_embeddings, plan.src, plan.dst)
        _, final = self.gru(sequence)
        return final.reshape(self.hidden_size)

    def forward_mega(self, node_embeddings: Tensor, mega) -> Tensor:
        """Graph embeddings of a whole minibatch — shape ``(B, hidden_size)``.

        One fused :func:`~repro.tensor.ops.gru_sequence` scan over the
        end-padded ``(T, B, k)`` edge-embedding grid replaces ``B``
        per-graph scans.  Each member's real edges are a prefix of its
        column and its embedding is read at step ``length - 1``; pad
        slots beyond that carry exactly zero gradient (the BPTT carry is
        zero past the last read step), so the batched scan matches the
        per-graph scans to machine precision.  Under ``no_grad`` the scan
        runs in time slices of :data:`_NO_GRAD_SCAN_SLOTS` slots.
        """
        index, lengths = mega.padded_sequence_index()
        if np.any(lengths == 0):
            raise ValueError("cannot embed a graph with no edges")
        src, dst = mega.chrono_src, mega.chrono_dst
        batch = mega.num_members
        steps = int(lengths.max())
        if is_grad_enabled():
            sequence = self._edge_matrix(node_embeddings, src, dst)
            grid = ops.index_rows(sequence, index).reshape(steps, batch, sequence.shape[1])
            outputs, _ = self.gru(grid)
            return outputs[(lengths - 1, np.arange(batch))]
        # No tape to feed: scan the grid in time slices, carrying the
        # hidden state across, and keep only each member's read-out row.
        last = lengths - 1
        final = np.empty((batch, self.hidden_size))
        hidden = None
        span = max(1, _NO_GRAD_SCAN_SLOTS // batch)
        for start in range(0, steps, span):
            stop = min(start + span, steps)
            slots = index[start * batch : stop * batch]
            rows = self._edge_matrix(node_embeddings, src[slots], dst[slots])
            outputs, hidden = self.gru(rows.reshape(stop - start, batch, rows.shape[1]), hidden)
            members = np.flatnonzero((last >= start) & (last < stop))
            final[members] = outputs.data[last[members] - start, members]
        return Tensor(final)
