"""Block-diagonal mega-plans: one wave schedule for a whole minibatch.

TP-GNN's session graphs are tiny (avg ~12 nodes), so per-graph wave
execution pays its fixed Python/dispatch overhead once per graph per
epoch — most of every kernel call on such graphs is overhead, not math.
Disjoint graphs compose freely: offsetting each member's node ids into
one shared index space yields a block-diagonal system in which wave
``k`` of the mega-plan is simply the concatenation of wave ``k`` of
every member.  No edge of one member can read or write another member's
state rows, so executing the merged wave as one batched update of the
shared ``(Σn, q)`` state matrix is exactly the per-graph recurrence run
in parallel — same semantics, ``B``-fold fewer wave steps.

A :class:`MegaPlan` quacks like a
:class:`~repro.graph.plan.PropagationPlan` where it matters to the
propagation engines — ``src``/``dst``/``times`` in merged-wave order
plus ``wave_bounds``/``waves()``/``num_edges`` — so the fused wave-scan
ops (:func:`~repro.tensor.ops.sum_wave_scan`,
:func:`~repro.tensor.ops.gru_wave_scan`) run it as one tape node per
minibatch, exactly as they run a single graph's plan.  On top it carries the offset tables
(:attr:`~BatchLayout.node_offsets` / :attr:`~BatchLayout.edge_offsets`),
the member-major chronological endpoint arrays the global extractor
consumes, and per-node member ids for batched segment readouts.

Timestamps are stored *session-relative* (``t`` minus the member's
first edge time): time encoding is per-session in the per-graph path
(each graph's state carries its own origin), and subtracting the origin
up front lets the whole mega-plan run with origin 0 while producing
bit-identical Time2Vec inputs.

Tie shuffling composes per member: :meth:`MegaPlan.from_graphs` calls
``graph.propagation_plan(rng=rng)`` member by member in batch order —
the exact calls, in the exact order, that the per-graph training loop
makes — so the rng stream and every tie permutation are bit-identical
to the per-graph path.

Layouts and deterministic plans are cached per batch composition in a
bounded LRU (:class:`MegaPlanCache`, keyed on member identity); hits
and misses are exported through the shared metric registry as
``propagation/megaplan_cache_hits`` / ``_misses``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Sequence

import numpy as np

from repro.graph.edge import TemporalEdge
from repro.graph.plan import PropagationPlan


class BatchLayout:
    """Composition-static offset tables for one batch of graphs.

    Everything here depends only on *which* graphs make up the batch —
    their node/edge counts and stacked features — not on tie shuffling,
    so one layout is shared by every tie-shuffled mega-plan of the same
    composition (the cache exploits exactly this).
    """

    __slots__ = ("graphs", "features", "node_offsets", "edge_offsets", "member_node_ids")

    def __init__(self, graphs: Sequence):
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("a mega-plan needs at least one member graph")
        widths = {int(np.asarray(g.features).shape[1]) for g in graphs}
        if len(widths) > 1:
            raise ValueError(
                f"member graphs disagree on feature width: {sorted(widths)}"
            )
        count = len(graphs)
        node_counts = np.fromiter((g.num_nodes for g in graphs), dtype=np.int64, count=count)
        edge_counts = np.fromiter((g.num_edges for g in graphs), dtype=np.int64, count=count)
        self.graphs = graphs
        self.features = np.concatenate(
            [np.asarray(g.features, dtype=np.float64) for g in graphs], axis=0
        )
        self.node_offsets = np.concatenate([[0], np.cumsum(node_counts)]).astype(np.int64)
        self.edge_offsets = np.concatenate([[0], np.cumsum(edge_counts)]).astype(np.int64)
        self.member_node_ids = np.repeat(np.arange(count, dtype=np.int64), node_counts)

    @property
    def num_members(self) -> int:
        """Batch size ``B``."""
        return len(self.graphs)

    @property
    def num_nodes(self) -> int:
        """Total node count ``Σn`` of the packed state matrix."""
        return int(self.node_offsets[-1])

    @property
    def num_edges(self) -> int:
        """Total edge count ``Σm`` across members."""
        return int(self.edge_offsets[-1])


class MegaPlan:
    """One block-diagonal execution schedule for a minibatch of graphs.

    Attributes
    ----------
    src, dst, times:
        ``(Σm,)`` arrays in **merged-wave order** — the view the
        propagation engines execute.  Node ids carry the member's node
        offset; times are session-relative per member.
    wave_bounds:
        ``(W + 1,)`` boundaries of the merged waves (``W`` is the
        maximum member wave count).
    chrono_src, chrono_dst, chrono_times:
        The same edges in **member-major chronological order** (member
        ``b``'s edges occupy ``[edge_offsets[b], edge_offsets[b+1])``)
        — the view the global extractor consumes.
    wave_order:
        ``(Σm,)`` permutation from member-major position to merged-wave
        position (``src == chrono_src[wave_order]`` etc.).
    member_plans:
        The per-graph :class:`~repro.graph.plan.PropagationPlan` each
        block was built from (local node ids).
    """

    __slots__ = (
        "layout",
        "member_plans",
        "chrono_src",
        "chrono_dst",
        "chrono_times",
        "wave_order",
        "src",
        "dst",
        "times",
        "wave_bounds",
        "_edges",
    )

    def __init__(self, member_plans: Sequence[PropagationPlan], layout: BatchLayout):
        member_plans = tuple(member_plans)
        if len(member_plans) != layout.num_members:
            raise ValueError(
                f"got {len(member_plans)} member plans for a "
                f"{layout.num_members}-member layout"
            )
        self.layout = layout
        self.member_plans = member_plans
        node_offsets = layout.node_offsets
        edge_offsets = layout.edge_offsets
        total = layout.num_edges
        chrono_src = np.empty(total, dtype=np.int64)
        chrono_dst = np.empty(total, dtype=np.int64)
        chrono_times = np.empty(total, dtype=np.float64)
        for b, plan in enumerate(member_plans):
            start, end = int(edge_offsets[b]), int(edge_offsets[b + 1])
            if plan.num_edges != end - start:
                raise ValueError(
                    f"member {b} plan has {plan.num_edges} edges but the layout "
                    f"expects {end - start}"
                )
            if plan.num_edges == 0:
                continue  # an edgeless member is a valid (empty) block
            chrono_src[start:end] = plan.src + node_offsets[b]
            chrono_dst[start:end] = plan.dst + node_offsets[b]
            chrono_times[start:end] = plan.times - float(plan.times[0])
        self.chrono_src = chrono_src
        self.chrono_dst = chrono_dst
        self.chrono_times = chrono_times
        # Merged schedule: wave k executes wave k of every member that
        # has one.  Member node sets are disjoint, so the union of valid
        # waves is a valid wave (reads-before-writes and unique
        # destinations both survive concatenation).
        max_waves = max((plan.num_waves for plan in member_plans), default=0)
        order_parts: list[np.ndarray] = []
        wave_sizes = np.zeros(max_waves, dtype=np.int64)
        for k in range(max_waves):
            for b, plan in enumerate(member_plans):
                if k >= plan.num_waves:
                    continue
                lo = int(plan.wave_bounds[k]) + int(edge_offsets[b])
                hi = int(plan.wave_bounds[k + 1]) + int(edge_offsets[b])
                order_parts.append(np.arange(lo, hi, dtype=np.int64))
                wave_sizes[k] += hi - lo
        self.wave_order = (
            np.concatenate(order_parts) if order_parts else np.zeros(0, dtype=np.int64)
        )
        self.wave_bounds = np.concatenate([[0], np.cumsum(wave_sizes)]).astype(np.int64)
        self.src = chrono_src[self.wave_order]
        self.dst = chrono_dst[self.wave_order]
        self.times = chrono_times[self.wave_order]
        self._edges: list[TemporalEdge] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graphs(
        cls,
        graphs: Sequence,
        rng: np.random.Generator | None = None,
        layout: BatchLayout | None = None,
    ) -> "MegaPlan":
        """Pack ``graphs`` into one mega-plan.

        With an ``rng``, each member's tie groups are shuffled via its
        own ``propagation_plan(rng=rng)`` in batch order — consuming the
        rng stream exactly as the per-graph training loop does, so the
        two paths stay bit-compatible.
        """
        layout = layout if layout is not None else BatchLayout(graphs)
        plans = [graph.propagation_plan(rng=rng) for graph in layout.graphs]
        return cls(plans, layout)

    # ------------------------------------------------------------------
    # PropagationPlan-compatible views (what the engines execute)
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Total scheduled edges ``Σm``."""
        return int(self.src.shape[0])

    @property
    def num_waves(self) -> int:
        """Merged kernel launches — the *maximum* member wave count."""
        return max(0, int(self.wave_bounds.shape[0]) - 1)

    def waves(self) -> Iterator[tuple[int, int]]:
        """Yield each merged wave as a half-open ``(start, end)`` slice."""
        bounds = self.wave_bounds
        for i in range(len(bounds) - 1):
            yield int(bounds[i]), int(bounds[i + 1])

    def edges(self) -> list[TemporalEdge]:
        """The merged schedule as edge objects (per-edge fallback path).

        Offsets applied, session-relative times; member blocks are
        disjoint, so folding this order per edge reproduces each
        member's own chronological recurrence exactly.
        """
        if self._edges is None:
            self._edges = [
                TemporalEdge(int(s), int(d), float(t))
                for s, d, t in zip(self.src, self.dst, self.times)
            ]
        return self._edges

    # ------------------------------------------------------------------
    # Batch views (what the model/extractor consume)
    # ------------------------------------------------------------------
    @property
    def features(self) -> np.ndarray:
        """Stacked raw node features ``(Σn, q_raw)``."""
        return self.layout.features

    @property
    def node_offsets(self) -> np.ndarray:
        """``(B + 1,)`` node-row offsets of each member block."""
        return self.layout.node_offsets

    @property
    def edge_offsets(self) -> np.ndarray:
        """``(B + 1,)`` member-major edge offsets of each member block."""
        return self.layout.edge_offsets

    @property
    def member_node_ids(self) -> np.ndarray:
        """``(Σn,)`` member index of every packed node row."""
        return self.layout.member_node_ids

    @property
    def num_members(self) -> int:
        """Batch size ``B``."""
        return self.layout.num_members

    @property
    def num_nodes(self) -> int:
        """Total packed node count ``Σn``."""
        return self.layout.num_nodes

    @property
    def member_edge_counts(self) -> np.ndarray:
        """``(B,)`` edge counts per member."""
        return np.diff(self.layout.edge_offsets)

    def member_node_slice(self, member: int) -> slice:
        """Row slice of member ``member`` in the packed ``(Σn, ·)`` matrices."""
        offsets = self.layout.node_offsets
        return slice(int(offsets[member]), int(offsets[member + 1]))

    def split_rows(self, matrix) -> list:
        """Per-member views of a packed ``(Σn, ·)`` matrix (tensor or array)."""
        return [matrix[self.member_node_slice(b)] for b in range(self.num_members)]

    def padded_sequence_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Gather index materializing the end-padded ``(T, B)`` edge grid.

        Returns ``(index, lengths)``: ``index`` has ``T * B`` entries in
        step-major order such that gathering member-major edge rows with
        it and reshaping to ``(T, B, ·)`` puts member ``b``'s ``i``-th
        chronological edge at ``[i, b]``.  Pad slots (steps past a
        member's length) point at row 0; their value never reaches a
        read-out position and their gradient is exactly zero, because
        the fused GRU backward's carry is zero past the last step whose
        upstream gradient is taken.
        """
        lengths = self.member_edge_counts
        batch = self.num_members
        steps = int(lengths.max()) if batch else 0
        index = np.zeros((steps, batch), dtype=np.int64)
        offsets = self.layout.edge_offsets
        for b in range(batch):
            m = int(lengths[b])
            index[:m, b] = np.arange(int(offsets[b]), int(offsets[b]) + m, dtype=np.int64)
        return index.reshape(steps * batch), lengths

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MegaPlan(members={self.num_members}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, waves={self.num_waves})"
        )


class MegaPlanCache:
    """Bounded LRU of batch layouts and deterministic mega-plans.

    Keyed by batch composition (member identity, in order).  A hit
    reuses the composition's :class:`BatchLayout` — and, for the
    deterministic (no tie shuffle) path, the fully merged plan; a
    tie-shuffled request still rebuilds the merge (the permutations
    change every epoch) but skips the feature stacking and offset
    tables.  Entries hold strong references to their member graphs, so
    an ``id()`` can never be recycled while its entry is live; identity
    is still re-verified on lookup.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[int, ...], dict] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every cached layout/plan."""
        self._entries.clear()

    def batch(self, graphs: Sequence, rng: np.random.Generator | None = None) -> MegaPlan:
        """The mega-plan for ``graphs`` (tie-shuffled when ``rng`` given)."""
        graphs = tuple(graphs)
        key = tuple(id(graph) for graph in graphs)
        entry = self._entries.get(key)
        if entry is not None and all(a is b for a, b in zip(entry["graphs"], graphs)):
            self._entries.move_to_end(key)
            _count("propagation/megaplan_cache_hits")
        else:
            entry = {"graphs": graphs, "layout": BatchLayout(graphs), "plan": None}
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            _count("propagation/megaplan_cache_misses")
        if rng is not None:
            return MegaPlan.from_graphs(entry["graphs"], rng=rng, layout=entry["layout"])
        if entry["plan"] is None:
            entry["plan"] = MegaPlan.from_graphs(entry["graphs"], layout=entry["layout"])
        return entry["plan"]


#: Process-wide composition cache used by the model/trainer batch path.
_default_cache = MegaPlanCache()


def mega_plan(graphs: Sequence, rng: np.random.Generator | None = None) -> MegaPlan:
    """Batch ``graphs`` into one mega-plan via the process-wide cache."""
    return _default_cache.batch(graphs, rng=rng)


def _count(name: str) -> None:
    """Bump a registry counter (telemetry imported lazily — no cycle)."""
    from repro import telemetry

    telemetry.get_registry().counter(name).inc()
