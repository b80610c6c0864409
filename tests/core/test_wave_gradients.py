"""Gradient contract of the fused wave kernels.

The wave engine runs a whole plan as one ``sum_wave_scan`` /
``gru_wave_scan`` tape node whose backward is a hand-written reverse
sweep.  Its parameter gradients must match the per-edge fold of
:meth:`step` (the reference semantics) for every updater, every SUM
stabilizer, with and without time encoding — and the mega-batched
forward must match the per-graph one through the tape as well.  The
tape-size guard pins the "one node per plan" shape itself, so a
regression to per-wave nodes fails loudly.
"""

import numpy as np
import pytest

from repro.core.propagation import TemporalPropagationGRU, TemporalPropagationSum
from repro.graph import CTDN
from repro.graph.megaplan import MegaPlan

TOLERANCE = 1e-8

CONFIGS = [
    ("sum", "bounded", 0),
    ("sum", "average", 4),
    ("sum", "average", 0),
    ("sum", "none", 4),
    ("sum", "none", 0),
    ("gru", None, 0),
]
ALL_CONFIGS = CONFIGS + [("sum", "bounded", 4), ("gru", None, 4)]


def build(kind, stabilizer, time_dim, width=3):
    rng = np.random.default_rng(99)
    if kind == "gru":
        return TemporalPropagationGRU(width, hidden_size=7, time_dim=time_dim, rng=rng)
    return TemporalPropagationSum(
        width, hidden_size=7, time_dim=time_dim, stabilizer=stabilizer, rng=rng
    )


def stress_graph():
    # Self-loops, a repeated destination within a tie, a chain, a source
    # that a later edge of the same wave overwrites, repeated sources.
    edges = [
        (0, 0, 1.0),
        (1, 2, 1.0),
        (3, 2, 1.0),
        (2, 4, 1.0),
        (4, 0, 2.0),
        (0, 1, 2.0),
        (1, 1, 2.0),
        (3, 4, 3.0),
        (3, 0, 3.0),
        (2, 3, 3.0),
    ]
    return CTDN(5, np.random.default_rng(0).normal(size=(5, 3)), edges)


def make_graph(seed, num_nodes, num_edges):
    rng = np.random.default_rng(seed)
    edges = list(
        zip(
            rng.integers(0, num_nodes, size=num_edges).tolist(),
            rng.integers(0, num_nodes, size=num_edges).tolist(),
            np.sort(rng.integers(0, 4, size=num_edges)).astype(float).tolist(),
        )
    )
    return CTDN(num_nodes, rng.normal(size=(num_nodes, 3)), edges, label=seed % 2)


def parameter_grads(prop, loss):
    params = list(prop.parameters())
    for p in params:
        p.zero_grad()
    loss().backward()
    return [p.grad.copy() for p in params]


def assert_grads_close(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert np.max(np.abs(a - b), initial=0.0) <= TOLERANCE


@pytest.mark.parametrize("kind,stabilizer,time_dim", CONFIGS)
def test_wave_gradients_match_fold(kind, stabilizer, time_dim):
    graph = stress_graph()
    prop = build(kind, stabilizer, time_dim)

    def grads(engine):
        return parameter_grads(prop, lambda: (prop(graph, engine=engine) ** 2.0).sum())

    assert_grads_close(grads("wave"), grads("per-edge"))


@pytest.mark.mega
@pytest.mark.parametrize("kind,stabilizer,time_dim", ALL_CONFIGS)
def test_mega_gradients_match_per_graph(kind, stabilizer, time_dim):
    graphs = [
        make_graph(1, num_nodes=1, num_edges=2),
        make_graph(2, num_nodes=6, num_edges=14),
        make_graph(3, num_nodes=3, num_edges=4),
        make_graph(4, num_nodes=5, num_edges=9),
    ]
    mega = MegaPlan.from_graphs(graphs)
    prop = build(kind, stabilizer, time_dim)
    packed = parameter_grads(prop, lambda: (prop.forward_mega(mega) ** 2.0).sum())

    def per_graph_loss():
        total = (prop(graphs[0]) ** 2.0).sum()
        for graph in graphs[1:]:
            total = total + (prop(graph) ** 2.0).sum()
        return total

    assert_grads_close(packed, parameter_grads(prop, per_graph_loss))


def tape_nodes_from(source, sink):
    """Tape nodes on some path from ``source`` to ``sink`` (``sink`` included)."""
    reaches: dict[int, bool] = {}

    def visit(node):
        key = id(node)
        if key not in reaches:
            # A list, not a generator: every parent path must be walked.
            reaches[key] = any([p is source or visit(p) for p in node._parents])
            if reaches[key]:
                between.append(node)
        return reaches[key]

    between: list = []
    visit(sink)
    return between


@pytest.mark.mega
@pytest.mark.parametrize("kind,stabilizer,time_dim", ALL_CONFIGS)
def test_forward_mega_records_one_propagation_node(kind, stabilizer, time_dim):
    graphs = [make_graph(seed, num_nodes=6, num_edges=12) for seed in range(4)]
    mega = MegaPlan.from_graphs(graphs)
    assert mega.num_waves > 1
    prop = build(kind, stabilizer, time_dim)
    captured = {}
    encode, finalize = prop._encode_features, prop.finalize

    def capture_encoded(features):
        captured["encoded"] = encode(features)
        return captured["encoded"]

    def capture_finalized(state):
        captured["propagated"] = state.node_state
        captured["output"] = finalize(state)
        return captured["output"]

    prop._encode_features = capture_encoded
    prop.finalize = capture_finalized
    out = prop.forward_mega(mega)

    assert out is captured["output"]
    encoded, propagated = captured["encoded"], captured["propagated"]
    assert encoded.requires_grad
    # Exactly one node turns the encoded features into the propagated
    # state, and the finalize output is built from that node.
    between = tape_nodes_from(encoded, propagated)
    assert len(between) == 1 and between[0] is propagated
    assert any(node is propagated for node in tape_nodes_from(encoded, out))
