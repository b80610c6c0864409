"""Batched scoring equivalence suite (pytest -m mega).

:func:`~repro.training.trainer.score_logits` scores a dataset in no-grad
``forward_batch`` passes of ``SCORE_WIDTH`` graphs; ``evaluate`` and
``inference_time_per_graph`` use nothing else.  Its logits must
match the per-graph ``model(graph)`` to 1e-9 and its thresholded
predictions — hence every ``evaluate`` metric — must equal the
per-graph loop's exactly, for the mega-capable TP-GNN family and for
models on the default stacked ``embed_batch``.
"""

import math

import numpy as np
import pytest

from repro.baselines.continuous import TGN
from repro.core import extractor
from repro.core.ablation import TPGNNRandVariant, make_ablation_variant
from repro.core.base import GraphClassifierBase
from repro.core.model import TPGNN
from repro.core.transformer_extractor import make_tpgnn_with_extractor
from repro.graph import CTDN, GraphDataset
from repro.tensor import no_grad
from repro.training import trainer
from repro.training.metrics import compute_metrics
from repro.training.trainer import (
    SCORE_WIDTH,
    evaluate,
    inference_time_per_graph,
    score_logits,
)

pytestmark = pytest.mark.mega

TOL = 1e-9
WIDTH = 4


def make_graph(seed, num_nodes=None, num_edges=None):
    rng = np.random.default_rng(seed)
    n = int(num_nodes if num_nodes is not None else rng.integers(1, 8))
    m = int(num_edges if num_edges is not None else rng.integers(1, 14))
    features = rng.normal(size=(n, WIDTH))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    # Coarse integer times: tie groups in most graphs.
    times = np.sort(rng.integers(0, 5, size=m).astype(np.float64))
    edges = list(zip(src.tolist(), dst.tolist(), times.tolist()))
    return CTDN(n, features, edges, label=int(seed % 3 == 0))


def make_dataset(size, offset=0):
    return GraphDataset([make_graph(offset + s) for s in range(size)], name="scoring")


def reference_logits(model, data):
    """The per-graph scoring loop the batched scorer replaced."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return np.array([model(graph).item() for graph in data])
    finally:
        if was_training:
            model.train()


def reference_evaluate(model, data, threshold=0.5):
    logits = reference_logits(model, data)
    predictions = [int(1.0 / (1.0 + np.exp(-logit)) >= threshold) for logit in logits]
    return compute_metrics(data.labels, predictions)


MODELS = {
    **{
        f"sum-{stabilizer}-t{time_dim}": (
            lambda seed, stabilizer=stabilizer, time_dim=time_dim: TPGNN(
                WIDTH,
                updater="sum",
                hidden_size=6,
                gru_hidden_size=6,
                time_dim=time_dim,
                sum_stabilizer=stabilizer,
                seed=seed,
            )
        )
        for stabilizer in ("bounded", "average", "none")
        for time_dim in (0, 3)
    },
    **{
        f"gru-t{time_dim}": (
            lambda seed, time_dim=time_dim: TPGNN(
                WIDTH, updater="gru", hidden_size=6, gru_hidden_size=6, time_dim=time_dim, seed=seed
            )
        )
        for time_dim in (0, 3)
    },
    **{
        variant: (
            lambda seed, variant=variant: make_ablation_variant(
                variant, WIDTH, hidden_size=6, gru_hidden_size=6, time_dim=3, seed=seed
            )
        )
        for variant in ("w/o tem", "temp", "time2Vec")
    },
    "transformer": lambda seed: make_tpgnn_with_extractor(
        WIDTH, extractor="transformer", hidden_size=6, gru_hidden_size=6, time_dim=3, seed=seed
    ),
    "rand": lambda seed: TPGNNRandVariant(WIDTH, hidden_size=6, seed=seed),
    "TGN (stacked)": lambda seed: TGN(WIDTH, 6, time_dim=3, seed=seed),
}


@pytest.fixture(params=sorted(MODELS))
def factory(request):
    return MODELS[request.param]


class TestEquivalence:
    @pytest.mark.parametrize("size", [1, 7, 9])
    def test_logits_and_metrics_match_pergraph_loop(self, factory, size, monkeypatch):
        # Width 4 splits 7 and 9 graphs into full passes and a ragged
        # last one, and 8-slot scan slices cut each pass's GRU scan
        # every two steps.  Fresh, identically seeded models keep
        # stateful samplers (rand) aligned.
        monkeypatch.setattr(trainer, "SCORE_WIDTH", 4)
        monkeypatch.setattr(extractor, "_NO_GRAD_SCAN_SLOTS", 8)
        data = make_dataset(size)
        expected = reference_logits(factory(3), data)
        np.testing.assert_allclose(score_logits(factory(3), data), expected, rtol=0.0, atol=TOL)
        assert evaluate(factory(3), data) == reference_evaluate(factory(3), data)

    def test_default_width_over_several_passes(self):
        data = make_dataset(2 * SCORE_WIDTH + 3)
        model = MODELS["gru-t3"](5)
        expected = reference_logits(model, data)
        np.testing.assert_allclose(score_logits(model, data), expected, rtol=0.0, atol=TOL)
        assert evaluate(model, data) == reference_evaluate(model, data)

    @pytest.mark.parametrize("threshold", [0.0, 0.45, 0.5, 0.55, 1.1])
    def test_thresholded_predictions_identical(self, threshold):
        data = make_dataset(40)
        model = MODELS["sum-bounded-t3"](7)
        assert evaluate(model, data, threshold) == reference_evaluate(model, data, threshold)

    def test_plain_sequence_and_empty_input(self):
        graphs = [make_graph(s) for s in range(5)]
        model = MODELS["sum-average-t0"](1)
        expected = reference_logits(model, graphs)
        np.testing.assert_allclose(score_logits(model, graphs), expected, rtol=0.0, atol=TOL)
        assert score_logits(model, []).shape == (0,)


class TestSlicedScan:
    @pytest.mark.parametrize("slots", [1, 5, 12, 10_000])
    def test_no_grad_slices_match_whole_grid_scan(self, slots, monkeypatch):
        monkeypatch.setattr(extractor, "_NO_GRAD_SCAN_SLOTS", slots)
        graphs = [make_graph(s) for s in range(6)]
        model = MODELS["gru-t3"](2)
        whole = model.forward_batch(graphs).data  # taped: one whole-grid scan
        with no_grad():
            sliced = model.forward_batch(graphs).data
        np.testing.assert_allclose(sliced, whole, rtol=0.0, atol=TOL)


class TestModeHandling:
    @pytest.mark.parametrize("training", [True, False])
    def test_prior_mode_restored(self, training):
        model = MODELS["gru-t3"](0)
        model.train() if training else model.eval()
        score_logits(model, make_dataset(5))
        assert model.training is training

    @pytest.mark.parametrize("training", [True, False])
    def test_edgeless_member_raises_and_restores_mode(self, training):
        model = MODELS["sum-bounded-t3"](0)
        model.train() if training else model.eval()
        graphs = [make_graph(0), CTDN(2, np.ones((2, WIDTH)), [], label=0), make_graph(1)]
        data = GraphDataset(graphs)
        with pytest.raises(ValueError, match="at least one temporal edge"):
            model(graphs[1])
        with pytest.raises(ValueError, match="at least one temporal edge"):
            evaluate(model, data)
        assert model.training is training


class TestCallCountGuard:
    """``evaluate`` scores at batch width, never graph by graph."""

    @pytest.mark.parametrize("size", [1, SCORE_WIDTH, SCORE_WIDTH + 1, 2 * SCORE_WIDTH + 5])
    def test_evaluate_and_timing_make_only_batch_calls(self, size, monkeypatch):
        calls = {"forward": 0, "forward_batch": 0}
        forward = GraphClassifierBase.forward
        forward_batch = GraphClassifierBase.forward_batch

        def counted_forward(self, *args, **kwargs):
            calls["forward"] += 1
            return forward(self, *args, **kwargs)

        def counted_forward_batch(self, *args, **kwargs):
            calls["forward_batch"] += 1
            return forward_batch(self, *args, **kwargs)

        monkeypatch.setattr(GraphClassifierBase, "forward", counted_forward)
        monkeypatch.setattr(GraphClassifierBase, "forward_batch", counted_forward_batch)
        data = GraphDataset([make_graph(s % 16, num_nodes=3, num_edges=2) for s in range(size)])
        model = MODELS["gru-t3"](0)
        passes = math.ceil(size / SCORE_WIDTH)
        evaluate(model, data)
        assert calls == {"forward": 0, "forward_batch": passes}
        inference_time_per_graph(model, data)
        assert calls == {"forward": 0, "forward_batch": 2 * passes}
