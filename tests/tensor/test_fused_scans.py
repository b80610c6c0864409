"""Fused recurrence ops: gradchecks and the no-tape contract.

``sum_wave_scan`` and ``gru_wave_scan`` run a whole wave schedule as one
tape node with a hand-written reverse sweep, so every parent's gradient
is checked against central differences on small hand-built plans —
including the wave shapes that make the sweep's ordering matter
(repeated sources, a source that a later edge of the same wave
overwrites, self-loops) and the empty plan.  ``gru_sequence`` and both
wave scans keep their saved activations only when a tape records.
"""

import tracemalloc

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, ops
from repro.tensor.gradcheck import check_gradients

pytestmark = pytest.mark.mega

NUM_NODES = 5
HIDDEN = 3

#: name -> (src, dst, wave_bounds).  Within a wave every edge reads the
#: pre-wave state and destinations are unique (the scheduler's rules).
PLANS = {
    "chain": ([0, 2, 1, 3], [1, 3, 4, 0], [0, 2, 4]),
    "repeated-sources": ([0, 0, 0, 4], [1, 2, 3, 0], [0, 3, 4]),
    "src-overwritten-later": ([1, 3, 4, 2], [2, 1, 4, 0], [0, 3, 4]),
    "empty": ([], [], [0]),
}


def plan(name):
    src, dst, bounds = PLANS[name]
    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(bounds, dtype=np.int64),
    )


def tensor(shape, seed, scale=0.8):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


def gru_params(in_size, seed):
    return (
        tensor((in_size, 3 * HIDDEN), seed, 0.5),
        tensor((HIDDEN, 3 * HIDDEN), seed + 1, 0.5),
        tensor((3 * HIDDEN,), seed + 2, 0.1),
    )


def stabilize(merged, stabilizer):
    if stabilizer == "bounded":
        return np.tanh(merged)
    return merged * 0.5 if stabilizer == "average" else merged


def sum_reference(state, src, dst, stabilizer):
    """The per-edge SUM recurrence, one edge at a time."""
    out = state.copy()
    for s, d in zip(src, dst):
        out[d] = stabilize(out[s] + out[d], stabilizer)
    return out


def gru_reference(state, src, dst, W, U, b, enc):
    """The per-edge GRU recurrence, one edge at a time."""
    out = state.copy()
    for i, (s, d) in enumerate(zip(src, dst)):
        x = out[s : s + 1]
        if enc is not None:
            x = np.concatenate([x, enc[i : i + 1]], axis=1)
        out[d] = ops._gru_gates(x @ W + b, out[d : d + 1], U)[0][0]
    return out


class TestSumWaveScan:
    @pytest.mark.parametrize("name", sorted(PLANS))
    @pytest.mark.parametrize("stabilizer", ["bounded", "average", "none"])
    def test_forward_matches_per_edge_fold(self, name, stabilizer):
        src, dst, bounds = plan(name)
        state = tensor((NUM_NODES, HIDDEN), 0)
        out = ops.sum_wave_scan(state, src, dst, bounds, stabilizer)
        expected = sum_reference(state.data, src, dst, stabilizer)
        np.testing.assert_allclose(out.data, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(PLANS))
    @pytest.mark.parametrize("stabilizer", ["bounded", "average", "none"])
    @pytest.mark.parametrize("time_dim", [0, 3])
    def test_gradcheck(self, name, stabilizer, time_dim):
        # The updater's output: tanh(X ⊕ M) with M the segment-summed
        # edge-time embeddings (time_dim 0 drops the memory).
        src, dst, bounds = plan(name)
        state = tensor((NUM_NODES, HIDDEN), 1)
        encodings = tensor((src.shape[0], time_dim), 2)

        def loss():
            features = ops.sum_wave_scan(state, src, dst, bounds, stabilizer)
            if time_dim:
                memory = ops.segment_sum(encodings, dst, NUM_NODES)
                features = ops.concat([features, memory], axis=1)
            return (ops.tanh(features) ** 2.0).sum()

        check_gradients(loss, [state, encodings] if time_dim else [state])

    def test_unknown_stabilizer_rejected(self):
        src, dst, bounds = plan("chain")
        with pytest.raises(KeyError, match="unknown stabilizer"):
            ops.sum_wave_scan(tensor((NUM_NODES, HIDDEN), 0), src, dst, bounds, "clip")


class TestGruWaveScan:
    @pytest.mark.parametrize("name", sorted(PLANS))
    @pytest.mark.parametrize("time_dim", [0, 3])
    def test_forward_matches_per_edge_fold(self, name, time_dim):
        src, dst, bounds = plan(name)
        state = tensor((NUM_NODES, HIDDEN), 3)
        W, U, b = gru_params(HIDDEN + time_dim, 4)
        enc = tensor((src.shape[0], time_dim), 5) if time_dim else None
        out = ops.gru_wave_scan(state, src, dst, bounds, W, U, b, enc)
        expected = gru_reference(
            state.data, src, dst, W.data, U.data, b.data, enc.data if enc else None
        )
        np.testing.assert_allclose(out.data, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(PLANS))
    @pytest.mark.parametrize("time_dim", [0, 3])
    def test_gradcheck(self, name, time_dim):
        src, dst, bounds = plan(name)
        state = tensor((NUM_NODES, HIDDEN), 6)
        W, U, b = gru_params(HIDDEN + time_dim, 7)
        enc = tensor((src.shape[0], time_dim), 8) if time_dim else None

        def loss():
            out = ops.gru_wave_scan(state, src, dst, bounds, W, U, b, enc)
            return (ops.tanh(out) ** 2.0).sum()

        check_gradients(loss, [state, W, U, b] + ([enc] if enc is not None else []))


class TestNoTape:
    """Without a tape the fused ops keep no activations and record nothing."""

    def gru_sequence_inputs(self, steps=64, batch=32, in_size=8):
        x = tensor((steps, batch, in_size), 9)
        h0 = tensor((batch, HIDDEN * 4), 10)
        W = tensor((in_size, 3 * HIDDEN * 4), 11, 0.3)
        U = tensor((HIDDEN * 4, 3 * HIDDEN * 4), 12, 0.3)
        b = tensor((3 * HIDDEN * 4,), 13, 0.1)
        return x, h0, W, U, b

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_gru_sequence_without_tape(self):
        inputs = self.gru_sequence_inputs()
        taped, taped_peak = self.peak_bytes(lambda: ops.gru_sequence(*inputs))
        with no_grad():
            bare, bare_peak = self.peak_bytes(lambda: ops.gru_sequence(*inputs))
        np.testing.assert_array_equal(bare.data, taped.data)
        assert taped._parents and bare._parents == ()
        assert not bare.requires_grad and bare._backward is None
        # Five (T, B, H) BPTT arrays are skipped: outputs plus the input
        # projection remain, so the peak drops by well over a third.
        assert bare_peak < 0.6 * taped_peak

    def test_gru_sequence_frozen_inputs_record_nothing(self):
        inputs = [Tensor(t.data) for t in self.gru_sequence_inputs(steps=4, batch=2)]
        assert ops.gru_sequence(*inputs)._parents == ()

    @pytest.mark.parametrize("stabilizer", ["bounded", "average", "none"])
    def test_sum_wave_scan_without_tape(self, stabilizer):
        src, dst, bounds = plan("src-overwritten-later")
        state = tensor((NUM_NODES, HIDDEN), 14)
        taped = ops.sum_wave_scan(state, src, dst, bounds, stabilizer)
        with no_grad():
            bare = ops.sum_wave_scan(state, src, dst, bounds, stabilizer)
        np.testing.assert_array_equal(bare.data, taped.data)
        assert taped._parents == (state,) and bare._parents == ()

    @pytest.mark.parametrize("time_dim", [0, 3])
    def test_gru_wave_scan_without_tape(self, time_dim):
        src, dst, bounds = plan("repeated-sources")
        state = tensor((NUM_NODES, HIDDEN), 15)
        W, U, b = gru_params(HIDDEN + time_dim, 16)
        enc = tensor((src.shape[0], time_dim), 17) if time_dim else None
        taped = ops.gru_wave_scan(state, src, dst, bounds, W, U, b, enc)
        with no_grad():
            bare = ops.gru_wave_scan(state, src, dst, bounds, W, U, b, enc)
        np.testing.assert_array_equal(bare.data, taped.data)
        assert taped._parents and bare._parents == ()

    def test_input_state_is_not_mutated(self):
        src, dst, bounds = plan("chain")
        state = tensor((NUM_NODES, HIDDEN), 18)
        before = state.data.copy()
        with no_grad():
            ops.sum_wave_scan(state, src, dst, bounds)
            ops.gru_wave_scan(state, src, dst, bounds, *gru_params(HIDDEN, 19))
        np.testing.assert_array_equal(state.data, before)
