"""Property: the raw serving kernel == the Tensor oracle, bit for bit.

:class:`IncrementalClassifier` applies events and answers online reads
on raw ndarrays; ``tests/serve/oracle.py`` keeps the Tensor fold of the
same recurrence.  Both run the same op sequence at the same shapes, so
every state array and every online logit must be *equal* — compared
with ``np.array_equal`` and ``==``, never a tolerance — for every model
configuration serving accepts: both updaters, all three SUM
stabilizers, ``time_dim`` 0 and 4, all six EdgeAgg methods and both
``missing_features`` policies.  Streams skip ahead over node ids
(placeholder rows), leave features out, and are snapshotted and
restored mid-stream.  Runs derandomized.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EDGE_AGGREGATORS,
    TPGNN,
    RandomAggregation,
    make_tpgnn_with_extractor,
)
from repro.serve import IncrementalClassifier
from tests.serve import oracle

IN_FEATURES = 3

CONFIGS = [
    ("sum", stabilizer, time_dim, aggregator)
    for stabilizer in ("bounded", "average", "none")
    for time_dim in (0, 4)
    for aggregator in sorted(EDGE_AGGREGATORS)
] + [
    ("gru", "bounded", time_dim, aggregator)
    for time_dim in (0, 4)
    for aggregator in sorted(EDGE_AGGREGATORS)
]


def make_model(updater, stabilizer, time_dim, aggregator, seed=0) -> TPGNN:
    model = TPGNN(
        in_features=IN_FEATURES,
        updater=updater,
        hidden_size=5,
        gru_hidden_size=4,
        time_dim=time_dim,
        edge_aggregator=aggregator,
        sum_stabilizer=stabilizer,
        seed=seed,
    )
    # Biases start at zero; jitter every parameter so that no term of
    # the recurrence (e.g. the encoding of a zero placeholder row) is a
    # trivial zero the kernel could skip unnoticed.
    rng = np.random.default_rng(seed)
    for parameter in model.parameters():
        parameter.data = parameter.data + rng.normal(scale=0.2, size=parameter.data.shape)
    model.eval()
    return model


def make_stream(seed: int, length: int = 14, max_node: int = 9):
    """``(src, dst, time, node_features)`` events.

    Node ids jump ahead (placeholder rows), features arrive for about
    two thirds of the endpoints (so first sightings without features
    exercise the missing-features policy), and times tie now and then.
    """
    rng = np.random.default_rng(seed)
    events = []
    time = 0.0
    for _ in range(length):
        src, dst = (int(n) for n in rng.choice(max_node + 1, size=2, replace=False))
        if rng.random() < 0.8:
            time += float(rng.exponential(1.0)) + 0.01
        features = {
            node: rng.normal(size=IN_FEATURES) for node in (src, dst) if rng.random() < 0.65
        }
        events.append((src, dst, time, features or None))
    return events


def assert_states_equal(kernel, reference) -> None:
    kp, rp = kernel.prop_state, reference.prop_state
    assert np.array_equal(kp.node_state.data, rp.node_state.data)
    assert kp.origin == rp.origin
    assert kp.updates == rp.updates
    if hasattr(rp, "time_state"):
        assert (kp.time_state is None) == (rp.time_state is None)
        if rp.time_state is not None:
            assert np.array_equal(kp.time_state.data, rp.time_state.data)
        assert np.array_equal(kp.time_touched, rp.time_touched)
    assert np.array_equal(kernel.ext_state.hidden.data, reference.ext_state.hidden.data)
    assert kernel.ext_state.steps == reference.ext_state.steps
    assert kernel.feature_seen == reference.feature_seen
    assert kernel.edges == reference.edges


def apply_both(classifier, kernel, reference, event) -> None:
    """One event through the kernel and the oracle; same outcome either way."""
    src, dst, time, features = event
    outcomes = []
    for apply, state in (
        (classifier.observe, kernel),
        (lambda *a: oracle.observe(classifier, *a), reference),
    ):
        try:
            apply(state, (src, dst, time), features)
            outcomes.append(None)
        except ValueError as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("policy", ["zeros", "raise"])
@pytest.mark.parametrize("updater,stabilizer,time_dim,aggregator", CONFIGS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**16), cut=st.integers(0, 14))
def test_kernel_matches_oracle(updater, stabilizer, time_dim, aggregator, policy, seed, cut):
    model = make_model(updater, stabilizer, time_dim, aggregator, seed=seed % 5)
    classifier = IncrementalClassifier(model, missing_features=policy)
    stream = make_stream(seed)
    kernel = classifier.new_session("s")
    reference = classifier.new_session("s")
    for index, event in enumerate(stream):
        if index == cut:
            # Freeze and thaw the kernel's session mid-stream; the
            # oracle runs on uninterrupted.
            kernel = classifier.restore("s", classifier.snapshot(kernel))
        apply_both(classifier, kernel, reference, event)
        assert_states_equal(kernel, reference)
        assert classifier.logit(kernel) == oracle.logit_online(classifier, reference)


@pytest.mark.parametrize("updater", ["sum", "gru"])
def test_micro_batched_read_matches_oracle(updater):
    model = make_model(updater, "bounded", 4, "average")
    classifier = IncrementalClassifier(model, missing_features="zeros")
    states = []
    for seed in range(5):
        state = classifier.new_session(f"s{seed}")
        for src, dst, time, features in make_stream(seed):
            classifier.observe(state, (src, dst, time), features)
        states.append(state)
    assert np.array_equal(
        classifier.logits_online(states), oracle.logits_online(classifier, states)
    )
    assert classifier.logits_online([]).shape == (0,)


def test_prematerialized_session_matches_oracle():
    """``new_session(features=...)`` (replay usage) feeds the same kernel."""
    model = make_model("gru", "bounded", 4, "concatenation")
    classifier = IncrementalClassifier(model)
    features = np.random.default_rng(3).normal(size=(10, IN_FEATURES))
    kernel = classifier.new_session("s", features=features)
    reference = classifier.new_session("s", features=features)
    for src, dst, time, _ in make_stream(11):
        classifier.observe(kernel, (src, dst, time))
        oracle.observe(classifier, reference, (src, dst, time))
    assert_states_equal(kernel, reference)


@pytest.mark.parametrize("updater", ["sum", "gru"])
def test_kernel_reads_parameters_on_every_call(updater):
    """Weights rebound by ``load_state_dict`` or updated in place by an
    optimizer take effect on the very next event and read."""
    model = make_model(updater, "bounded", 4, "average")
    classifier = IncrementalClassifier(model, missing_features="zeros")
    kernel = classifier.new_session("s")
    reference = classifier.new_session("s")
    stream = make_stream(5)
    for event in stream[:5]:
        apply_both(classifier, kernel, reference, event)
    model.load_state_dict(make_model(updater, "bounded", 4, "average", seed=9).state_dict())
    for event in stream[5:10]:
        apply_both(classifier, kernel, reference, event)
    for parameter in model.parameters():
        parameter.data -= 0.01 * np.sign(parameter.data)
    for event in stream[10:]:
        apply_both(classifier, kernel, reference, event)
    assert_states_equal(kernel, reference)
    assert classifier.logit(kernel) == oracle.logit_online(classifier, reference)


def test_width_mismatch_raises_like_the_encoder():
    classifier = IncrementalClassifier(make_model("sum", "bounded", 4, "average"))
    state = classifier.new_session("s")
    with pytest.raises(ValueError, match="expected features of width 3, got 2"):
        classifier.observe(state, (0, 1, 1.0), {0: np.zeros(2), 1: np.zeros(3)})


def test_models_outside_the_kernel_are_refused():
    model = make_tpgnn_with_extractor(IN_FEATURES, extractor="transformer", seed=0)
    with pytest.raises(TypeError, match="GRU global temporal extractor"):
        IncrementalClassifier(model)
    swapped = make_model("sum", "bounded", 4, "average")
    swapped.propagation = RandomAggregation(IN_FEATURES, hidden_size=5)
    with pytest.raises(TypeError, match="SUM or GRU propagation updater"):
        IncrementalClassifier(swapped)
