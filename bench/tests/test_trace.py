"""A traced run reports every layer metric and leaves the program untouched."""

from __future__ import annotations

import pytest

from bench import harness
from bench import trace as tracing
from bench.spec import LAYER_UNITS


def _current(owner, attribute):
    return owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)


@pytest.mark.parametrize("workload", ["train-hdfs", "serve-engine", "serve-cluster"])
def test_traced_run_restores_every_wrapped_attribute(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path / "out")
    before = {}
    for path, attribute, *_ in tracing.TARGETS:
        owner = tracing._resolve(path)
        before[path, attribute] = (owner, _current(owner, attribute))
    result = harness.child(workload, 0, 1.0, True, tmp_path / "work", tiny=True)
    assert result["missing_targets"] == []
    assert set(result["metrics"]) == set(LAYER_UNITS)
    assert not result["problems"]
    for (path, attribute), (owner, original) in before.items():
        assert _current(owner, attribute) is original, f"{path}.{attribute} left wrapped"
    assert (tmp_path / "out" / f"{workload}.spans.jsonl").stat().st_size > 0


def test_self_time_is_duration_minus_child_coverage():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    outer = tracer.wrap(body, "outer")
    with tracer.phase("p"):
        outer()
    durations: dict[str, float] = {}
    for _, _, _, name, _, start, end in tracer.spans:
        durations[tracer.names[name]] = durations.get(tracer.names[name], 0.0) + end - start
    agg = tracing.aggregate(tracer)
    assert agg.own["inner"] == pytest.approx(durations["inner"])
    assert agg.own["outer"] == pytest.approx(durations["outer"] - durations["inner"])
    assert agg.phases["p"]["wall_s"] == pytest.approx(durations["phase.p"])
    assert agg.phases["p"]["other_s"] == pytest.approx(durations["phase.p"] - durations["outer"])
