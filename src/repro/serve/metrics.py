"""Serving metrics: a thin facade over :mod:`repro.telemetry`.

The counters and the step-latency distribution of the streaming engine
live in a :class:`~repro.telemetry.MetricRegistry` (private per engine
by default; pass a shared registry to aggregate several engines into
one export).  The original attribute API — ``metrics.events_ingested``,
``metrics.step_latency.percentile(99)`` — is preserved exactly, so the
engine, its checkpoints and existing callers are unchanged.  Hot paths
take the :class:`~repro.telemetry.Counter` handles once via
:meth:`ServeMetrics.counter` and call ``inc()`` directly.
"""

from __future__ import annotations

from repro.telemetry import Counter, Histogram, MetricRegistry

#: Lifecycle counters exported by the engine, in render order.
_COUNTER_NAMES = (
    "events_ingested",
    "events_applied",
    "events_dropped",
    "events_late_dropped",
    "events_quarantined",
    "events_overflow_dropped",
    "sessions_started",
    "sessions_evicted",
    "sessions_restore_evicted",
    "predictions_served",
    "deadline_breaches",
    "breaker_rejections",
)


def _counter_property(name: str) -> property:
    """Attribute-style access to one registry counter."""

    def getter(self: "ServeMetrics") -> int:
        return self._counters[name].value

    def setter(self: "ServeMetrics", value: int) -> None:
        self._counters[name].set(int(value))

    getter.__name__ = name
    return property(getter, setter, doc=f"Count of {name.replace('_', ' ')}.")


class ServeMetrics:
    """Counter block for the streaming engine, registry-backed.

    Attributes mirror the lifecycle of an event: it is *ingested*, then
    either *applied* (stepping some session), *dropped* (out-of-order),
    or *late-dropped* (missed the buffer watermark); sessions are
    *started* and possibly *evicted*; reads are *predictions served*.

    Parameters
    ----------
    latency_capacity:
        Ring-buffer size of the step-latency histogram.
    registry:
        Optional shared :class:`~repro.telemetry.MetricRegistry`; a
        private one is created otherwise so concurrent engines never
        collide on series names.
    """

    def __init__(
        self,
        latency_capacity: int = 4096,
        registry: MetricRegistry | None = None,
    ):
        self.registry = registry if registry is not None else MetricRegistry()
        self._counters = {
            name: self.registry.counter(f"serve/{name}") for name in _COUNTER_NAMES
        }
        self.step_latency: Histogram = self.registry.histogram(
            "serve/step_latency_seconds", capacity=latency_capacity
        )

    events_ingested = _counter_property("events_ingested")
    events_applied = _counter_property("events_applied")
    events_dropped = _counter_property("events_dropped")
    events_late_dropped = _counter_property("events_late_dropped")
    events_quarantined = _counter_property("events_quarantined")
    events_overflow_dropped = _counter_property("events_overflow_dropped")
    sessions_started = _counter_property("sessions_started")
    sessions_evicted = _counter_property("sessions_evicted")
    sessions_restore_evicted = _counter_property("sessions_restore_evicted")
    predictions_served = _counter_property("predictions_served")
    deadline_breaches = _counter_property("deadline_breaches")
    breaker_rejections = _counter_property("breaker_rejections")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The registry counter behind attribute ``name`` (for hot paths)."""
        return self._counters[name]

    def observe_step(self, seconds: float) -> None:
        """Record one applied event and its step latency."""
        self._counters["events_applied"].inc()
        self.step_latency.record(seconds)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """The integer counters as a plain dict (checkpointed as-is)."""
        return {name: self._counters[name].value for name in _COUNTER_NAMES}

    def load_counters(self, counters: dict[str, int]) -> None:
        """Restore counters written by :meth:`counters`."""
        for key, value in counters.items():
            if key in self._counters:
                self._counters[key].set(int(value))

    def summary(self) -> dict[str, float]:
        """Counters plus latency percentiles (milliseconds)."""
        info: dict[str, float] = dict(self.counters())
        info["step_latency_p50_ms"] = self.step_latency.percentile(50) * 1e3
        info["step_latency_p99_ms"] = self.step_latency.percentile(99) * 1e3
        return info

    def render(self) -> str:
        """Human-readable one-block summary (printed by ``repro serve``)."""
        summary = self.summary()
        lines = ["serve metrics"]
        for key, value in summary.items():
            if key.endswith("_ms"):
                lines.append(f"  {key:<24} {value:9.3f}")
            else:
                lines.append(f"  {key:<24} {int(value):9d}")
        return "\n".join(lines)
