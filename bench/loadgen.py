"""Closed- and open-loop request drivers (one process, one thread).

The closed loop sends the next request as soon as the previous one
returns, so it measures capacity.  The open loop sends on a fixed
schedule whatever the program does: each request is timed from the
moment it was *due*, so a stall that delays later requests counts
against them, and the driver records how late it ran.  It sleeps until
``SPIN_S`` before each due time and spins the rest, because sleep-only
dispatch overshoots by a scheduler quantum and that overshoot would read
as program latency.

Workloads repeat identical passes and keep each item's best time
(:func:`best_of`): on a shared machine, neighbours slow whole stretches
of seconds at a time, and the per-item minimum over passes that are
seconds apart filters that out where a single long measurement cannot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

#: The open loop spins (instead of sleeping) this long before a due time.
SPIN_S = 0.001
#: A request that starts more than this late counts as late.
LATE_S = 0.001
#: Events per timed chunk of the closed loop.
CHUNK = 256
#: Errors kept verbatim for the report; the rest are only counted.
_KEEP_ERRORS = 5


@dataclass
class LoopStats:
    """What one loop did; times in seconds, per item in schedule order."""

    events: int = 0
    predicts: int = 0
    failed: int = 0
    idle_s: float = 0.0
    chunks: list[float] = field(default_factory=list)  # closed loop: seconds per chunk
    ingest: list[float] = field(default_factory=list)  # open loop, from due time
    predict: list[float] = field(default_factory=list)  # open loop, from due time
    lag: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.events + self.predicts

    def note(self, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < _KEEP_ERRORS:
            self.errors.append(f"{type(error).__name__}: {error}")


def best_of(passes: Sequence[Sequence[float]]) -> np.ndarray:
    """Each item's minimum over identical passes (item order must match)."""
    return np.min(np.asarray(passes, dtype=np.float64), axis=0)


def percentile_ms(samples, q: float) -> float:
    """The ``q``-th percentile of ``samples`` (seconds) in milliseconds."""
    return float(np.percentile(samples, q) * 1e3) if len(samples) else float("nan")


def closed_loop(
    events: list,
    ingest: Callable,
    predict: Callable,
    predict_every: int,
    tracer,
) -> LoopStats:
    """Ingest ``events`` back to back, reading after every ``predict_every``-th.

    The read is a predict of the just-fed session.  Time is recorded per
    chunk of :data:`CHUNK` events.  An ingest that returns a false value
    (dropped, shed) counts as failed.
    """
    stats = LoopStats()
    for first in range(0, len(events), CHUNK):
        start = perf_counter()
        for event in events[first : first + CHUNK]:
            stats.events += 1
            with tracer.request("event"):
                try:
                    if not ingest(event):
                        stats.failed += 1
                except Exception as error:  # counted, reported, loop goes on
                    stats.note(error)
            if stats.events % predict_every == 0:
                stats.predicts += 1
                with tracer.request("predict"):
                    try:
                        predict(event.session_id)
                    except Exception as error:
                        stats.note(error)
        stats.chunks.append(perf_counter() - start)
    return stats


def open_loop(
    events: list,
    rate: float,
    ingest: Callable,
    predict: Callable,
    predict_every: int,
    tracer,
) -> LoopStats:
    """Send ``events`` at ``rate`` per second, with the closed loop's read mix.

    Reads are requests of their own: after every ``predict_every``-th
    event a predict of that event's session takes the next slot, and all
    slots are evenly spaced so events still arrive at ``rate``.
    """
    schedule: list[tuple[bool, object]] = []
    for index, event in enumerate(events, start=1):
        schedule.append((False, event))
        if index % predict_every == 0:
            schedule.append((True, event.session_id))
    interval = len(events) / rate / len(schedule)
    stats = LoopStats()
    origin = perf_counter() + SPIN_S
    for slot, (is_predict, payload) in enumerate(schedule):
        due = origin + slot * interval
        now = perf_counter()
        if now < due:
            with tracer.span("loadgen.idle"):
                if due - now > SPIN_S:
                    time.sleep(due - now - SPIN_S)
                while perf_counter() < due:
                    pass
            stats.idle_s += perf_counter() - now
        stats.lag.append(perf_counter() - due)
        if is_predict:
            stats.predicts += 1
            with tracer.request("predict"):
                try:
                    predict(payload)
                except Exception as error:
                    stats.note(error)
            stats.predict.append(perf_counter() - due)
        else:
            stats.events += 1
            with tracer.request("event"):
                try:
                    if not ingest(payload):
                        stats.failed += 1
                except Exception as error:
                    stats.note(error)
            stats.ingest.append(perf_counter() - due)
    return stats


def lag_metrics(passes: Sequence[LoopStats]) -> dict[str, float]:
    """The open loop's own health: how late it dispatched, how long it idled."""
    lag = np.concatenate([np.asarray(stats.lag) for stats in passes])
    return {
        "loadgen.lag_ms_p90": float(np.percentile(lag, 90) * 1e3) if lag.size else 0.0,
        "loadgen.late_frac": float(np.mean(lag > LATE_S)) if lag.size else 0.0,
        "loadgen.idle_s": sum(stats.idle_s for stats in passes),
    }
