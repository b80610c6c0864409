"""Benchmark-side span tracing of the program's layers (``--trace 1``).

:func:`install` replaces each entry point in :data:`TARGETS` with a
timing wrapper, bound where the caller looks the name up (a module
attribute for functions imported by name, the defining class for
methods), and :func:`uninstall` puts the exact original objects back.
Nothing under ``src/`` changes, and an untraced run installs nothing: it
gets a :class:`NullTracer`, whose spans are one shared no-op.

A span is the tuple ``(id, parent id, trace id, name id, phase, start,
end)``, kept in memory.  The benchmark opens its own spans for phases
(``phase.*``), for each serving request (``request.*``, which starts a
trace) and for the program calls it makes itself (``data.generate`` …);
the program's model entry points start a trace per minibatch or graph.
A name's self time is its spans' durations minus the part their child
spans cover; ``other`` is the self time of the benchmark's phase and
request spans, i.e. time no layer span accounts for.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from bench.spec import LAYER_UNITS


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


_NULL = _NullContext()


class NullTracer:
    """The tracer of an untraced run: every span is a shared no-op."""

    def phase(self, name: str):
        return _NULL

    def span(self, name: str):
        return _NULL

    def request(self, name: str):
        return _NULL


class _Span:
    __slots__ = ("tracer", "name", "starts_trace", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: int, starts_trace: bool):
        self.tracer = tracer
        self.name = name
        self.starts_trace = starts_trace

    def __enter__(self):
        tracer = self.tracer
        self.sid = tracer.next_sid
        tracer.next_sid += 1
        if self.starts_trace:
            tracer.trace = tracer.next_trace
            tracer.next_trace += 1
        self.parent = tracer.stack[-1]
        tracer.stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = perf_counter()
        tracer = self.tracer
        tracer.stack.pop()
        tracer.spans.append(
            (self.sid, self.parent, tracer.trace, self.name, tracer.phase_index, self.start, end)
        )


class Tracer:
    """In-memory span recorder shared by the benchmark and its wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phases: list[str] = []
        self.phase_index = -1
        self.stack = [0]
        self.next_sid = 1
        self.trace = 0
        self.next_trace = 1
        self.depth = 0  # nesting depth of program (wrapper) spans
        self.counts: dict[str, float] = defaultdict(float)
        self.queue_waits: list[float] = []
        self.enqueued: dict[int, float] = {}

    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def phase(self, name: str) -> _Span:
        """A workload phase; spans opened inside it are attributed to it."""
        self.phases.append(name)
        self.phase_index = len(self.phases) - 1
        return _Span(self, self.name_id(f"phase.{name}"), False)

    def span(self, name: str) -> _Span:
        """A benchmark-side span around a call into the program."""
        return _Span(self, self.name_id(name), False)

    def request(self, name: str) -> _Span:
        """One serving request (event or predict); starts a new trace."""
        return _Span(self, self.name_id(f"request.{name}"), True)

    def wrap(self, fn, name: str, starts_trace: bool = False, before=None, after=None):
        """A timing wrapper around ``fn`` recording spans named ``name``."""
        name_id = self.name_id(name)
        tracer = self
        spans = self.spans
        stack = self.stack

        def wrapper(*args, **kwargs):
            sid = tracer.next_sid
            tracer.next_sid = sid + 1
            if starts_trace and tracer.depth == 0:
                tracer.trace = tracer.next_trace
                tracer.next_trace += 1
            parent = stack[-1]
            stack.append(sid)
            tracer.depth += 1
            start = perf_counter()
            try:
                if before is not None:
                    before(tracer, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.depth -= 1
                spans.append((sid, parent, tracer.trace, name_id, tracer.phase_index, start, end))

        return functools.wraps(fn)(wrapper)


# ----------------------------------------------------------------------
# Hooks: counts measured where the work happens
# ----------------------------------------------------------------------
def _megaplan_after(tracer, args, plan):
    tracer.counts["megaplan.edges"] += plan.num_edges
    tracer.counts["megaplan.waves"] += plan.num_waves


def _propagation_after(tracer, args, result):
    tracer.counts["propagation.edges"] += getattr(args[0], "last_update_count", 0)


def _route_before(tracer, args):
    router, event = args[0], args[1]
    tracer.counts["route.calls"] += 1
    if event.session_id in router:
        tracer.counts["route.hits"] += 1


def _queue_put_before(tracer, args):
    queue, item = args[0], args[1]
    tracer.enqueued[id(item)] = perf_counter()
    depth = len(queue) + 1
    if depth > tracer.counts["queue.depth_max"]:
        tracer.counts["queue.depth_max"] = depth


def _queue_get_after(tracer, args, batch):
    now = perf_counter()
    enqueued = tracer.enqueued
    for item in batch:
        start = enqueued.pop(id(item), None)
        if start is not None:
            tracer.queue_waits.append(now - start)


_HOOKS = {
    "megaplan": (None, _megaplan_after),
    "propagation": (None, _propagation_after),
    "route": (_route_before, None),
    "queue_put": (_queue_put_before, None),
    "queue_get": (None, _queue_get_after),
}

#: Wrapped entry points: (module[:class], attribute, span name, hook,
#: starts a trace).  Functions are patched on the module that calls them.
TARGETS = (
    ("repro.core.model", "mega_plan", "graph.megaplan", "megaplan", False),
    ("repro.graph.ctdn:CTDN", "propagation_plan", "graph.plan", None, False),
    ("repro.core.base:GraphClassifierBase", "forward", "core.model", None, True),
    ("repro.core.base:GraphClassifierBase", "forward_batch", "core.model", None, True),
    ("repro.core.propagation:TemporalPropagationBase", "forward", "core.propagation",
     "propagation", False),
    ("repro.core.extractor:GlobalTemporalExtractor", "forward", "core.extractor", None, False),
    ("repro.core.extractor:GlobalTemporalExtractor", "forward_mega", "core.extractor",
     None, False),
    ("repro.training.trainer", "bce_with_logits", "nn.loss", None, False),
    ("repro.tensor.tensor:Tensor", "backward", "tensor.backward", None, False),
    ("repro.training.trainer", "clip_grad_norm", "optim.step", None, False),
    ("repro.optim.adam:Adam", "step", "optim.step", None, False),
    ("repro.optim.optimizer:Optimizer", "zero_grad", "optim.step", None, False),
    ("repro.serve.engine:StreamingEngine", "ingest", "serve.engine.ingest", None, False),
    ("repro.serve.engine:StreamingEngine", "predict", "serve.engine.predict", None, False),
    ("repro.serve.engine:StreamingEngine", "predict_many", "serve.engine.predict", None, False),
    ("repro.serve.engine:StreamingEngine", "restore", "serve.recovery.restore", None, False),
    ("repro.serve.router:SessionRouter", "route", "serve.router.route", "route", False),
    ("repro.serve.incremental:IncrementalClassifier", "observe", "serve.incremental.observe",
     None, False),
    ("repro.serve.incremental:IncrementalClassifier", "predict_proba",
     "serve.incremental.predict", None, False),
    ("repro.serve.incremental:IncrementalClassifier", "logits_online",
     "serve.incremental.predict", None, False),
    ("repro.cluster.fastpath:FastObserver", "observe", "cluster.fastpath.observe", None, False),
    ("repro.cluster.cluster:ShardedCluster", "submit", "cluster.front", None, False),
    ("repro.cluster.cluster:ShardedCluster", "predict", "cluster.front", None, False),
    ("repro.cluster.queues:BoundedQueue", "put", "cluster.queue", "queue_put", False),
    ("repro.cluster.queues:BoundedQueue", "get_batch", "cluster.queue", "queue_get", False),
    ("repro.cluster.worker:ShardWorker", "barrier", "cluster.barrier", None, False),
    ("repro.resilience.journal:Journal", "append_event", "resilience.journal.append",
     None, False),
    ("repro.resilience.journal:Journal", "append_observation", "resilience.journal.append",
     None, False),
    ("os", "fsync", "resilience.journal.fsync", None, False),
    ("repro.serve.recovery", "scan_journal", "serve.recovery.scan", None, False),
    ("repro.resilience.journal:JournalRecord", "decode", "serve.recovery.decode", None, False),
)


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def install(tracer: Tracer) -> tuple[list[tuple], list[str]]:
    """Wrap every reachable target; returns ``(installed, missing)``.

    ``installed`` holds ``(owner, attribute, original)`` in install order;
    ``missing`` names targets the program no longer has (their metrics
    then read 0).
    """
    installed: list[tuple] = []
    missing: list[str] = []
    for path, attribute, name, hook, starts_trace in TARGETS:
        try:
            owner = _resolve(path)
        except (ImportError, AttributeError):
            missing.append(f"{path}.{attribute}")
            continue
        is_class = isinstance(owner, type)
        original = owner.__dict__.get(attribute) if is_class else getattr(owner, attribute, None)
        if original is None:
            missing.append(f"{path}.{attribute}")
            continue
        before, after = _HOOKS[hook] if hook else (None, None)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(
                tracer.wrap(original.__func__, name, starts_trace, before, after)
            )
        else:
            replacement = tracer.wrap(original, name, starts_trace, before, after)
        setattr(owner, attribute, replacement)
        installed.append((owner, attribute, original))
    return installed, missing


def uninstall(installed: list[tuple]) -> None:
    """Restore the original objects :func:`install` replaced."""
    for owner, attribute, original in reversed(installed):
        setattr(owner, attribute, original)


def calibrate(repeats: int = 5, calls: int = 20000) -> float:
    """Seconds one span adds (best of ``repeats``).

    Times the traced shape of a serving request, a benchmark request span
    around one wrapped call, against the same calls untraced.  Effects
    that grow with the run (cache pressure, memory of the span list) are
    not in it, so ``trace.overhead_frac`` is a lower estimate.
    """

    def noop(value):
        return value

    null = NullTracer()
    best = float("inf")
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer.wrap(noop, "calibration")
        start = perf_counter()
        for index in range(calls):
            with null.request("calibration"):
                noop(index)
        bare = perf_counter() - start
        start = perf_counter()
        for index in range(calls):
            with tracer.request("calibration"):
                wrapped(index)
        best = min(best, (perf_counter() - start - bare) / (2 * calls))
    return max(best, 0.0)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
_BENCH_PREFIXES = ("phase.", "request.")
_IDLE = "loadgen.idle"


def _percentile_ms(values, q: float) -> float:
    return float(np.percentile(values, q) * 1e3) if len(values) else 0.0


@dataclass
class Aggregate:
    """Span statistics by name, and each phase's wall, ``other`` and idle time."""

    total: dict[str, float]  # summed durations
    own: dict[str, float]  # summed self times
    calls: dict[str, int]
    phases: dict[str, dict[str, float]]
    fsync_under_append: list[float]  # journal fsync durations, seconds


def aggregate(tracer: Tracer) -> Aggregate:
    """Fold the recorded spans into per-name and per-phase statistics.

    A span's self time is its duration minus its direct children's
    durations.  Phases entered more than once (the rounds of a training
    workload) are summed under their name; ``other_s`` is the self time
    of the benchmark's phase and request spans, ``idle_s`` the open
    loop's waiting.
    """
    names = tracer.names
    name_of = [0] * tracer.next_sid
    for span in tracer.spans:
        name_of[span[0]] = span[3]
    total = [0.0] * len(names)
    own = [0.0] * len(names)
    calls = [0] * len(names)
    phase_own: dict[tuple[int, int], float] = defaultdict(float)
    phase_wall: dict[int, float] = defaultdict(float)
    is_phase = [name.startswith("phase.") for name in names]
    fsync_under_append: list[float] = []
    append_id = tracer._name_ids.get("resilience.journal.append")
    fsync_id = tracer._name_ids.get("resilience.journal.fsync")
    for _sid, parent, _trace, name, phase, start, end in tracer.spans:
        duration = end - start
        total[name] += duration
        own[name] += duration
        calls[name] += 1
        phase_own[phase, name] += duration
        if is_phase[name]:
            phase_wall[phase] += duration
        if parent:
            parent_name = name_of[parent]
            own[parent_name] -= duration
            phase_own[phase, parent_name] -= duration
            if name == fsync_id and parent_name == append_id:
                fsync_under_append.append(duration)
    phases: dict[str, dict[str, float]] = {}
    for phase, label in enumerate(tracer.phases):
        entry = phases.setdefault(label, {"wall_s": 0.0, "other_s": 0.0, "idle_s": 0.0})
        entry["wall_s"] += phase_wall.get(phase, 0.0)
    for (phase, name), value in phase_own.items():
        if phase < 0:
            continue
        entry = phases[tracer.phases[phase]]
        if names[name].startswith(_BENCH_PREFIXES):
            entry["other_s"] += value
        elif names[name] == _IDLE:
            entry["idle_s"] += value
    return Aggregate(
        total=dict(zip(names, total)),
        own=dict(zip(names, own)),
        calls=dict(zip(names, calls)),
        phases=phases,
        fsync_under_append=fsync_under_append,
    )


def layer_metrics(tracer: Tracer, measured: dict, span_cost: float) -> tuple[dict, dict]:
    """Per-layer metric values, plus each phase's wall/other/idle seconds.

    ``measured`` carries what the workload measured itself: the layer
    metrics no span can see (bundle size, cache and eviction counters,
    the load generator's lag) and ``evaluated_graphs``.  Every name in
    :data:`LAYER_UNITS` gets a value; a layer the workload never reached
    reads 0.
    """
    agg = aggregate(tracer)
    total, own, calls, phases = agg.total, agg.own, agg.calls, agg.phases

    def self_s(name):
        return own.get(name, 0.0)

    counts = tracer.counts
    fast_calls = calls.get("cluster.fastpath.observe", 0)
    slow_calls = calls.get("serve.incremental.observe", 0)
    route_calls = counts["route.calls"]
    waves = counts["megaplan.waves"]
    evaluated = measured.get("evaluated_graphs", 0)
    recovery_parts = sum(
        total.get(f"serve.recovery.{part}", 0.0) for part in ("restore", "scan", "decode")
    )
    busy = sum(p["wall_s"] - p["idle_s"] for p in phases.values())
    added = len(tracer.spans) * span_cost
    values = {
        "data.generate_s": total.get("data.generate", 0.0),
        "graph.io.save_s": total.get("graph.io.save", 0.0),
        "graph.io.load_s": total.get("graph.io.load", 0.0),
        "setup.build_s": total.get("setup.build", 0.0),
        "graph.megaplan.build_s": self_s("graph.megaplan"),
        "graph.megaplan.calls": calls.get("graph.megaplan", 0),
        "graph.megaplan.edges_per_wave": counts["megaplan.edges"] / waves if waves else 0.0,
        "graph.plan.build_s": self_s("graph.plan"),
        "core.model.self_s": self_s("core.model"),
        "core.propagation.self_s": self_s("core.propagation"),
        "core.propagation.edges": counts["propagation.edges"],
        "core.extractor.self_s": self_s("core.extractor"),
        "nn.loss.self_s": self_s("nn.loss"),
        "tensor.backward.self_s": self_s("tensor.backward"),
        "optim.step.self_s": self_s("optim.step"),
        "training.loop.self_s": self_s("training.train") + self_s("training.evaluate"),
        "training.evaluate.ms_per_graph": (
            total.get("training.evaluate", 0.0) * 1e3 / evaluated if evaluated else 0.0
        ),
        "serve.engine.ingest.self_s": self_s("serve.engine.ingest"),
        "serve.engine.predict.self_s": self_s("serve.engine.predict"),
        "serve.router.route.self_s": self_s("serve.router.route"),
        # Fast-lane applies only ever reach live sessions: each is a hit.
        "serve.router.hit_ratio": (
            (counts["route.hits"] + fast_calls) / (route_calls + fast_calls)
            if route_calls + fast_calls
            else 0.0
        ),
        "serve.incremental.observe.self_s": self_s("serve.incremental.observe"),
        "serve.incremental.observe.calls": slow_calls,
        "serve.incremental.predict.self_s": self_s("serve.incremental.predict"),
        "cluster.front.self_s": self_s("cluster.front"),
        "cluster.queue.self_s": self_s("cluster.queue"),
        "cluster.queue.wait_ms_p50": _percentile_ms(tracer.queue_waits, 50),
        "cluster.queue.wait_ms_p90": _percentile_ms(tracer.queue_waits, 90),
        "cluster.queue.depth_max": counts["queue.depth_max"],
        "cluster.barrier.self_s": self_s("cluster.barrier"),
        "cluster.fastpath.observe.self_s": self_s("cluster.fastpath.observe"),
        "cluster.fastpath.observe.calls": fast_calls,
        "cluster.fastpath.share": (
            fast_calls / (fast_calls + slow_calls) if fast_calls + slow_calls else 0.0
        ),
        "resilience.journal.append.self_s": self_s("resilience.journal.append"),
        "resilience.journal.append.calls": calls.get("resilience.journal.append", 0),
        "resilience.journal.fsync.calls": len(agg.fsync_under_append),
        "resilience.journal.fsync_ms_p90": _percentile_ms(agg.fsync_under_append, 90),
        "serve.checkpoint_s": total.get("serve.checkpoint", 0.0),
        "serve.recovery.restore_s": total.get("serve.recovery.restore", 0.0),
        "serve.recovery.scan_s": total.get("serve.recovery.scan", 0.0),
        "serve.recovery.decode_s": total.get("serve.recovery.decode", 0.0),
        "serve.recovery.replay_s": max(
            0.0, total.get("serve.recovery", 0.0) - recovery_parts
        ),
        "other.self_s": sum(p["other_s"] for p in phases.values()),
        "other.phase_share_max": max(
            (p["other_s"] / (p["wall_s"] - p["idle_s"])
             for p in phases.values() if p["wall_s"] - p["idle_s"] > 0),
            default=0.0,
        ),
        "trace.spans": len(tracer.spans),
        "trace.overhead_frac": added / (busy - added) if busy > added else 0.0,
    }
    for key in LAYER_UNITS:
        values.setdefault(key, measured.get(key, 0.0))
    return {key: float(values[key]) for key in LAYER_UNITS}, phases


def write_samples(tracer: Tracer, path: Path, every: int = 100) -> None:
    """Write the full span trees of one trace in ``every`` as JSON lines."""
    sampled = sorted(
        (span for span in tracer.spans if span[2] % every == 1),
        key=lambda span: (span[2], span[5]),
    )
    origin = min((span[5] for span in tracer.spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for sid, parent, trace, name, phase, start, end in sampled:
            handle.write(json.dumps({
                "trace": trace,
                "span": sid,
                "parent": parent,
                "name": tracer.names[name],
                "phase": tracer.phases[phase] if phase >= 0 else None,
                "start_ms": round((start - origin) * 1e3, 4),
                "duration_ms": round((end - start) * 1e3, 4),
            }) + "\n")
