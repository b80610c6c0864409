"""The four benchmark workloads (run inside the child process).

Each workload returns an :class:`Outcome`: the end-to-end metric values,
diagnostics that are recorded but not gated, what the workload measured
for the per-layer table, and the outcome of its correctness checks.

Every end-to-end metric has a meaning on every workload (the contract is
one metric set for all of them):

=================== ===================================== =====================================
metric              train-hdfs / train-gowalla            serve-engine / serve-cluster
=================== ===================================== =====================================
setup_s             generate + bundle + load + model      model + engine/cluster + journals
throughput_per_s    train graphs x epochs / train_model s closed-loop events / s (reads mixed in)
eval_graphs_per_s   test graphs / evaluate() s            live sessions scored one by one / s
ingest_ms_p50/p99   one event into the deployed trained   one open-loop event, from its due
                    model (closed loop)                   time
predict_ms_p50/p90  one test graph scored alone           one open-loop predict, from its due
                    (predict_proba)                       time
=================== ===================================== =====================================

A run repeats identical work (training *rounds*, serving *passes*: same
seed, same inputs, fresh state) and reports each item's best time over
the repeats (:func:`~bench.loadgen.best_of`); ``setup_s`` is the median
of every build.  The repeats must also produce identical outputs, which
is one of the checks.
"""

from __future__ import annotations

import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from bench.feeds import FEATURE_DIM, SessionFeed
from bench.loadgen import LoopStats, best_of, closed_loop, lag_metrics, open_loop, percentile_ms
from repro import telemetry
from repro.cluster.cluster import ShardedCluster
from repro.core.model import TPGNN
from repro.data.registry import make_dataset
from repro.graph.io import load_dataset, save_dataset
from repro.resilience.journal import Journal, scan_journal
from repro.serve.engine import StreamingEngine
from repro.serve.events import session_events
from repro.serve.recovery import recover_engine
from repro.telemetry import MetricRegistry
from repro.training.trainer import TrainConfig, evaluate, train_model


#: Seed of the training workloads' datasets.  The dataset belongs to the
#: workload, like the serving population; the run seed drives the model
#: initialisation and the training order.
DATA_SEED = 0


@dataclass(frozen=True)
class TrainSpec:
    """Paper pipeline: generate -> bundle -> load -> train -> evaluate -> deploy.

    One *round* runs the whole pipeline.  A run makes one round per
    ``round_s`` of its seconds, at least ``min_rounds``.  The round count
    follows from the seconds asked for, never from measured speed, so a
    run's work is fixed.
    """

    dataset: str
    num_graphs: int
    scale: float
    updater: str
    epochs: int
    f1_floor: float
    deploy_sessions: int  # test sessions streamed into the deployed model
    round_s: float
    min_rounds: int = 3
    hidden_size: int = 32
    time_dim: int = 6
    learning_rate: float = 0.01
    batch_size: int = 4
    train_fraction: float = 0.3


@dataclass(frozen=True)
class ServeSpec:
    """Serving feed, ``passes`` times: setup -> closed loop -> read sweeps -> open loop.

    ``shards == 0`` serves from one journaled ``StreamingEngine``, and the
    last pass checkpoints before its open loop and ends with a crash and
    ``recover_engine``; otherwise a ``ShardedCluster``.  Per second of the
    run, the closed loops send ``closed_events_per_s`` events and the open
    loops run ``open_share`` seconds at ``rate``, split evenly over the
    passes.  Sizes follow from the seconds asked for, never from measured
    speed, so a run's inputs (and the memory they take) are fixed.
    """

    sessions: int
    nodes_per_session: int
    zipf: float | None
    max_sessions: int
    shards: int
    predict_every: int
    rate: float
    closed_events_per_s: float
    open_share: float
    batch_size: int = 64
    passes: int = 4
    sweeps: int = 2  # read sweeps per pass
    builds: int = 6  # timed setup builds per pass


WORKLOADS = {
    "train-hdfs": TrainSpec(
        "HDFS", 400, 0.25, "gru", 6, f1_floor=0.6, deploy_sessions=80, round_s=3.0
    ),
    "train-gowalla": TrainSpec(
        "Gowalla", 160, 1.0, "sum", 4, f1_floor=0.4, deploy_sessions=10, round_s=4.0
    ),
    "serve-engine": ServeSpec(
        sessions=2000, nodes_per_session=12, zipf=None, max_sessions=4096, shards=0,
        predict_every=10, rate=1000.0, closed_events_per_s=1200, open_share=0.35,
    ),
    "serve-cluster": ServeSpec(
        sessions=20000, nodes_per_session=12, zipf=1.1, max_sessions=1024, shards=2,
        predict_every=50, rate=2000.0, closed_events_per_s=1600, open_share=0.8,
    ),
}

#: Test-size variants (``--tiny``): the same code paths in about a second.
TINY = {
    "train-hdfs": TrainSpec(
        "HDFS", 40, 0.25, "gru", 1, f1_floor=0.0, deploy_sessions=2, round_s=1.0
    ),
    "train-gowalla": TrainSpec(
        "Gowalla", 12, 0.3, "sum", 1, f1_floor=0.0, deploy_sessions=1, round_s=1.0
    ),
    "serve-engine": ServeSpec(
        sessions=40, nodes_per_session=6, zipf=None, max_sessions=64, shards=0,
        predict_every=10, rate=2000.0, closed_events_per_s=1000, open_share=0.3,
        passes=2, sweeps=1, builds=2,
    ),
    "serve-cluster": ServeSpec(
        sessions=400, nodes_per_session=6, zipf=1.1, max_sessions=16, shards=2,
        predict_every=10, rate=1000.0, closed_events_per_s=1000, open_share=0.3,
        batch_size=16, passes=2, sweeps=1, builds=2,
    ),
}


@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: dict[str, float]
    diagnostics: dict[str, float]
    measured: dict[str, float]  # per-layer values no span can see
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)  # failed checks
    errors: list[str] = field(default_factory=list)  # first errors of failed operations


def run(spec, seed: int, seconds: float, tracer, workdir: Path) -> Outcome:
    """Run the workload ``spec`` describes (see :data:`WORKLOADS`)."""
    if isinstance(spec, TrainSpec):
        return run_train(spec, seed, seconds, tracer, workdir)
    if spec.shards:
        return run_serve_cluster(spec, seed, seconds, tracer, workdir)
    return run_serve_engine(spec, seed, seconds, tracer, workdir)


def _latency_metrics(ingest, predict) -> dict[str, float]:
    # The tail reported is the highest percentile with ten samples beyond
    # it: p99 for ingest (>= 1000 events), p90 for predict (>= 100 reads).
    return {
        "ingest_ms_p50": percentile_ms(ingest, 50),
        "ingest_ms_p99": percentile_ms(ingest, 99),
        "predict_ms_p50": percentile_ms(predict, 50),
        "predict_ms_p90": percentile_ms(predict, 90),
    }


def _tail_diagnostics(ingest, predict) -> dict[str, float]:
    return {
        "ingest_samples": len(ingest),
        "predict_samples": len(predict),
        "ingest_ms_p90": percentile_ms(ingest, 90),
    }


# ----------------------------------------------------------------------
# Paper pipeline
# ----------------------------------------------------------------------
@dataclass
class _Round:
    setup_s: float
    pipeline_s: float
    train_rate: float
    eval_rate: float
    f1: float
    losses: list[float]
    ingest: list[float]  # per deployed event
    predict: list[float]  # per test graph
    bundle_mb: float
    evaluated: int
    attempted: int
    failed: int
    problems: list[str]


def run_train(spec: TrainSpec, seed: int, seconds: float, tracer, workdir: Path) -> Outcome:
    registry = telemetry.get_registry()
    hits0 = registry.counter("propagation/megaplan_cache_hits").value
    misses0 = registry.counter("propagation/megaplan_cache_misses").value
    count = max(spec.min_rounds, int(seconds / spec.round_s))
    rounds = [
        _train_round(spec, seed, tracer, workdir / f"bundle-{index}") for index in range(count)
    ]
    problems = [problem for r in rounds for problem in r.problems]
    first = rounds[0]
    for index, r in enumerate(rounds[1:], start=1):
        if r.losses != first.losses or r.f1 != first.f1:
            problems.append(f"round {index} differs from round 0 (losses or test F1)")
    ingest = best_of([r.ingest for r in rounds])
    predict = best_of([r.predict for r in rounds])
    hits = registry.counter("propagation/megaplan_cache_hits").value - hits0
    misses = registry.counter("propagation/megaplan_cache_misses").value - misses0
    return Outcome(
        metrics={
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "throughput_per_s": max(r.train_rate for r in rounds),
            "eval_graphs_per_s": max(r.eval_rate for r in rounds),
            **_latency_metrics(ingest, predict),
        },
        diagnostics={
            "rounds": len(rounds),
            "pipeline_s": statistics.median(r.pipeline_s for r in rounds),
            "test_f1": first.f1,
            "final_loss": first.losses[-1],
            **_tail_diagnostics(ingest, predict),
        },
        measured={
            "graph.io.bundle_mb": first.bundle_mb,
            "graph.megaplan.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "evaluated_graphs": sum(r.evaluated for r in rounds),
        },
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
        problems=problems,
    )


def _train_round(spec: TrainSpec, seed: int, tracer, bundle: Path) -> _Round:
    problems: list[str] = []
    round_start = perf_counter()
    with tracer.phase("setup"):
        with tracer.span("data.generate"):
            dataset = make_dataset(
                spec.dataset, spec.num_graphs, seed=DATA_SEED, scale=spec.scale
            )
        with tracer.span("graph.io.save"):
            save_dataset(dataset, bundle)
        with tracer.span("graph.io.load"):
            loaded = load_dataset(bundle)
        train, test = loaded.split(spec.train_fraction)
        with tracer.span("setup.build"):
            model = TPGNN(
                in_features=loaded.feature_dim,
                updater=spec.updater,
                hidden_size=spec.hidden_size,
                time_dim=spec.time_dim,
                seed=seed,
            )
        setup_s = perf_counter() - round_start
    bundle_mb = sum(path.stat().st_size for path in bundle.iterdir()) / 1e6
    with tracer.phase("train"):
        config = TrainConfig(
            epochs=spec.epochs,
            learning_rate=spec.learning_rate,
            batch_size=spec.batch_size,
            seed=seed,
        )
        started = perf_counter()
        with tracer.span("training.train"):
            result = train_model(model, train, config)
        train_s = perf_counter() - started
    with tracer.phase("evaluate"):
        started = perf_counter()
        with tracer.span("training.evaluate"):
            scores = evaluate(model, test)
        eval_s = perf_counter() - started
    pipeline_s = perf_counter() - round_start
    if result.nonfinite_batches:
        problems.append(f"{result.nonfinite_batches} minibatch(es) had non-finite gradients")
    if not all(math.isfinite(loss) for loss in result.losses):
        problems.append("non-finite epoch loss")
    if not scores.f1 >= spec.f1_floor:
        problems.append(f"test F1 {scores.f1:.4f} below the floor {spec.f1_floor}")

    graphs = [test[index] for index in range(len(test))]
    failed = 0
    predict: list[float] = []
    with tracer.phase("predict"):
        model.eval()
        for graph in graphs:
            started = perf_counter()
            probability = model.predict_proba(graph)
            predict.append(perf_counter() - started)
            if not 0.0 <= probability <= 1.0:
                failed += 1
    ingest, deploy_problems, deploy_ops = _deploy(model, graphs[: spec.deploy_sessions], tracer)
    problems += deploy_problems
    shutil.rmtree(bundle, ignore_errors=True)
    return _Round(
        setup_s=setup_s,
        pipeline_s=pipeline_s,
        train_rate=len(train) * spec.epochs / train_s,
        eval_rate=len(test) / eval_s,
        f1=scores.f1,
        losses=list(result.losses),
        ingest=ingest,
        predict=predict,
        bundle_mb=bundle_mb,
        evaluated=len(test),
        attempted=len(train) * spec.epochs + len(test) + len(predict) + deploy_ops,
        failed=failed,
        problems=problems,
    )


def _deploy(model: TPGNN, graphs: list, tracer) -> tuple[list[float], list[str], int]:
    """Stream test sessions into the trained model behind a lone engine.

    Returns per-event ingest latencies, failed checks and the operation
    count.  The check is the serving contract: the streaming engine's
    exact read equals the batch model's score for the same graph.
    """
    problems: list[str] = []
    latencies: list[float] = []
    operations = 0
    with tracer.phase("deploy"):
        engine = StreamingEngine(model, max_sessions=max(1, len(graphs)))
        for index, graph in enumerate(graphs):
            session_id = f"test-{index}"
            for event in session_events(graph, session_id=session_id):
                with tracer.request("event"):
                    started = perf_counter()
                    applied = engine.ingest(event)
                    latencies.append(perf_counter() - started)
                operations += 1
                if applied != 1:
                    problems.append(f"{session_id}: event not applied")
            streamed = engine.predict(session_id, mode="exact")
            batch = model.predict_proba(graph)
            operations += 1
            if not abs(streamed - batch) <= 1e-8:
                problems.append(
                    f"{session_id}: streaming exact read {streamed!r} != batch {batch!r}"
                )
    return latencies, problems, operations


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def serve_model(seed: int) -> TPGNN:
    """The served model: SUM updater at the load generator's default widths."""
    model = TPGNN(
        in_features=FEATURE_DIM,
        updater="sum",
        hidden_size=16,
        gru_hidden_size=16,
        time_dim=4,
        seed=seed,
    )
    model.eval()
    return model


@dataclass
class _Pass:
    closed: LoopStats
    live: list[str]
    sweeps: list[list[float]]  # per sweep: seconds per live session, in ``live`` order
    opened: LoopStats

    @property
    def attempted(self) -> int:
        return self.closed.attempted + self.opened.attempted + len(self.sweeps) * len(self.live)


def _timed_builds(build, count: int, tracer) -> tuple[list, list[float]]:
    """Build ``count`` times; returns the builds and each build's seconds."""
    builds, times = [], []
    with tracer.phase("setup"):
        for index in range(count):
            with tracer.span("setup.build"):
                started = perf_counter()
                builds.append(build(index))
                times.append(perf_counter() - started)
    return builds, times


def _serve_pass(spec: ServeSpec, ingest, predict, live_sessions, closed_events, open_events,
                tracer, before_open=None) -> tuple[_Pass, int]:
    """Closed loop, read sweeps and open loop against one fresh engine or cluster."""
    with tracer.phase("closed"):
        closed = closed_loop(closed_events, ingest, predict, spec.predict_every, tracer)
    with tracer.phase("sweep"):
        live = live_sessions()
        sweeps, failed = [], 0
        for _ in range(spec.sweeps):
            times = []
            for session_id in live:
                with tracer.request("predict"):
                    started = perf_counter()
                    try:
                        probability = predict(session_id)
                    except KeyError:
                        probability = float("nan")
                    times.append(perf_counter() - started)
                if not 0.0 <= probability <= 1.0:
                    failed += 1
            sweeps.append(times)
    if before_open is not None:
        before_open()
    with tracer.phase("open"):
        opened = open_loop(open_events, spec.rate, ingest, predict, spec.predict_every, tracer)
    return _Pass(closed, live, sweeps, opened), failed


def _combine(passes: list[_Pass], setup_times: list[float],
             problems: list[str]) -> tuple[dict, dict]:
    """End-to-end metrics and diagnostics from identical passes (best per item)."""
    if any(p.live != passes[0].live for p in passes[1:]):
        problems.append("passes ended with different live sessions (non-deterministic)")
    chunks = best_of([p.closed.chunks for p in passes])
    sweep = best_of([times for p in passes for times in p.sweeps])
    ingest = best_of([p.opened.ingest for p in passes])
    predict = best_of([p.opened.predict for p in passes])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": passes[0].closed.events / float(chunks.sum()),
        "eval_graphs_per_s": len(sweep) / float(sweep.sum()),
        **_latency_metrics(ingest, predict),
    }
    diagnostics = {
        "passes": len(passes),
        "closed_events": passes[0].closed.events,
        "closed_predicts": passes[0].closed.predicts,
        "open_events": passes[0].opened.events,
        "open_predicts": passes[0].opened.predicts,
        "live_sessions": len(passes[0].live),
        **_tail_diagnostics(ingest, predict),
    }
    return metrics, diagnostics


def _bytes_per_record(registry: MetricRegistry) -> float:
    appends = registry.counter("journal/appends").value
    return registry.counter("journal/bytes_written").value / appends if appends else 0.0


def _sizes(spec: ServeSpec, feed: SessionFeed, seconds: float) -> tuple[list, list]:
    closed = max(1, int(spec.closed_events_per_s * seconds / spec.passes))
    opened = max(1, int(spec.rate * spec.open_share * seconds / spec.passes))
    return feed.take(closed), feed.take(opened)


def recovery_problems(crashed, recovered, report, expected_replayed: int) -> list[str]:
    """Failed checks of the recovered == never-crashed contract."""
    problems = []
    if report.gaps:
        problems.append(f"recovery reported {len(report.gaps)} journal gap(s)")
    if report.events_replayed != expected_replayed:
        problems.append(
            f"recovery replayed {report.events_replayed} events, expected {expected_replayed}"
        )
    if recovered.live_sessions() != crashed.live_sessions():
        problems.append("recovered engine holds different sessions (or LRU order)")
    elif recovered.predict_many() != crashed.predict_many():
        problems.append("recovered predictions differ from the crashed engine's")
    return problems


def run_serve_engine(spec: ServeSpec, seed: int, seconds: float, tracer, workdir: Path) -> Outcome:
    feed = SessionFeed(seed, spec.sessions, spec.nodes_per_session, zipf=spec.zipf)
    closed_events, open_events = _sizes(spec, feed, seconds)
    registry = MetricRegistry()
    checkpoint = workdir / "engine.ckpt.npz"
    setup_times: list[float] = []
    passes: list[_Pass] = []
    problems: list[str] = []
    failed = 0
    anchor, checkpoint_s = 0, 0.0
    for index in range(spec.passes):
        last = index == spec.passes - 1

        def build(build_index, index=index):
            model = serve_model(seed)
            journal = Journal(
                workdir / f"journal-{index}-{build_index}", fsync="interval", registry=registry
            )
            return StreamingEngine(model, max_sessions=spec.max_sessions, journal=journal)

        builds, times = _timed_builds(build, spec.builds, tracer)
        setup_times += times
        *spares, engine = builds
        for spare in spares:
            spare.journal.close()
            shutil.rmtree(spare.journal.directory, ignore_errors=True)

        def take_checkpoint(engine=engine):
            nonlocal anchor, checkpoint_s
            with tracer.phase("checkpoint"):
                started = perf_counter()
                with tracer.span("serve.checkpoint"):
                    engine.checkpoint(checkpoint)
                    anchor = engine.journal.last_seq
                    engine.journal.truncate_upto(anchor)
                checkpoint_s = perf_counter() - started

        served, sweep_failed = _serve_pass(
            spec, engine.ingest, engine.predict, engine.live_sessions, closed_events,
            open_events, tracer, before_open=take_checkpoint if last else None,
        )
        passes.append(served)
        failed += served.closed.failed + served.opened.failed + sweep_failed
        if engine.metrics.sessions_evicted:
            problems.append(f"{engine.metrics.sessions_evicted} session(s) evicted (none expected)")
        if not last:
            engine.journal.close()
            shutil.rmtree(engine.journal.directory, ignore_errors=True)
    # Crash: the last engine is abandoned as is, its journal handle open.
    journal = engine.journal
    with tracer.phase("recover"):
        started = perf_counter()
        with tracer.span("serve.recovery"):
            recovered, report = recover_engine(
                journal.directory, serve_model(seed), checkpoint=checkpoint
            )
        recover_s = perf_counter() - started
    problems += recovery_problems(engine, recovered, report, journal.last_seq - anchor)
    journal.close()
    metrics, diagnostics = _combine(passes, setup_times, problems)
    return Outcome(
        metrics=metrics,
        diagnostics={
            **diagnostics,
            "checkpoint_s": checkpoint_s,
            "recover_s": recover_s,
            "recover_events": report.events_replayed,
            "recover_events_per_s": report.events_replayed / recover_s,
        },
        measured={
            "serve.router.evictions": engine.metrics.sessions_evicted,
            "resilience.journal.bytes_per_record": _bytes_per_record(registry),
            **lag_metrics([p.opened for p in passes]),
        },
        attempted=sum(p.attempted for p in passes),
        failed=failed,
        problems=problems,
        errors=[error for p in passes for error in p.closed.errors + p.opened.errors],
    )


def _cluster_problems(cluster: ShardedCluster, submitted: int) -> tuple[list[str], int]:
    """Accounting checks of one closed cluster; also returns its evictions."""
    stats = cluster.stats()
    shards = stats["shards"]
    shed = stats["cluster"]["events_shed"]
    accepted = stats["cluster"]["events_routed"] - shed
    applied = sum(shard["applied"] for shard in shards.values())
    dropped = sum(shard["events_dropped"] for shard in shards.values())
    errors = sum(shard["errors"] for shard in shards.values())
    journaled = 0
    problems = []
    for shard_id in shards:
        scan = scan_journal(cluster.shard_journal_dir(shard_id))
        journaled += scan.last_seq
        if scan.gaps:
            problems.append(f"shard {shard_id} journal has {len(scan.gaps)} gap(s)")
    if submitted != accepted + shed:
        problems.append(f"submitted {submitted} != accepted {accepted} + shed {shed}")
    if accepted != applied + dropped:
        problems.append(f"accepted {accepted} != applied {applied} + dropped {dropped}")
    if journaled != accepted:
        problems.append(f"journals hold {journaled} records, {accepted} events accepted")
    if errors:
        problems.append(f"{errors} shard apply error(s)")
    return problems, sum(shard["sessions_evicted"] for shard in shards.values())


def run_serve_cluster(spec: ServeSpec, seed: int, seconds: float, tracer, workdir: Path) -> Outcome:
    feed = SessionFeed(seed, spec.sessions, spec.nodes_per_session, zipf=spec.zipf)
    closed_events, open_events = _sizes(spec, feed, seconds)
    setup_times: list[float] = []
    passes: list[_Pass] = []
    problems: list[str] = []
    failed = evictions = 0
    bytes_per_record = 0.0
    for index in range(spec.passes):
        # One registry per pass: cluster counters are the pass's own.
        registry = MetricRegistry()

        def build(build_index, index=index, registry=registry):
            return ShardedCluster(
                serve_model(seed),
                n_shards=spec.shards,
                backend="serial",
                registry=registry,
                batch_size=spec.batch_size,
                max_sessions=spec.max_sessions,
                journal_dir=workdir / f"cluster-{index}-{build_index}",
                journal_fsync="interval",
            )

        builds, times = _timed_builds(build, spec.builds, tracer)
        setup_times += times
        *spares, cluster = builds
        for spare in spares:
            spare.close()
            shutil.rmtree(spare.journal_dir, ignore_errors=True)
        served, sweep_failed = _serve_pass(
            spec, cluster.submit, cluster.predict, cluster.live_sessions, closed_events,
            open_events, tracer,
        )
        with tracer.phase("drain"), tracer.span("cluster.barrier"):
            cluster.flush()
        cluster.close()
        pass_problems, evictions = _cluster_problems(
            cluster, served.closed.events + served.opened.events
        )
        problems += pass_problems
        bytes_per_record = _bytes_per_record(registry)
        shutil.rmtree(cluster.journal_dir, ignore_errors=True)
        passes.append(served)
        failed += served.closed.failed + served.opened.failed + sweep_failed
    metrics, diagnostics = _combine(passes, setup_times, problems)
    return Outcome(
        metrics=metrics,
        diagnostics={
            **diagnostics,
            "evictions": evictions,
            "sessions_touched": len(feed.touched),
        },
        measured={
            "serve.router.evictions": evictions,
            "resilience.journal.bytes_per_record": bytes_per_record,
            **lag_metrics([p.opened for p in passes]),
        },
        attempted=sum(p.attempted for p in passes),
        failed=failed,
        problems=problems,
        errors=[error for p in passes for error in p.closed.errors + p.opened.errors],
    )
