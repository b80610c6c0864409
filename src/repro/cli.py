"""Command-line interface for the reproduction experiments.

Usage::

    python -m repro.cli table1  --preset smoke
    python -m repro.cli table2  --preset small --datasets Forum-java HDFS
    python -m repro.cli table3  --preset smoke
    python -m repro.cli fig3    --preset smoke          # ablation, SUM
    python -m repro.cli fig4    --preset smoke          # ablation, GRU
    python -m repro.cli fig5    --preset smoke          # sensitivity
    python -m repro.cli fig6    --preset smoke          # runtime vs F1
    python -m repro.cli fig7    --preset smoke          # case study
    python -m repro.cli bench   --table 2 --jobs 8      # parallel cached sweep
    python -m repro.cli train   --dataset HDFS --model TP-GNN-SUM
    python -m repro.cli serve   --dataset Forum-java --num-graphs 40
    python -m repro.cli profile --dataset HDFS --epochs 1
    python -m repro.cli loadtest --shards 4 --sessions 1000 --events 20000
    python -m repro.cli chaos   --quick
    python -m repro.cli drift   --policy fine-tune
    python -m repro.cli serve   --journal wal/ --save-state state.npz
    python -m repro.cli recover --journal wal/ --checkpoint state.npz

Every experiment command prints the same text tables/figures the
benchmarks emit, at the chosen preset (override individual knobs with
the flags below).  ``bench`` regenerates Table II/III through the
parallel, fault-tolerant trial runner with an on-disk cache under
``results/cache/`` — a warm re-run executes zero trials, and killed or
failed trials resume from their last epoch checkpoint.  ``serve``
replays a dataset as a live timestamped event feed through the
streaming inference engine and emits one JSON line per session
prediction.  ``profile`` trains under the telemetry subsystem (span
tracer + op-level autograd profiler) and prints a text flame report
plus a top-k op table; ``bench --profile`` does the same per trial and
aggregates op timings across the sweep (see OBSERVABILITY.md).
``loadtest`` drives a seeded synthetic feed through the sharded
serving cluster, compares sustained events/sec against a lone
streaming engine over the identical feed, and records p50/p95/p99
ingest/predict latency to ``BENCH_serve.json``.  ``drift`` runs the
seeded concept-drift scenario suite through the continual-learning
path (prequential test-then-train + drift detection + adaptation) and
records the detection-delay / recovery-AUC table to
``BENCH_drift.json``.  ``serve --journal`` writes every accepted event
to a segmented CRC-checked write-ahead journal before applying it, and
``recover`` rebuilds the serving state after a crash from the last
checkpoint plus the journal tail, reporting any torn or corrupt
records it had to skip (exit status 1 when the replay had gaps).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import sys

from repro.baselines.registry import ALL_MODELS, PLUS_G_MODELS, make_model
from repro.data.registry import DATASET_NAMES
from repro.experiments import (
    PRESETS,
    format_ablation,
    format_case_study,
    format_runtime,
    format_sensitivity,
    format_table1,
    format_table2,
    format_table3,
    run_ablation,
    run_case_study,
    run_runtime,
    run_sensitivity,
    run_table2,
    run_table3,
    snapshot_size_for,
)
from repro.training import TrainConfig, evaluate, train_model


class _HelpFormatter(
    argparse.ArgumentDefaultsHelpFormatter, argparse.RawDescriptionHelpFormatter
):
    """Show argument defaults while keeping the docstring layout."""


def _package_version() -> str:
    """Installed distribution version, falling back to the source tree."""
    try:
        return importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:
        from repro import __version__

        return __version__


def _config_from_args(args) -> "ExperimentConfig":
    config = PRESETS[args.preset]
    overrides = {}
    for field in ("num_graphs", "epochs", "runs", "hidden_size", "time_dim", "seed"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "scale", None) is not None:
        overrides["graph_scale"] = args.scale
    return config.with_overrides(**overrides) if overrides else config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS), default="smoke",
                        help="experiment scale")
    parser.add_argument("--num-graphs", dest="num_graphs", type=int,
                        help="override the preset's graphs per dataset")
    parser.add_argument("--scale", type=float,
                        help="override the preset's graph-size multiplier")
    parser.add_argument("--epochs", type=int,
                        help="override the preset's training epochs")
    parser.add_argument("--runs", type=int,
                        help="override the preset's repeated runs")
    parser.add_argument("--hidden-size", dest="hidden_size", type=int,
                        help="override the preset's hidden size d")
    parser.add_argument("--time-dim", dest="time_dim", type=int,
                        help="override the preset's time encoding size d_t")
    parser.add_argument("--seed", type=int,
                        help="override the preset's base random seed")


def _progress(*parts) -> None:
    print("  " + " ".join(str(p) for p in parts[:-1]), flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__, formatter_class=_HelpFormatter
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, formatter_class=_HelpFormatter)

    for name in ("table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7"):
        cmd = add_command(name, f"regenerate {name}")
        _add_common(cmd)
        if name in ("table2", "table3", "fig3", "fig4", "fig6"):
            cmd.add_argument("--datasets", nargs="+", choices=DATASET_NAMES)

    bench = add_command(
        "bench",
        "regenerate Table II/III through the parallel, cached trial runner",
    )
    _add_common(bench)
    bench.add_argument("--table", type=int, choices=(2, 3), default=2,
                       help="which table's (model x dataset) grid to run")
    bench.add_argument("--datasets", nargs="+", choices=DATASET_NAMES,
                       help="restrict to these datasets")
    bench.add_argument("--models", nargs="+", choices=ALL_MODELS + PLUS_G_MODELS,
                       help="restrict to these models")
    bench.add_argument("--jobs", type=int,
                       help="concurrent trial workers (default: CPU count)")
    bench.add_argument("--retries", type=int, default=1,
                       help="extra attempts per trial after a failure")
    bench.add_argument("--trial-timeout", dest="trial_timeout", type=float,
                       help="per-trial wall-clock budget in seconds")
    bench.add_argument("--cache-dir", dest="cache_dir", default=None,
                       help="trial cache directory (default: results/cache)")
    bench.add_argument("--no-cache", dest="no_cache", action="store_true",
                       help="run every cell even if cached")
    bench.add_argument("--clear-cache", dest="clear_cache", action="store_true",
                       help="delete cached trials before running")
    bench.add_argument("--profile", action="store_true",
                       help="attribute per-op time in every trial and print a "
                            "sweep-wide top-ops table")
    bench.add_argument("--top", type=int, default=10,
                       help="rows in the --profile top-ops table")

    train = add_command("train", "train one model on one dataset")
    _add_common(train)
    train.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    train.add_argument("--model", choices=ALL_MODELS + PLUS_G_MODELS, required=True)
    train.add_argument("--checkpoint", help="save the trained model to this .npz path")

    serve = add_command(
        "serve", "replay a dataset as a live event feed through the streaming engine"
    )
    serve.add_argument("--dataset", choices=DATASET_NAMES, default="Forum-java")
    serve.add_argument("--num-graphs", dest="num_graphs", type=int, default=40,
                       help="sessions to generate and replay")
    serve.add_argument("--scale", type=float, default=1.0,
                       help="dataset size multiplier passed to the generator")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--updater", choices=("sum", "gru"), default="sum")
    serve.add_argument("--hidden-size", dest="hidden_size", type=int, default=32)
    serve.add_argument("--time-dim", dest="time_dim", type=int, default=6)
    serve.add_argument("--train-epochs", dest="train_epochs", type=int, default=0,
                       help="warm-up training epochs on a 30%% split before serving "
                            "(0 serves the untrained model)")
    serve.add_argument("--checkpoint", help="load model weights from this .npz first")
    serve.add_argument("--mode", choices=("online", "exact"), default="online",
                       help="read path: O(1) online state or exact batch-equivalent")
    serve.add_argument("--max-sessions", dest="max_sessions", type=int, default=1024,
                       help="LRU capacity of the session table")
    serve.add_argument("--out-of-order", dest="out_of_order",
                       choices=("drop", "raise", "buffer"), default="drop",
                       help="policy for events older than their session's last event")
    serve.add_argument("--watermark-delay", dest="watermark_delay", type=float,
                       default=0.0, help="buffer window for --out-of-order buffer")
    serve.add_argument("--spread", type=float, default=0.0,
                       help="random per-session start-time window, interleaving arrivals")
    serve.add_argument("--rolling", type=int, default=0, metavar="N",
                       help="also emit a prediction every N events per session (0 = final only)")
    serve.add_argument("--output", default="-",
                       help="JSONL destination ('-' = stdout)")
    serve.add_argument("--save-state", dest="save_state",
                       help="write a serving-state checkpoint here after the replay")
    serve.add_argument("--journal", metavar="DIR",
                       help="append every accepted event to a write-ahead "
                            "journal in this directory (see 'repro recover')")
    serve.add_argument("--journal-fsync", dest="journal_fsync",
                       choices=("always", "interval", "off"), default="interval",
                       help="journal durability policy: fsync per record, on "
                            "a short timer, or only at rotation/close")

    profile = add_command(
        "profile",
        "train under the telemetry subsystem; print a span flame report "
        "and a top-k op table",
    )
    _add_common(profile)
    profile.add_argument("--dataset", choices=DATASET_NAMES, default="HDFS")
    profile.add_argument("--model", choices=ALL_MODELS + PLUS_G_MODELS,
                         default="TP-GNN-SUM")
    profile.add_argument("--engine", choices=("wave", "per-edge", "mega"),
                         default=None,
                         help="execution path to profile: 'wave'/'per-edge' "
                              "force the per-graph engines (mega-batching "
                              "off), 'mega' the cross-graph mega-batched "
                              "trainer (default: the model's own defaults, "
                              "i.e. mega-batched waves where supported)")
    profile.add_argument("--top", type=int, default=10,
                         help="rows in the top-ops table")
    profile.add_argument("--no-ops", dest="no_ops", action="store_true",
                         help="skip op-level profiling (spans and metrics only)")
    profile.add_argument("--jsonl",
                         help="also write every telemetry row (spans, ops, "
                              "metrics) to this JSONL file")

    loadtest = add_command(
        "loadtest",
        "drive a seeded load through the sharded serving cluster and "
        "record the latency/throughput SLO report to BENCH_serve.json",
    )
    loadtest.add_argument("--sessions", type=int, default=1000,
                          help="distinct sessions in the synthetic feed")
    loadtest.add_argument("--events", type=int, default=20000,
                          help="total events in the feed")
    loadtest.add_argument("--shards", type=int, default=4,
                          help="initial shard count")
    loadtest.add_argument("--backend", choices=("serial", "thread"),
                          default="thread",
                          help="shard drain backend")
    loadtest.add_argument("--updater", choices=("sum", "gru"), default="sum",
                          help="propagation updater of the served model")
    loadtest.add_argument("--rate", type=float, default=0.0,
                          help="target offered load in events/sec "
                               "(0 = as fast as possible)")
    loadtest.add_argument("--predict-every", type=int, default=500,
                          help="predict round-trip every N events (0 = never)")
    loadtest.add_argument("--rebalance-at", type=float, default=0.0,
                          help="feed fraction (0-1) at which to add a shard "
                               "and rebalance live (0 = no topology change)")
    loadtest.add_argument("--seed", type=int, default=0,
                          help="seed for the model and the feed")
    loadtest.add_argument("--nodes-per-session", type=int, default=12)
    loadtest.add_argument("--feature-dim", type=int, default=4)
    loadtest.add_argument("--hidden-size", type=int, default=16)
    loadtest.add_argument("--time-dim", type=int, default=4)
    loadtest.add_argument("--queue-capacity", type=int, default=4096,
                          help="per-shard ingest queue bound")
    loadtest.add_argument("--backpressure", choices=("block", "shed", "raise"),
                          default="block",
                          help="per-shard queue overflow policy")
    loadtest.add_argument("--batch-size", type=int, default=64,
                          help="drain micro-batch size")
    loadtest.add_argument("--no-baseline", dest="no_baseline",
                          action="store_true",
                          help="skip the single-engine comparison phase")
    loadtest.add_argument("--journal", metavar="DIR",
                          help="give every shard a write-ahead journal under "
                               "this directory (measures journaled ingest)")
    loadtest.add_argument("--journal-fsync", dest="journal_fsync",
                          choices=("always", "interval", "off"),
                          default="interval",
                          help="journal durability policy when --journal is set")
    loadtest.add_argument("--output", default="BENCH_serve.json",
                          help="where to record the JSON report")

    dataset = add_command(
        "dataset",
        "generate a dataset into a columnar on-disk bundle, or inspect one",
    )
    dataset.add_argument("--generate", choices=DATASET_NAMES,
                         help="dataset to generate and save as a bundle")
    dataset.add_argument("--load", metavar="PATH",
                         help="stream an existing bundle and print its statistics")
    dataset.add_argument("--output", default=None, metavar="DIR",
                         help="bundle directory for --generate "
                              "(default: datasets/<name>)")
    dataset.add_argument("--num-graphs", dest="num_graphs", type=int, default=1000,
                         help="graphs to generate")
    dataset.add_argument("--scale", type=float, default=0.25,
                         help="per-graph size multiplier relative to Table I")
    dataset.add_argument("--seed", type=int, default=0)
    dataset.add_argument("--chunk-size", dest="chunk_size", type=int, default=1024,
                         help="graphs per chunk when streaming with --load")
    dataset.add_argument("--no-mmap", dest="no_mmap", action="store_true",
                         help="read bundle columns eagerly instead of memory-mapping")

    drift = add_command(
        "drift",
        "run the concept-drift scenario suite (detection + adaptation) and "
        "record the detection-delay / recovery-AUC report to BENCH_drift.json",
    )
    from repro.online.drift import DETECTOR_NAMES
    from repro.online.policies import POLICY_NAMES
    from repro.online.scenarios import SCENARIO_NAMES

    drift.add_argument("--scenarios", nargs="+", choices=SCENARIO_NAMES,
                       help="run only these scenarios (default: all)")
    drift.add_argument("--detector", choices=DETECTOR_NAMES,
                       default="page-hinkley",
                       help="sequential test on the prequential loss")
    drift.add_argument("--policy", choices=POLICY_NAMES, default="fine-tune",
                       help="adaptation policy on a confirmed alarm")
    drift.add_argument("--sessions", type=int, default=240,
                       help="sessions per scenario stream")
    drift.add_argument("--pretrain", type=int, default=60,
                       help="stream head trained offline before streaming")
    drift.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int,
                       default=4, help="offline warm-up epochs")
    drift.add_argument("--window", type=int, default=30,
                       help="AUC window (examples) for pre/post/recovered")
    drift.add_argument("--update-every", dest="update_every", type=int, default=2,
                       help="prequential examples between update rounds "
                            "(0 = detection only, no online updates)")
    drift.add_argument("--buffer", type=int, default=96,
                       help="replay-buffer capacity (sessions)")
    drift.add_argument("--seed", type=int, default=0,
                       help="seed for the stream, the model and sampling")
    drift.add_argument("--output", default="BENCH_drift.json",
                       help="where to record the JSON report ('' = don't)")

    chaos = add_command(
        "chaos",
        "run the fault-injection scenario suite and print a survival report",
    )
    chaos.add_argument("--quick", action="store_true",
                       help="in-process scenarios only (skips the ones that "
                            "spawn worker processes)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="seed for every fault plan and corruption helper")
    chaos.add_argument("--scenarios", nargs="+", metavar="NAME",
                       help="run only these scenarios (see --list)")
    chaos.add_argument("--list", dest="list_scenarios", action="store_true",
                       help="list scenarios and exit")

    recover = add_command(
        "recover",
        "rebuild serving state from a checkpoint plus the write-ahead "
        "journal tail, and print the recovery report",
    )
    recover.add_argument("--journal", required=True, metavar="DIR",
                         help="journal directory written by 'repro serve --journal'")
    recover.add_argument("--checkpoint", metavar="NPZ",
                         help="serving-state checkpoint to anchor the replay "
                              "(default: replay the whole journal into a "
                              "fresh engine)")
    recover.add_argument("--updater", choices=("sum", "gru"), default="sum",
                         help="model architecture (must match the journaled run)")
    recover.add_argument("--feature-dim", dest="feature_dim", type=int, default=4)
    recover.add_argument("--hidden-size", dest="hidden_size", type=int, default=32)
    recover.add_argument("--time-dim", dest="time_dim", type=int, default=6)
    recover.add_argument("--seed", type=int, default=0)
    recover.add_argument("--out-of-order", dest="out_of_order",
                         choices=("drop", "raise", "buffer"), default="drop",
                         help="engine policy when recovering without a checkpoint")
    recover.add_argument("--strict", action="store_true",
                         help="fail instead of skipping quarantined corrupt "
                              "journal records")
    recover.add_argument("--allow-version-mismatch", dest="allow_version_mismatch",
                         action="store_true",
                         help="load a checkpoint written by a different code "
                              "version anyway")
    recover.add_argument("--save-state", dest="save_state", metavar="NPZ",
                         help="write the recovered serving state here")
    return parser


def _run_bench(args) -> int:
    from repro.experiments import (
        DEFAULT_CACHE_DIR,
        TrialCache,
        aggregate_telemetry,
        failed_trials,
        format_duration,
        run_table_parallel,
    )

    config = _config_from_args(args)
    if args.table == 2:
        datasets = tuple(args.datasets) if args.datasets else DATASET_NAMES
        models = tuple(args.models) if args.models else ALL_MODELS
        formatter = format_table2
    else:
        from repro.experiments import TABLE3_DATASETS, TABLE3_MODELS

        datasets = tuple(args.datasets) if args.datasets else TABLE3_DATASETS
        models = tuple(args.models) if args.models else TABLE3_MODELS
        formatter = format_table3

    cache = None
    if not args.no_cache:
        cache = TrialCache(args.cache_dir or DEFAULT_CACHE_DIR)
        if args.clear_cache:
            removed = cache.clear()
            print(f"cleared {removed} cached trial(s) from {cache.root}",
                  file=sys.stderr)

    def report(event) -> None:
        eta = format_duration(event.eta_seconds) if event.eta_seconds is not None else "?"
        print(
            f"  [{event.done}/{event.total}] "
            f"completed={event.completed} cached={event.cached} "
            f"failed={event.failed} running={event.running} "
            f"eta={eta}  {event.message}",
            file=sys.stderr,
            flush=True,
        )

    table, results = run_table_parallel(
        config,
        datasets=datasets,
        models=models,
        cache=cache,
        jobs=args.jobs,
        retries=args.retries,
        trial_timeout=args.trial_timeout,
        progress=report,
        profile=args.profile,
    )
    print(formatter(table))
    counts = {
        status: sum(1 for r in results if r.status == status)
        for status in ("completed", "cached", "failed")
    }
    print(
        f"\n{counts['completed']} trial(s) executed, {counts['cached']} served "
        f"from cache" + (f" ({cache.root})" if cache is not None else "")
        + f", {counts['failed']} failed",
    )
    if args.profile:
        from repro.telemetry import aggregate_op_rows, render_op_rows

        groups = aggregate_telemetry(results, kind="op")
        if groups:
            print()
            print(render_op_rows(aggregate_op_rows(groups), k=args.top))
        else:
            print("\n(no op telemetry collected — all cells cached without "
                  "profiled telemetry?)", file=sys.stderr)
    failures = failed_trials(results)
    for failure in failures:
        last_line = failure.error.strip().splitlines()[-1] if failure.error else "?"
        print(
            f"FAILED {failure.spec.cell()} after {failure.attempts} attempt(s), "
            f"{format_duration(failure.seconds)} wall: {last_line}",
            file=sys.stderr,
        )
    if failures:
        print(
            "re-running `repro bench` retries failed cells and resumes "
            "interrupted trials from their last checkpoint",
            file=sys.stderr,
        )
    return 1 if failures else 0


def _run_train(args) -> None:
    from repro.experiments.runner import build_dataset

    config = _config_from_args(args)
    dataset = build_dataset(args.dataset, config)
    train_data, test_data = dataset.split(config.train_fraction)
    model = make_model(
        args.model,
        in_features=dataset.feature_dim,
        seed=config.seed,
        hidden_size=config.hidden_size,
        time_dim=config.time_dim,
        snapshot_size=snapshot_size_for(args.dataset),
    )
    print(f"training {args.model} on {args.dataset} "
          f"({len(train_data)} train / {len(test_data)} test graphs)")
    result = train_model(model, train_data, config.train_config())
    metrics = evaluate(model, test_data)
    print(f"loss {result.losses[0]:.3f} -> {result.losses[-1]:.3f} "
          f"({result.train_seconds:.1f}s)")
    print(f"F1={100 * metrics.f1:.2f} precision={100 * metrics.precision:.2f} "
          f"recall={100 * metrics.recall:.2f}")
    if args.checkpoint:
        from repro.nn import save_checkpoint

        path = save_checkpoint(model, args.checkpoint, metadata={"f1": metrics.f1})
        print(f"checkpoint written to {path}")


def _run_serve(args) -> None:
    import numpy as np

    from repro.core import TPGNN
    from repro.data import make_dataset
    from repro.serve import StreamingEngine, dataset_to_feed
    from repro.training import TrainConfig, train_model

    dataset = make_dataset(
        args.dataset, num_graphs=args.num_graphs, seed=args.seed, scale=args.scale
    )
    model = TPGNN(
        in_features=dataset.feature_dim,
        updater=args.updater,
        hidden_size=args.hidden_size,
        time_dim=args.time_dim,
        seed=args.seed,
    )
    if args.checkpoint:
        from repro.nn import load_checkpoint

        load_checkpoint(model, args.checkpoint)
        print(f"loaded model weights from {args.checkpoint}", file=sys.stderr)
    elif args.train_epochs > 0:
        train_data, _ = dataset.split(0.3)
        print(
            f"warm-up: training {args.train_epochs} epochs on "
            f"{len(train_data)} sessions",
            file=sys.stderr,
        )
        train_model(model, train_data, TrainConfig(epochs=args.train_epochs, seed=args.seed))
    model.eval()

    sink = sys.stdout if args.output == "-" else open(args.output, "w")
    emitted = 0

    def emit(record: dict) -> None:
        nonlocal emitted
        print(json.dumps(record), file=sink, flush=sink is sys.stdout)
        emitted += 1

    def session_record(
        session_id, state, engine, final: bool, evicted: bool = False,
        probability: float | None = None,
    ) -> dict:
        if probability is None:
            probability = engine.classifier.predict_proba(state, mode=args.mode)
            engine.metrics.predictions_served += 1
        record = {
            "session_id": session_id,
            "events": state.num_events,
            "nodes": state.num_nodes,
            "probability": round(probability, 6),
            "prediction": int(probability >= 0.5),
            "mode": args.mode,
            "final": final,
        }
        if state.label is not None:
            record["label"] = state.label
        if evicted:
            record["evicted"] = True
        return record

    journal = None
    if args.journal:
        from repro.resilience import Journal

        journal = Journal(args.journal, fsync=args.journal_fsync)
        print(
            f"journaling accepted events to {args.journal} "
            f"(fsync={args.journal_fsync})",
            file=sys.stderr,
        )
    engine = StreamingEngine(
        model,
        max_sessions=args.max_sessions,
        out_of_order=args.out_of_order,
        watermark_delay=args.watermark_delay,
        on_evict=lambda sid, state: emit(
            session_record(sid, state, engine, final=True, evicted=True)
        ),
        journal=journal,
    )

    rng = np.random.default_rng(args.seed) if args.spread > 0 else None
    feed = dataset_to_feed(dataset, rng=rng, spread=args.spread)
    print(
        f"replaying {len(feed)} events from {len(dataset)} {args.dataset} sessions",
        file=sys.stderr,
    )
    last_emitted: dict[str, int] = {}
    for event in feed:
        applied = engine.ingest(event)
        if args.rolling and applied:
            # Compare against the last emission point, not num_events
            # modulo N: under the buffer policy one ingest can apply
            # several events and jump past the exact multiple.
            state = engine.session(event.session_id)
            if (state is not None
                    and state.num_events - last_emitted.get(event.session_id, 0)
                    >= args.rolling):
                last_emitted[event.session_id] = state.num_events
                emit(session_record(event.session_id, state, engine, final=False))
    engine.flush()

    if args.mode == "online":
        # Micro-batched read path: one matmul over all live sessions.
        probabilities = engine.predict_many()
        for session_id, probability in probabilities.items():
            state = engine.session(session_id)
            emit(session_record(session_id, state, engine, final=True,
                                probability=probability))
    else:
        for session_id in engine.live_sessions():
            emit(session_record(session_id, engine.session(session_id), engine, final=True))

    if args.save_state:
        path = engine.checkpoint(args.save_state)
        print(f"serving state written to {path}", file=sys.stderr)
    if journal is not None:
        stats = journal.stats()
        journal.close()
        print(
            f"journal: seq {stats['last_seq']} across {stats['segments']} "
            f"segment(s), {stats['bytes']} bytes on disk",
            file=sys.stderr,
        )
    print(engine.metrics.render(), file=sys.stderr)
    print(f"{emitted} JSONL records emitted", file=sys.stderr)
    if sink is not sys.stdout:
        sink.close()


def _run_profile(args) -> None:
    from repro import telemetry
    from repro.experiments.runner import build_dataset

    config = _config_from_args(args)
    dataset = build_dataset(args.dataset, config)
    train_data, _ = dataset.split(config.train_fraction)
    model = make_model(
        args.model,
        in_features=dataset.feature_dim,
        seed=config.seed,
        hidden_size=config.hidden_size,
        time_dim=config.time_dim,
        snapshot_size=snapshot_size_for(args.dataset),
    )
    from dataclasses import replace

    engine = getattr(args, "engine", None)
    train_config = config.train_config()
    if engine == "mega":
        if not getattr(model, "SUPPORTS_MEGABATCH", False):
            print(f"--engine mega ignored: {args.model} has no mega-batched "
                  "path; profiling the per-graph loop",
                  file=sys.stderr)
        train_config = replace(train_config, megabatch=True)
    elif engine is not None:
        # Attribute the per-graph engines in isolation: the mega path
        # would otherwise fold whole minibatches into one plan.
        train_config = replace(train_config, megabatch=False)
        propagation = getattr(model, "propagation", None)
        if propagation is None or not hasattr(propagation, "engine"):
            print(f"--engine ignored: {args.model} has no propagation engine",
                  file=sys.stderr)
        else:
            propagation.engine = engine
    print(
        f"profiling {args.model} on {args.dataset} "
        f"({len(train_data)} train graphs, {config.epochs} epoch(s))",
        file=sys.stderr,
    )
    with telemetry.capture(profile=not args.no_ops) as cap:
        result = train_model(model, train_data, train_config)
    print(f"loss {result.losses[0]:.3f} -> {result.losses[-1]:.3f} "
          f"({result.train_seconds:.2f}s)")
    print()
    print(cap.flame())
    if not args.no_ops:
        print()
        print(cap.top_ops(args.top))
        op_total = cap.profiler.total_seconds
        wall = cap.tracer.total_seconds
        if wall > 0:
            print(f"\nop time {op_total:.3f}s of {wall:.3f}s traced wall "
                  f"({100 * op_total / wall:.0f}%)")
    if args.jsonl:
        with open(args.jsonl, "w") as stream:
            count = cap.write_jsonl(stream)
        print(f"{count} telemetry rows written to {args.jsonl}", file=sys.stderr)


def _run_loadtest(args) -> int:
    from repro.cluster import LoadtestConfig, run_loadtest, write_bench

    config = LoadtestConfig(
        sessions=args.sessions,
        events=args.events,
        shards=args.shards,
        backend=args.backend,
        updater=args.updater,
        rate=args.rate,
        predict_every=args.predict_every,
        rebalance_at=args.rebalance_at,
        seed=args.seed,
        nodes_per_session=args.nodes_per_session,
        feature_dim=args.feature_dim,
        hidden_size=args.hidden_size,
        gru_hidden_size=args.hidden_size,
        time_dim=args.time_dim,
        queue_capacity=args.queue_capacity,
        backpressure=args.backpressure,
        batch_size=args.batch_size,
        baseline=not args.no_baseline,
        journal_dir=args.journal,
        journal_fsync=args.journal_fsync,
    )
    report = run_loadtest(
        config, log=lambda message: print(message, file=sys.stderr)
    )
    print(report.render())
    path = write_bench(report, args.output)
    print(f"report recorded to {path}", file=sys.stderr)
    return 0


def _run_recover(args) -> int:
    from repro.core import TPGNN
    from repro.resilience.errors import CheckpointVersionError, IntegrityError
    from repro.serve import recover_engine

    model = TPGNN(
        in_features=args.feature_dim,
        updater=args.updater,
        hidden_size=args.hidden_size,
        time_dim=args.time_dim,
        seed=args.seed,
    )
    model.eval()
    try:
        engine, report = recover_engine(
            args.journal,
            model,
            checkpoint=args.checkpoint,
            engine_config={"out_of_order": args.out_of_order},
            strict=args.strict,
            allow_version_mismatch=args.allow_version_mismatch,
        )
    except CheckpointVersionError as error:
        print(f"recover: {error}", file=sys.stderr)
        return 2
    except IntegrityError as error:
        print(f"recover: {error}", file=sys.stderr)
        return 1
    print(report.render())
    print(f"{len(engine.live_sessions())} live sessions recovered")
    if args.save_state:
        path = engine.checkpoint(args.save_state)
        print(f"recovered serving state written to {path}", file=sys.stderr)
    return 1 if report.gaps else 0


def _run_dataset(args) -> int:
    from repro.data.registry import make_dataset
    from repro.graph.io import iter_dataset_chunks, save_dataset

    if bool(args.generate) == bool(args.load):
        print("dataset: pass exactly one of --generate or --load", file=sys.stderr)
        return 2
    if args.generate:
        dataset = make_dataset(
            args.generate, args.num_graphs, seed=args.seed, scale=args.scale
        )
        output = args.output or f"datasets/{args.generate}"
        path = save_dataset(dataset, output)
        stats = dataset.statistics()
        print(
            f"saved {stats.graph_count} graphs "
            f"(avg {stats.avg_nodes:.1f} nodes / {stats.avg_edges:.1f} edges, "
            f"~{100.0 * stats.negative_ratio:.1f}% negative) to {path}"
        )
        return 0
    graphs = nodes = edges = negatives = chunks = 0
    for chunk in iter_dataset_chunks(
        args.load, args.chunk_size, mmap=not args.no_mmap
    ):
        chunks += 1
        graphs += len(chunk)
        nodes += sum(g.num_nodes for g in chunk)
        edges += sum(g.num_edges for g in chunk)
        negatives += int((chunk.labels == 0).sum())
    print(
        f"{args.load}: {graphs} graphs in {chunks} chunk(s), "
        f"avg {nodes / graphs:.1f} nodes / {edges / graphs:.1f} edges, "
        f"~{100.0 * negatives / graphs:.1f}% negative"
    )
    return 0


def _run_drift(args) -> int:
    from repro.online import render_drift_report, run_drift_suite

    outcomes = run_drift_suite(
        names=args.scenarios,
        seed=args.seed,
        detector=args.detector,
        policy=args.policy,
        sessions=args.sessions,
        pretrain=args.pretrain,
        pretrain_epochs=args.pretrain_epochs,
        window=args.window,
        update_every=args.update_every,
        replay_buffer=args.buffer,
    )
    print(render_drift_report(outcomes))
    if args.output:
        payload = {
            "suite": "drift",
            "seed": args.seed,
            "detector": args.detector,
            "policy": args.policy,
            "outcomes": [outcome.to_dict() for outcome in outcomes],
        }
        with open(args.output, "w") as stream:
            json.dump(payload, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"report recorded to {args.output}", file=sys.stderr)
    missed = [
        o.scenario
        for o in outcomes
        if o.drift_index is not None and o.detection_delay is None
    ]
    false_alarms = sum(o.false_alarms for o in outcomes)
    return 1 if missed or false_alarms else 0


def _run_chaos(args) -> int:
    from repro.resilience.chaos import (
        render_report,
        run_scenarios,
        scenario_description,
        scenario_names,
    )

    if args.list_scenarios:
        quick_set = set(scenario_names(quick=True))
        for name in scenario_names():
            tag = "" if name in quick_set else "  [full only]"
            print(f"  {name:<22} {scenario_description(name)}{tag}")
        return 0
    results = run_scenarios(
        names=args.scenarios, quick=args.quick, seed=args.seed
    )
    print(render_report(results))
    return 0 if all(result.survived for result in results) else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = (
        _config_from_args(args)
        if args.command
        not in ("bench", "train", "serve", "profile", "chaos", "loadtest",
                "dataset", "drift", "recover")
        else None
    )

    if args.command == "table1":
        print(format_table1(config))
    elif args.command == "table2":
        datasets = tuple(args.datasets) if args.datasets else DATASET_NAMES
        results = run_table2(config, datasets=datasets, progress=_progress)
        print(format_table2(results))
    elif args.command == "table3":
        kwargs = {"datasets": tuple(args.datasets)} if args.datasets else {}
        print(format_table3(run_table3(config, progress=_progress, **kwargs)))
    elif args.command in ("fig3", "fig4"):
        updater = "sum" if args.command == "fig3" else "gru"
        kwargs = {"datasets": tuple(args.datasets)} if args.datasets else {}
        results = run_ablation(config, updater=updater, progress=_progress, **kwargs)
        print(format_ablation(results, updater=updater))
    elif args.command == "fig5":
        print(format_sensitivity(run_sensitivity(config)))
    elif args.command == "fig6":
        kwargs = {"datasets": tuple(args.datasets)} if args.datasets else {}
        print(format_runtime(run_runtime(config, **kwargs)))
    elif args.command == "fig7":
        print(format_case_study(run_case_study(config)))
    elif args.command == "bench":
        return _run_bench(args)
    elif args.command == "train":
        _run_train(args)
    elif args.command == "serve":
        _run_serve(args)
    elif args.command == "profile":
        _run_profile(args)
    elif args.command == "loadtest":
        return _run_loadtest(args)
    elif args.command == "chaos":
        return _run_chaos(args)
    elif args.command == "drift":
        return _run_drift(args)
    elif args.command == "dataset":
        return _run_dataset(args)
    elif args.command == "recover":
        return _run_recover(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
