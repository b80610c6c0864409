"""Command line: ``python -m bench run|compare`` (see README.md)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench.spec import load_benchmark, workload_names


def main(argv: list[str] | None = None) -> int:
    benchmark = load_benchmark()
    names = workload_names(benchmark)
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads, print their metrics")
    run.add_argument("--workload", choices=names, help="one workload (default: all four)")
    run.add_argument("--seed", type=int, default=0, help="workload seed (inputs derive from it)")
    run.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"]),
        help="measured seconds per workload",
    )
    run.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: trace the layers and report per-layer metrics instead",
    )
    run.add_argument("--tiny", action="store_true", help="test-size inputs (bench/tests)")

    compare = commands.add_parser("compare", help="compare two sets of recorded runs")
    compare.add_argument("a", help="baseline: a history file or a git-sha prefix")
    compare.add_argument("b", help="candidate: a history file or a git-sha prefix")

    child = commands.add_parser("_child", help="internal: run one workload in-process")
    child.add_argument("--workload", choices=names, required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), required=True)
    child.add_argument("--workdir", type=Path, required=True)
    child.add_argument("--tiny", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "compare":
        from bench.compare import compare as compare_runs

        print(compare_runs(args.a, args.b, benchmark))
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    from bench import harness

    if args.command == "_child":
        result = harness.child(
            args.workload, args.seed, args.seconds, bool(args.trace), args.workdir, args.tiny
        )
        (args.workdir / "result.json").write_text(json.dumps(result))
        return 0
    status = 0
    for workload in [args.workload] if args.workload else names:
        status = max(
            status,
            harness.run_workload(workload, args.seed, args.seconds, bool(args.trace), args.tiny),
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
