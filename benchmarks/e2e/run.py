"""Run one benchmark workload.

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds N --trace 0|1
    python -m benchmarks.e2e.run --workload NAME --seed S [--trace] [--quick]

Prints every metric by name with its unit, then — as the last line —
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
with ``--trace 1`` the per-layer ones (and the spans are written to
``benchmarks/e2e/BENCH_trace_<workload>.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: ``--quick`` shrinks the data tenfold and the loop to this; the numbers
#: only prove the harness runs.
QUICK_SECONDS = 1.5


def parse_args(contract: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[workload["name"] for workload in contract["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else contract["run_seconds"]
    return args


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    args = parse_args(contract, argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes seed dict and set layouts; pin them so two runs of
        # the same code walk the same memory.
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *(argv or sys.argv[1:])],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no program to measure: {source}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, source]
    from benchmarks.e2e import harness

    return harness.run(
        contract, args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )


if __name__ == "__main__":
    sys.exit(main())
