"""A/A check: does the benchmark agree with itself?

    python3 benchmarks/e2e/aa_check.py [--runs 5] [--seconds 16] [--workload NAME ...]

Runs every workload ``--runs`` times in each of two interleaved sets
(A, B, A, B, ...) of the *same* checkout, each run with another seed,
and prints per workload and end-to-end metric the two medians, their
relative difference in the metric's worse direction, each set's spread
(interquartile range over median, as the driver computes it) and the
bound from ``BENCHMARK.json``. Exits non-zero when a difference exceeds
its bound, or a spread (``setup_s`` excepted) does.

With ``--raw`` each run is followed by a traced run of the same seed,
and the spread of its ``harness.cal_*`` figures is printed beside that
of the ``harness.raw_*`` ones computed from the very same samples — the
evidence that calibration earns its keep.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

RAW_TWINS = {
    "harness.cal_queries_per_s": "harness.raw_queries_per_s",
    "harness.cal_query_p50_ms": "harness.raw_query_p50_ms",
    "harness.cal_query_p95_ms": "harness.raw_query_p95_ms",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--seed", type=int, default=100, help="first seed")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--raw", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in contract["workloads"]]

    failed = False
    for workload in workloads:
        sets = {"A": [], "B": []}
        raw = []
        for index in range(2 * args.runs):
            label = "AB"[index % 2]
            seed = args.seed + index
            sets[label].append(run_once(workload, seed, args.seconds, 0))
            if args.raw:
                raw.append(run_once(workload, seed, args.seconds, 1))
            print(
                f"# {workload} {label}{index // 2} seed {seed} "
                + json.dumps(sets[label][-1]),
                flush=True,
            )
        print(f"\n{workload}: {args.runs} runs per set, {args.seconds} s each")
        print(
            f"  {'metric':<24}{'median A':>12}{'median B':>12}{'worse by':>10}"
            f"{'spread A':>10}{'spread B':>10}{'bound':>8}"
        )
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run[name] for run in sets["A"]]
            b = [run[name] for run in sets["B"]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = (spread(a), spread(b))
            gated_spreads = () if name == "setup_s" else spreads
            verdict = ""
            if worse > bound:
                verdict = "  DIFFERENCE > bound"
            elif max(gated_spreads, default=0.0) > bound:
                verdict = "  SPREAD > bound"
            elif max((abs(worse), *gated_spreads)) > bound / 2:
                verdict = "  (over half the bound)"
            failed = failed or verdict.endswith("> bound")
            print(
                f"  {name:<24}{median_a:>12.5g}{median_b:>12.5g}{worse:>+10.2%}"
                f"{spreads[0]:>10.2%}{spreads[1]:>10.2%}{bound:>8.0%}{verdict}"
            )
        if args.raw:
            print("  spread of calibrated vs raw figures, same samples:")
            for name, twin in RAW_TWINS.items():
                print(
                    f"    {name:<28}{spread([run[name] for run in raw]):>8.2%}"
                    f"    {twin:<28}{spread([run[twin] for run in raw]):>8.2%}"
                )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
