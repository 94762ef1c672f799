"""Command-line entry point: regenerate a paper figure.

Usage::

    python -m repro.bench --figure 7a --scale 0.01
    python -m repro.bench --figure 7c
    python -m repro.bench --figure 7d --transmission
    python -m repro.bench --figure headline
    python -m repro.bench --figure plans --golden-dir tests/golden/plans
    python -m repro.bench --figure plans --golden-dir tests/golden/plans --update-golden

``7a``–``7d`` and ``headline`` print the same per-query tables the
benchmark suite asserts on, timed on the paper's *modeled* clock (slowest
site + estimated transfer). The ``plans`` figure renders every bench
query's cost-annotated physical plan (``Partix.explain``) and diffs it
against the golden files; with ``--update-golden`` it rewrites them
instead.

Wall-clock measurement is not done here: ``benchmarks/e2e/run.py`` is the
repo's one wall-clock harness.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.plans import run_plans
from repro.bench.reporting import (
    format_scenario_table,
    format_speedup_series,
)
from repro.bench.scale import DEFAULT_SCALE
from repro.bench.scenarios import (
    build_items_scenario,
    build_store_scenario,
    build_xbench_scenario,
)
from repro.partix.publisher import FragMode


def run_figure_7a(scale: float, repetitions: int, transmission: bool) -> None:
    for count in (2, 4, 8):
        scenario = build_items_scenario(
            "small", paper_mb=100, fragment_count=count, scale=scale
        )
        print(format_scenario_table(scenario.run(repetitions), transmission))
        print()


def run_figure_7b(scale: float, repetitions: int, transmission: bool) -> None:
    for count in (2, 4, 8):
        scenario = build_items_scenario(
            "large", paper_mb=100, fragment_count=count, scale=scale
        )
        print(format_scenario_table(scenario.run(repetitions), transmission))
        print()


def run_figure_7c(scale: float, repetitions: int, transmission: bool) -> None:
    scenario = build_xbench_scenario(paper_mb=100, scale=scale)
    print(format_scenario_table(scenario.run(repetitions), transmission))


def run_figure_7d(scale: float, repetitions: int, transmission: bool) -> None:
    for mode in (FragMode.INDEPENDENT_DOCUMENTS, FragMode.SINGLE_DOCUMENT):
        scenario = build_store_scenario(
            paper_mb=100, frag_mode=mode, scale=scale
        )
        print(format_scenario_table(scenario.run(repetitions), transmission))
        print()


def run_headline(scale: float, repetitions: int, transmission: bool) -> None:
    results = []
    for count in (2, 4, 8):
        scenario = build_items_scenario(
            "small", paper_mb=250, fragment_count=count, scale=scale
        )
        results.append(scenario.run(repetitions))
    print(format_speedup_series(results, "Q8", transmission))
    best = max(r.run_by_id("Q8").speedup for r in results)
    print(f"\nbest Q8 speedup: {best:.1f}x (paper reports up to 72x)")


FIGURES = {
    "7a": run_figure_7a,
    "7b": run_figure_7b,
    "7c": run_figure_7c,
    "7d": run_figure_7d,
    "headline": run_headline,
    # "plans" is dispatched specially in main(): it takes the golden-file
    # flags instead of repetitions/transmission.
    "plans": run_plans,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate a figure of the PartiX evaluation.",
    )
    parser.add_argument(
        "--figure", choices=sorted(FIGURES), required=True,
        help="which paper artefact to regenerate",
    )
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE,
        help=f"fraction of the paper's database sizes (default {DEFAULT_SCALE:g})",
    )
    parser.add_argument(
        "--repetitions", type=int, default=2,
        help="timed repetitions per query (first run is always discarded)",
    )
    parser.add_argument(
        "--transmission", action="store_true",
        help="include estimated transmission times (the paper's -T series)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the figure's JSON summary here (figures that emit one)",
    )
    parser.add_argument(
        "--golden-dir", metavar="DIR", default=None,
        help="--figure plans: directory of golden plan files to diff against",
    )
    parser.add_argument(
        "--update-golden", action="store_true",
        help="--figure plans: rewrite the golden files instead of diffing",
    )
    args = parser.parse_args(argv)
    exit_code = 0
    if args.figure == "plans":
        payload = run_plans(
            scale=args.scale,
            golden_dir=args.golden_dir,
            update=args.update_golden,
        )
        if not payload["ok"]:
            print(
                "golden plans drifted: "
                + ", ".join(payload["drifted"])
                + " (re-run with --update-golden to accept)",
                file=sys.stderr,
            )
            exit_code = 1
    else:
        if args.golden_dir is not None or args.update_golden:
            parser.error("--golden-dir/--update-golden require --figure plans")
        payload = FIGURES[args.figure](
            args.scale, args.repetitions, args.transmission
        )
    if args.json is not None:
        if payload is None:
            parser.error(f"--figure {args.figure} does not emit a JSON summary")
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"JSON summary written to {args.json}", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
