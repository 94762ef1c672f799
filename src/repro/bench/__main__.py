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
repo's one wall-clock harness. Two figures outside the modeled world
remain, ``parallel`` (shard-degree sweep) and ``rebalance`` (advised
migration under traffic), and they stay **only** until a benchmark-only
change ports a shard-parallel scan and a mid-run migration into
``benchmarks/e2e`` as workloads.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.plans import run_plans
from repro.bench.rebalance import run_rebalance
from repro.bench.reporting import (
    format_kv_table,
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


#: Degrees compared by the ``parallel`` figure; 1 is the serial baseline.
PARALLEL_DEGREES = (1, 2, 4)

#: Worker pool size given to every site in the ``parallel`` figure.
PARALLEL_SHARD_WORKERS = 4

#: The ``parallel`` figure multiplies the requested ``--scale`` so the
#: large documents grow past the point where per-shard pool startup
#: amortizes. At the bench default (1/100) the documents are so small
#: that the degree chooser would rightly keep every lane serial — and
#: then there is nothing to measure.
PARALLEL_SCALE_BOOST = 26


def run_parallel(scale: float, repetitions: int, transmission: bool) -> dict:
    """Serial vs sharded intra-site evaluation on the large-document split.

    Every ItemsLHor query runs with the per-lane shard degree forced to
    each of :data:`PARALLEL_DEGREES` against the same repository, in
    threads mode (real worker pools evaluating candidate slices in
    separate processes). Answers must be byte-identical at every degree.
    Timing uses the suite's standard measure — ``parallel_seconds``, the
    slowest lane's elapsed time on the paper's cost model, where a
    sharded lane's per-document access overhead accrues concurrently
    across its shards — with the real measured wall seconds reported
    alongside. The JSON summary records both per degree plus the modeled
    speedup of the highest degree over forced-serial; the CI
    ``parallel-smoke`` job asserts the large-document scenario actually
    gets faster.
    """
    scenario = build_items_scenario(
        "large",
        paper_mb=10,
        fragment_count=2,
        scale=scale * PARALLEL_SCALE_BOOST,
        shard_workers=PARALLEL_SHARD_WORKERS,
    )
    partix = scenario.partix
    rounds = max(1, repetitions)
    modeled = {degree: 0.0 for degree in PARALLEL_DEGREES}
    wall = {degree: 0.0 for degree in PARALLEL_DEGREES}
    queries = []
    byte_identical = True
    for query in scenario.queries:
        texts = {}
        per_degree = {}
        for degree in PARALLEL_DEGREES:
            runs = [
                partix.execute(
                    query.text,
                    collection=scenario.collection_name,
                    execution_mode="threads",
                    shard_degree=degree,
                )
                for _ in range(rounds + 1)
            ][1:]  # first round is warm-up
            texts[degree] = runs[-1].result_text
            best_modeled = min(run.parallel_seconds for run in runs)
            best_wall = min(
                run.round.measured_wall_seconds for run in runs
            )
            per_degree[degree] = (best_modeled, best_wall)
            modeled[degree] += best_modeled
            wall[degree] += best_wall
        identical = len(set(texts.values())) == 1
        byte_identical = byte_identical and identical
        queries.append(
            {
                "qid": query.qid,
                "byte_identical": identical,
                "parallel_seconds": {
                    str(degree): per_degree[degree][0]
                    for degree in PARALLEL_DEGREES
                },
                "measured_wall_seconds": {
                    str(degree): per_degree[degree][1]
                    for degree in PARALLEL_DEGREES
                },
            }
        )
    partix.close()  # the rounds are over: end their lane threads

    top = PARALLEL_DEGREES[-1]
    speedup = modeled[1] / modeled[top] if modeled[top] > 0 else 0.0
    rows: list[tuple[str, object]] = [
        (
            f"degree {degree}",
            f"{modeled[degree]:.3f} s modeled"
            f" / {wall[degree]:.3f} s wall",
        )
        for degree in PARALLEL_DEGREES
    ]
    rows.append((f"speedup at degree {top}", f"{speedup:.2f}x"))
    rows.append(("answers byte-identical", byte_identical))
    print(
        format_kv_table(
            f"{scenario.name} — intra-site sharding"
            f" ({PARALLEL_SHARD_WORKERS} workers/site, threads mode)",
            rows,
        )
    )
    return {
        "figure": "parallel",
        "scenario": scenario.name,
        "mode": "threads",
        "shard_workers": PARALLEL_SHARD_WORKERS,
        "degrees": list(PARALLEL_DEGREES),
        "repetitions": rounds,
        "byte_identical": byte_identical,
        "parallel_seconds": {
            str(degree): modeled[degree] for degree in PARALLEL_DEGREES
        },
        "measured_wall_seconds": {
            str(degree): wall[degree] for degree in PARALLEL_DEGREES
        },
        "speedup": speedup,
        "queries": queries,
    }


FIGURES = {
    "7a": run_figure_7a,
    "7b": run_figure_7b,
    "7c": run_figure_7c,
    "7d": run_figure_7d,
    "headline": run_headline,
    "parallel": run_parallel,
    "rebalance": run_rebalance,
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
