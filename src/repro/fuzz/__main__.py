"""CLI: ``python -m repro.fuzz --seed N --iterations K``.

Writes the JSON summary to stdout (or ``--output``), a human-readable
digest to stderr, and exits non-zero when the oracle found mismatches —
the contract the CI ``fuzz-smoke`` job relies on. Each case runs under
the configuration its spec carries. ``--replay`` re-runs a single spec
(as emitted in reproducer files, configuration included) instead of a
whole session.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.reporting import format_kv_table
from repro.fuzz.generator import CaseSpec, GenerationError
from repro.fuzz.runner import run_case, run_fuzz


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of PartiX: centralized vs"
        " fragmented answers across execution modes.",
    )
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--iterations", type=int, default=50)
    parser.add_argument(
        "--repro-dir",
        default="tests/repros",
        help="where minimized reproducers are written (default: %(default)s)",
    )
    parser.add_argument(
        "--no-minimize",
        action="store_true",
        help="report failures without shrinking them",
    )
    parser.add_argument(
        "--no-repros",
        action="store_true",
        help="do not write reproducer files",
    )
    parser.add_argument(
        "--max-failures",
        type=int,
        default=5,
        help="stop after this many failing cases (default: %(default)s)",
    )
    parser.add_argument(
        "--output",
        default="-",
        help="file for the JSON summary ('-' = stdout, the default)",
    )
    parser.add_argument(
        "--replay",
        metavar="SPEC_JSON",
        help="run one CaseSpec (JSON dict) instead of a fuzz session",
    )
    options = parser.parse_args(argv)

    if options.replay is not None:
        try:
            spec = CaseSpec.from_dict(json.loads(options.replay))
        except GenerationError as error:
            parser.error(f"--replay: {error}")
        outcome = run_case(spec)
        payload = outcome.to_dict()
        ok = outcome.ok
    else:
        payload = run_fuzz(
            options.seed,
            options.iterations,
            minimize=not options.no_minimize,
            repro_dir=None if options.no_repros else options.repro_dir,
            max_failures=options.max_failures,
        )
        ok = payload["ok"]
        _print_digest(payload)

    text = json.dumps(payload, indent=2, sort_keys=True)
    if options.output == "-":
        print(text)
    else:
        with open(options.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"summary written to {options.output}", file=sys.stderr)
    return 0 if ok else 1


def _print_digest(summary: dict) -> None:
    rows = [
        ("cases", summary["cases"]),
        ("queries compared", summary["queries_run"]),
        ("queries skipped (symmetric errors)", summary["queries_skipped"]),
        ("comparisons", summary["comparisons"]),
    ]
    rows.extend(
        (f"family {name}", count)
        for name, count in sorted(summary["families"].items())
    )
    rows.extend(
        (f"configuration {name}", count)
        for name, count in sorted(summary["configurations"].items())
    )
    rows.extend(
        (f"composition {kind}", count)
        for kind, count in sorted(summary["composition_kinds"].items())
    )
    rows.extend(
        (f"fetch projection {kind}", count)
        for kind, count in sorted(summary["fetch_projections"].items())
    )
    rows.extend(
        (f"index oracle {name}", count)
        for name, count in sorted(summary["index_oracle"].items())
    )
    rows.append(("fragments pruned by value summary", summary["summary_pruned"]))
    rows.append(("vertical semi-join plans", summary["semijoin_plans"]))
    rows.append(("whole-design vertical fetches", summary["whole_design_fetches"]))
    rows.append(("answers on a deep chain", summary["deep_chain_plans"]))
    hybrid = summary["hybrid_plans"]
    rows.append(
        (
            "hybrid plans units / remainder / reconstruct",
            f"{hybrid['units']} / {hybrid['remainder']} / {hybrid['reconstruct']}",
        )
    )
    forms = summary["reply_forms"]
    rows.append(
        ("tcp lanes inline / chunked", f"{forms['inline']} / {forms['chunked']}")
    )
    rows.extend(
        (f"accessor step shape {name}", count)
        for name, count in summary["step_shapes"].items()
    )
    rows.append(("migrations completed", summary["migrations_completed"]))
    rows.append(("failures", len(summary["failures"])))
    title = (
        f"repro.fuzz — seed {summary['seed']},"
        f" {summary['iterations']} iterations"
    )
    print(format_kv_table(title, rows), file=sys.stderr)
    for failure in summary["failures"]:
        spec = failure.get("minimized", failure)["spec"]
        kinds = sorted({m["kind"] for m in failure["mismatches"]})
        line = (
            f"FAILURE at iteration {failure['iteration']}:"
            f" kinds={','.join(kinds)} minimized-spec={json.dumps(spec)}"
        )
        if "repro_path" in failure:
            line += f" repro={failure['repro_path']}"
        print(line, file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
