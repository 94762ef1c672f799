"""CLI: ``python -m repro.fuzz --seed N --iterations K``.

Writes the JSON summary to stdout (or ``--output``), a human-readable
digest to stderr, and exits non-zero when the oracle found mismatches —
the contract the CI ``fuzz-smoke`` job relies on. ``--replay`` re-runs a
single spec (as emitted in reproducer files) instead of a whole session.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.reporting import format_kv_table
from repro.fuzz.generator import CaseSpec
from repro.fuzz.runner import (
    ALL_EXECUTION_MODES,
    EXECUTION_MODES,
    run_case,
    run_fuzz,
)


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
    parser.add_argument(
        "--modes",
        default=",".join(EXECUTION_MODES),
        help="comma-separated fragmented execution modes to compare"
        " (subset of %s; default: %%(default)s)"
        % "/".join(ALL_EXECUTION_MODES),
    )
    parser.add_argument(
        "--kill-site",
        action="store_true",
        help="failover oracle: replicate every fragment on a mirror"
        " site, kill one primary's server mid-case, and require the"
        " answers to still converge via the replica (needs a tcp mode)",
    )
    parser.add_argument(
        "--migrate",
        action="store_true",
        help="online-rebalancing oracle: run every case once, fire a"
        " live split/move migration onto a spare site, run it again —"
        " answers must converge on both catalog versions",
    )
    options = parser.parse_args(argv)

    modes = tuple(
        mode.strip() for mode in options.modes.split(",") if mode.strip()
    )
    unknown = [mode for mode in modes if mode not in ALL_EXECUTION_MODES]
    if not modes or unknown:
        parser.error(
            f"--modes must name at least one of"
            f" {', '.join(ALL_EXECUTION_MODES)}"
            + (f" (got {', '.join(unknown)})" if unknown else "")
        )
    if options.kill_site and not any(mode.startswith("tcp") for mode in modes):
        parser.error("--kill-site requires a tcp mode in --modes")
    if options.kill_site and options.migrate:
        parser.error("--kill-site and --migrate are mutually exclusive")

    if options.replay is not None:
        outcome = run_case(
            CaseSpec.from_dict(json.loads(options.replay)),
            modes=modes,
            kill_site=options.kill_site,
            migrate=options.migrate,
        )
        payload = outcome.to_dict()
        ok = outcome.ok
    else:
        payload = run_fuzz(
            options.seed,
            options.iterations,
            minimize=not options.no_minimize,
            repro_dir=None if options.no_repros else options.repro_dir,
            max_failures=options.max_failures,
            modes=modes,
            kill_site=options.kill_site,
            migrate=options.migrate,
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
    if summary.get("migrate"):
        rows.append(("migrations completed", summary["migrations_completed"]))
    rows.append(("failures", len(summary["failures"])))
    title = (
        f"repro.fuzz — seed {summary['seed']},"
        f" {summary['iterations']} iterations,"
        f" modes {'/'.join(summary['execution_modes'])}"
        + (" [kill-site]" if summary.get("kill_site") else "")
        + (" [migrate]" if summary.get("migrate") else "")
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
