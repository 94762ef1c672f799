"""Golden physical plans for the bench query sets.

``python -m repro.bench --figure plans`` renders ``Partix.explain`` for
every query of every paper scenario (horizontal items, vertical XBench,
hybrid store in both FragModes) as the indented cost-annotated tree.
Plans are fully deterministic for a fixed ``--scale`` — collections are
seeded, fragment statistics derive from their serialized bytes, and the
cost model is pure arithmetic — so the rendered text can be diffed
against golden files: ``--update-golden`` (re)writes them,
``--golden-dir`` alone compares and fails on any drift. CI runs the
comparison so every change to the planner, the cost model or the
renderer shows up as a reviewed golden diff.
"""

from __future__ import annotations

import difflib
import os
from typing import Callable, Optional

from repro.bench import scale as scaling
from repro.bench.scenarios import (
    Scenario,
    build_items_scenario,
    build_store_scenario,
    build_xbench_scenario,
)
from repro.partix.publisher import FragMode

#: Golden scenario slugs → builder at a given scale. Ordered; the slug
#: is the golden file's basename.
PLAN_SCENARIOS: dict[str, Callable[[float], Scenario]] = {
    "items-small-4": lambda scale: build_items_scenario(
        "small", paper_mb=100, fragment_count=4, scale=scale
    ),
    "xbench-vertical": lambda scale: build_xbench_scenario(
        paper_mb=100, scale=scale
    ),
    "store-hybrid-mode1": lambda scale: build_store_scenario(
        paper_mb=100, frag_mode=FragMode.INDEPENDENT_DOCUMENTS, scale=scale
    ),
    "store-hybrid-mode2": lambda scale: build_store_scenario(
        paper_mb=100, frag_mode=FragMode.SINGLE_DOCUMENT, scale=scale
    ),
}


def render_scenario_plans(slug: str, scenario: Scenario) -> str:
    """Every query's rendered physical plan, one block per query."""
    blocks = [
        f"# golden plans: {slug} ({scenario.name})",
        f"# fragments={scenario.fragment_count}"
        f" collection={scenario.collection_name}",
    ]
    for query in scenario.queries:
        plan = scenario.partix.explain(
            query.text, scenario.collection_name
        )
        blocks.append("")
        blocks.append(f"== {query.qid}: {query.description}")
        blocks.append(f"query: {query.text}")
        blocks.append(plan.render())
    return "\n".join(blocks) + "\n"


def run_plans(
    scale: float = scaling.DEFAULT_SCALE,
    golden_dir: Optional[str] = None,
    update: bool = False,
) -> dict:
    """Render (and optionally diff or rewrite) the golden plans.

    Returns a JSON-able summary; ``ok`` is False when a comparison found
    drift. Without ``golden_dir`` the rendered plans are printed.
    """
    summary: dict = {
        "figure": "plans",
        "scale": scale,
        "scenarios": list(PLAN_SCENARIOS),
        "drifted": [],
        "ok": True,
    }
    for slug, builder in PLAN_SCENARIOS.items():
        rendered = render_scenario_plans(slug, builder(scale))
        if golden_dir is None:
            print(rendered)
            continue
        path = os.path.join(golden_dir, f"{slug}.txt")
        if update:
            os.makedirs(golden_dir, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print(f"golden plans written: {path}")
            continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                golden = handle.read()
        except FileNotFoundError:
            golden = ""
        if golden != rendered:
            summary["ok"] = False
            summary["drifted"].append(slug)
            diff = difflib.unified_diff(
                golden.splitlines(keepends=True),
                rendered.splitlines(keepends=True),
                fromfile=path,
                tofile=f"{slug} (rendered)",
            )
            print("".join(diff))
        else:
            print(f"golden plans match: {path}")
    return summary
