"""The paper's modeled-clock reproductions: scaling, scenarios, reporting.

Wall-clock measurement lives in ``benchmarks/e2e`` (see ``BENCHMARK.json``);
this package holds the Figure-7 / headline scenarios on the paper's cost
model and the plan goldens. The ``rebalance`` figure of
``python -m repro.bench`` stays only until ``benchmarks/e2e`` gains a
mid-run migration workload.
"""

from repro.bench.plans import render_scenario_plans, run_plans
from repro.bench.reporting import (
    format_scenario_table,
    format_speedup_series,
    summarize_wins,
)
from repro.bench.scale import (
    ARTICLE_BYTES,
    DEFAULT_SCALE,
    LARGE_ITEM_BYTES,
    PAPER_SIZES_LARGE_MB,
    PAPER_SIZES_MB,
    SMALL_ITEM_BYTES,
    ScaledSize,
    articles_count_for,
    items_count_for,
    scaled_grid,
    scaled_point,
    store_items_for,
)
from repro.bench.scenarios import (
    CENTRAL_SITE,
    QueryRun,
    Scenario,
    ScenarioResult,
    build_items_scenario,
    build_store_scenario,
    build_xbench_scenario,
)

__all__ = [
    "ARTICLE_BYTES",
    "CENTRAL_SITE",
    "DEFAULT_SCALE",
    "LARGE_ITEM_BYTES",
    "PAPER_SIZES_LARGE_MB",
    "PAPER_SIZES_MB",
    "SMALL_ITEM_BYTES",
    "QueryRun",
    "ScaledSize",
    "Scenario",
    "ScenarioResult",
    "articles_count_for",
    "build_items_scenario",
    "build_store_scenario",
    "build_xbench_scenario",
    "format_scenario_table",
    "format_speedup_series",
    "items_count_for",
    "render_scenario_plans",
    "run_plans",
    "scaled_grid",
    "scaled_point",
    "store_items_for",
    "summarize_wins",
]
