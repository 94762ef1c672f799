"""Unit tests for the benchmark harness (scaling, scenarios, reporting)."""

import pytest

from repro.bench import (
    CENTRAL_SITE,
    articles_count_for,
    build_items_scenario,
    build_store_scenario,
    build_xbench_scenario,
    format_scenario_table,
    format_speedup_series,
    items_count_for,
    scaled_grid,
    scaled_point,
    store_items_for,
    summarize_wins,
)
from repro.partix import FragMode

TINY = 1 / 2000  # keep scenario tests fast


class TestScaling:
    def test_scaled_grid_proportions(self):
        grid = scaled_grid(scale=1 / 100)
        assert [point.paper_mb for point in grid] == [5, 20, 100, 250]
        assert grid[0].target_bytes == 50_000
        assert grid[-1].target_bytes == 2_500_000

    def test_large_grid_includes_500(self):
        grid = scaled_grid(large=True)
        assert grid[-1].paper_mb == 500

    def test_scaled_point_label(self):
        point = scaled_point(250, scale=1 / 100)
        assert "250MB" in point.label

    def test_document_counts(self):
        assert items_count_for(1_750_000, "small") == 1000
        assert items_count_for(800_000, "large") == 10
        assert articles_count_for(1_000_000) == 10
        assert store_items_for(175_000) == 100

    def test_minimum_counts(self):
        assert items_count_for(100, "small") >= 4
        assert articles_count_for(100) >= 2
        assert store_items_for(100) >= 8


class TestScenarios:
    @pytest.fixture(scope="class")
    def items_result(self):
        scenario = build_items_scenario(
            "small", paper_mb=5, fragment_count=2, scale=TINY
        )
        return scenario.run(repetitions=1)

    def test_scenario_runs_all_queries(self, items_result):
        assert [run.qid for run in items_result.runs] == [
            f"Q{i}" for i in range(1, 9)
        ]

    def test_results_match_everywhere(self, items_result):
        assert all(run.results_match for run in items_result.runs)

    def test_run_by_id(self, items_result):
        assert items_result.run_by_id("Q8").qid == "Q8"
        with pytest.raises(KeyError):
            items_result.run_by_id("Q99")

    def test_speedup_properties(self, items_result):
        run = items_result.run_by_id("Q8")
        assert run.speedup > 0
        assert run.fragmented_total_seconds >= run.fragmented_seconds

    def test_xbench_scenario_builds(self):
        scenario = build_xbench_scenario(paper_mb=5, scale=TINY)
        assert scenario.fragment_count == 3
        result = scenario.run(repetitions=1)
        assert all(run.results_match for run in result.runs)

    def test_store_scenario_builds_both_modes(self):
        for mode in (FragMode.INDEPENDENT_DOCUMENTS, FragMode.SINGLE_DOCUMENT):
            scenario = build_store_scenario(
                paper_mb=5, frag_mode=mode, scale=TINY
            )
            assert scenario.fragment_count == 5
            result = scenario.run(repetitions=1)
            assert all(run.results_match for run in result.runs), mode

    def test_central_site_exists(self):
        scenario = build_items_scenario(
            "small", paper_mb=5, fragment_count=2, scale=TINY
        )
        assert CENTRAL_SITE in scenario.partix.cluster

    def test_simulated_overhead_flows_into_times(self):
        with_overhead = build_items_scenario(
            "small", paper_mb=5, fragment_count=2, scale=TINY,
            per_document_overhead=0.5,
        ).run(repetitions=1)
        without = build_items_scenario(
            "small", paper_mb=5, fragment_count=2, scale=TINY,
            per_document_overhead=0.0,
        ).run(repetitions=1)
        assert (
            with_overhead.run_by_id("Q8").centralized_seconds
            > without.run_by_id("Q8").centralized_seconds + 0.4
        )


class TestReporting:
    @pytest.fixture(scope="class")
    def result(self):
        return build_items_scenario(
            "small", paper_mb=5, fragment_count=2, scale=TINY
        ).run(repetitions=1)

    def test_table_mentions_every_query(self, result):
        table = format_scenario_table(result)
        for qid in (f"Q{i}" for i in range(1, 9)):
            assert qid in table
        assert "ItemsSHor" in table

    def test_table_with_transmission_flag(self, result):
        assert "with transmission" in format_scenario_table(
            result, transmission=True
        )

    def test_speedup_series(self, result):
        series = format_speedup_series([result], "Q8")
        assert "Q8" in series and "2 fragments" in series

    def test_summarize_wins_counts(self, result):
        summary = summarize_wins(result)
        assert summary["wins"] + summary["losses"] + summary["ties"] == 8
        assert summary["best_query"] is not None
