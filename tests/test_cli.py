"""Tests for the ``python -m repro.bench`` command-line entry point."""

import pytest

from repro.bench.__main__ import FIGURES, main

REMAINING_FIGURES = ("7a", "7b", "7c", "7d", "headline", "plans")
#: Wall-clock figures retired in favour of ``benchmarks/e2e`` workloads,
#: ``parallel``, which went with the intra-site shard pipeline, and
#: ``rebalance``, which went with the workload advisor.
REMOVED_FIGURES = (
    "modes", "transport", "streaming", "serving", "pushdown", "parallel",
    "rebalance",
)


class TestCli:
    def test_figures_registry(self):
        assert set(FIGURES) == set(REMAINING_FIGURES)

    @pytest.mark.parametrize("figure", REMAINING_FIGURES)
    def test_every_remaining_figure_runs_at_tiny_scale(self, figure, capsys):
        exit_code = main(
            ["--figure", figure, "--scale", "0.0005", "--repetitions", "1"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert output.strip()
        assert "DIFF" not in output

    @pytest.mark.parametrize("figure", REMOVED_FIGURES)
    def test_removed_figures_are_rejected(self, figure, capsys):
        # Their measurements live in benchmarks/e2e now.
        with pytest.raises(SystemExit):
            main(["--figure", figure])
        assert "invalid choice" in capsys.readouterr().err

    def test_shard_flags_are_rejected_by_every_entry_point(self, capsys):
        # The flags went with the shard pipeline: one parallelism knob,
        # the fragmentation design.
        from repro.coordinate.__main__ import main as coordinate_main
        from repro.fuzz.__main__ import main as fuzz_main
        from repro.net.server import main as serve_main

        for entry, argv in (
            (fuzz_main, ["--iterations", "1", "--shards"]),
            (serve_main, ["--site", "s0", "--shard-workers", "2"]),
            (coordinate_main, ["--shard-workers", "2"]),
        ):
            with pytest.raises(SystemExit):
                entry(argv)
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_plans_figure_prints_explain_trees(self, capsys):
        exit_code = main(["--figure", "plans", "--scale", "0.0005"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "PhysicalPlan" in output
        assert "compose [concat]" in output
        assert "semi-join keys:" in output
        assert "merge-aggregate" in output

    def test_plans_golden_update_then_match_then_drift(self, capsys, tmp_path):
        golden = tmp_path / "plans"
        assert main(
            [
                "--figure", "plans", "--scale", "0.0005",
                "--golden-dir", str(golden), "--update-golden",
            ]
        ) == 0
        assert main(
            [
                "--figure", "plans", "--scale", "0.0005",
                "--golden-dir", str(golden),
            ]
        ) == 0
        assert "golden plans match" in capsys.readouterr().out
        # Corrupt one golden: the comparison must fail with a diff.
        victim = next(golden.glob("*.txt"))
        victim.write_text(victim.read_text() + "drift\n", encoding="utf-8")
        assert main(
            [
                "--figure", "plans", "--scale", "0.0005",
                "--golden-dir", str(golden),
            ]
        ) == 1
        assert "-drift" in capsys.readouterr().out

    def test_golden_flags_require_plans_figure(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "--figure", "7c",
                    "--scale", "0.0005",
                    "--golden-dir", str(tmp_path),
                ]
            )

    def test_runs_a_tiny_figure(self, capsys):
        exit_code = main(
            ["--figure", "7c", "--scale", "0.0005", "--repetitions", "1"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "XBenchVer" in output
        assert "Q10" in output

    def test_transmission_flag(self, capsys):
        main(
            [
                "--figure", "7c",
                "--scale", "0.0005",
                "--repetitions", "1",
                "--transmission",
            ]
        )
        assert "with transmission" in capsys.readouterr().out

    def test_json_flag_rejected_for_figures_without_payload(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "--figure", "7c",
                    "--scale", "0.0005",
                    "--repetitions", "1",
                    "--json", str(tmp_path / "nope.json"),
                ]
            )

    def test_requires_figure(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["--figure", "9z"])
