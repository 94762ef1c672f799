"""Smoke test of the benchmark runner (``pytest benchmarks/e2e -q``).

Outside tier-1's ``testpaths``. Runs every workload in ``--quick`` mode,
untraced and traced, and checks the output against ``BENCHMARK.json``:
every declared metric printed exactly once, finite, with its declared
unit; no failed operation; the trace file parses and its spans cover at
least 95 % of traced query time. Quick-mode numbers mean nothing else.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)$")


def run_quick(workload: str, trace: int) -> tuple[list[str], dict]:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", "11",
            "--quick",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_matches_contract(workload, trace):
    declared = {
        metric["name"]: metric["unit"]
        for metric in CONTRACT["per_layer" if trace else "end_to_end"]
    }
    lines, result = run_quick(workload, trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name], name
        assert math.isfinite(entry["value"]), name

    printed = [METRIC_LINE.match(line) for line in lines]
    printed = [match.groups() for match in printed if match]
    assert sorted(name for name, _, _ in printed) == sorted(declared)
    for name, _, unit in printed:
        assert unit == declared[name], name
    assert any(line.startswith("stamp ") for line in lines)

    if trace:
        assert result["metrics"]["harness.error_share"]["value"] == 0
        with open(
            os.path.join(HERE, f"BENCH_trace_{workload}.json"), encoding="utf-8"
        ) as handle:
            trace_file = json.load(handle)
        assert trace_file["workload"] == workload
        assert trace_file["spans"]
        assert trace_file["span_coverage"] >= 0.95
    else:
        for entry in result["metrics"].values():
            assert entry["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the runner must fail
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "BENCH_*.json"),
    )
    completed = subprocess.run(
        [
            sys.executable,
            "benchmarks/e2e/run.py",
            "--workload", "items_point_inproc",
            "--seed", "1",
            "--seconds", "1",
            "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
