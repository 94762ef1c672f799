"""Set-up, the timed closed loop, and the metric arithmetic.

One run is: set the workload up (several times, for a steady
``setup_s``), loop passes for ``--seconds`` with calibration points in
the idle gaps, then turn the samples into the metrics ``BENCHMARK.json``
names. A ``--trace 1`` run sets up once and splits its seconds between
an untraced phase (raw wall-clock record, the reference for tracing
overhead), a traced phase (per-layer figures) and the centralized
baseline.

The garbage collector stays at its defaults apart from one
``gc.collect()`` after each warm-up: generation-2 pauses over the
materialized trees are part of what a caller of this system pays.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from benchmarks.e2e.calibrate import REF_NOMINAL_MS, Calibrator, drift_spread
from benchmarks.e2e.tracing import Tracer, layer_metrics
from benchmarks.e2e.workloads import WORKLOADS, Samples, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Set-ups per untraced run; ``setup_s`` and the publish rate are medians.
SETUP_REPEATS = 3
#: Timed work between two calibration points (a point costs ~2 ms).
CALIBRATION_GAP_SECONDS = 0.04
#: Shares of a traced run's seconds: untraced, traced; the rest is baseline.
UNTRACED_SHARE = 0.35
TRACED_SHARE = 0.45
BASELINE_PASSES = 3


class BenchmarkAbort(Exception):
    """The run cannot produce trustworthy numbers; exit non-zero."""


def signature(text: str) -> tuple:
    """Order-insensitive line signature (fragments interleave order)."""
    return tuple(sorted(line for line in text.splitlines() if line.strip()))


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` over this process and the given children."""
    total_kb = 0
    for pid in ["self", *pids]:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class SetupReport:
    setup_seconds: float
    publish_mb_per_s_cal: float


def set_up(workload_class, seed: int, quick: bool) -> tuple[Workload, SetupReport]:
    """Data, publish, baseline, serving, expected answers, one warm-up pass."""
    calibrator = Calibrator()

    def around_publish() -> None:
        for _ in range(5):
            calibrator.point()

    started = time.perf_counter()
    workload = workload_class(seed, quick)
    try:
        workload.build(idle=around_publish)
        for text in dict.fromkeys(workload.texts):
            answer = workload.serial_answer(text)
            if signature(answer) != signature(workload.centralized(text).result_text):
                raise BenchmarkAbort(
                    f"{workload.name}: fragmented and centralized answers"
                    f" differ for {text!r}"
                )
            workload.expected[text] = answer
        warm_up = Samples()
        workload.run_pass(warm_up, lambda: None)
        if set(warm_up.outcomes) != {"ok"}:
            raise BenchmarkAbort(
                f"{workload.name}: warm-up pass failed: {warm_up.failures}"
            )
    except BaseException:
        workload.close()
        raise
    gc.collect()
    setup_seconds = time.perf_counter() - started
    publish_cal = workload.publish_seconds * calibrator.scale(
        workload.publish_at + workload.publish_seconds / 2.0
    )
    return workload, SetupReport(
        setup_seconds=setup_seconds,
        publish_mb_per_s_cal=workload.source_bytes / 1e6 / publish_cal,
    )


# ----------------------------------------------------------------------
# The timed loop
# ----------------------------------------------------------------------
class Phase:
    """Passes looped for a time budget, cut into calibrated segments."""

    def __init__(self) -> None:
        self.calibrator = Calibrator()
        self.samples = Samples()
        self.segments: list[tuple[float, float]] = []  # (start, wall)
        self.wall_seconds = 0.0
        self._open = 0.0

    def _idle(self) -> None:
        """No operation in flight: close the segment and take a point
        if the last one is old enough."""
        now = time.perf_counter()
        if now - self.calibrator.times[-1] >= CALIBRATION_GAP_SECONDS:
            self.segments.append((self._open, now - self._open))
            self.calibrator.point()
            self._open = time.perf_counter()

    def run(self, run_pass, seconds: float, max_passes: Optional[int] = None) -> None:
        """Loop ``run_pass(samples, idle)`` until the seconds are spent
        (callable again: a later stretch adds to the same phase)."""
        started = time.perf_counter()
        self.calibrator.point()
        self._open = time.perf_counter()
        passes = 0
        while True:
            run_pass(self.samples, self._idle)
            self._idle()
            passes += 1
            if time.perf_counter() - started >= seconds or passes == max_passes:
                break
        now = time.perf_counter()
        self.segments.append((self._open, now - self._open))
        self.calibrator.point()
        self.wall_seconds += time.perf_counter() - started

    # -- arithmetic -----------------------------------------------------
    @property
    def ok(self) -> int:
        return self.samples.outcomes.get("ok", 0)

    @property
    def attempted(self) -> int:
        return sum(self.samples.outcomes.values())

    def calibrated_latencies_ms(self) -> list[float]:
        scale = self.calibrator.scale
        return [
            wall * 1e3 * scale(start + wall / 2.0)
            for start, wall in self.samples.latencies
        ]

    def raw_latencies_ms(self) -> list[float]:
        return [wall * 1e3 for _, wall in self.samples.latencies]

    def calibrated_seconds(self) -> float:
        scale = self.calibrator.scale
        return sum(wall * scale(start + wall / 2.0) for start, wall in self.segments)

    def raw_seconds(self) -> float:
        return sum(wall for _, wall in self.segments)


def require_latencies(phase: Phase, workload: Workload) -> None:
    if not phase.samples.latencies:
        raise BenchmarkAbort(
            f"{workload.name}: no query completed: {phase.samples.failures}"
        )


def wire_counter(workload: Workload) -> int:
    stats = workload.serving_stats()
    return stats.get("bytes_received", 0) + stats.get("bytes_sent", 0)


def end_to_end_run(workload_class, seed: int, seconds: float, quick: bool) -> dict:
    workload = None
    reports = []
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            workload, report = set_up(workload_class, seed, quick)
            reports.append(report)
        phase = Phase()
        wire_before = wire_counter(workload)
        phase.run(workload.run_pass, seconds)
        require_latencies(phase, workload)
        # In-process and tcp callers count bytes per result; the
        # coordinator counts them on its own sockets.
        wire_bytes = phase.samples.wire_bytes or wire_counter(workload) - wire_before
        rss = peak_rss_mb(workload.child_pids())
    finally:
        if workload is not None:
            workload.close()
    latencies = phase.calibrated_latencies_ms()
    metrics = {
        "setup_s": statistics.median(r.setup_seconds for r in reports),
        "publish_mb_per_s_cal": statistics.median(
            r.publish_mb_per_s_cal for r in reports
        ),
        "queries_per_s_cal": phase.ok / phase.calibrated_seconds(),
        "query_p50_ms_cal": statistics.median(latencies),
        "query_p95_ms_cal": percentile(latencies, 0.95),
        "peak_rss_mb": rss,
        "wire_bytes_per_query": wire_bytes / len(latencies),
    }
    return finish(workload, [phase], metrics, {"samples": len(latencies)})


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def engine_counters(workload: Workload) -> tuple[float, int]:
    """(evaluation seconds, index lookups) summed over in-process sites.

    Site-server processes keep theirs out of reach: RESULT frames carry
    neither, so both read 0 on the tcp workload.
    """
    seconds, lookups = 0.0, 0
    for site in workload.partix.cluster.sites():
        stats = site.driver.engine.stats.snapshot()
        seconds += stats.evaluation_seconds
        lookups += stats.index_lookups
    return seconds, lookups


def baseline_ms_cal(workload: Workload, seconds: float) -> float:
    """Mean calibrated centralized latency over up to three passes."""
    calibrator = Calibrator()
    calibrator.point()
    samples = []
    started = time.perf_counter()
    for _ in range(BASELINE_PASSES):
        for text in workload.texts:
            begun = time.perf_counter()
            result = workload.centralized(text)
            samples.append((begun, time.perf_counter() - begun))
            if signature(result.result_text) != signature(workload.expected[text]):
                raise BenchmarkAbort(f"centralized answer changed for {text!r}")
            calibrator.maybe_point(CALIBRATION_GAP_SECONDS)
        if time.perf_counter() - started >= seconds:
            break
    calibrator.point()
    return statistics.fmean(
        wall * 1e3 * calibrator.scale(start + wall / 2.0) for start, wall in samples
    )


def serial_inproc_ms_cal(workload: Workload) -> float:
    """The coordinator's texts through ``Partix.execute`` from one caller."""
    phase = Phase()
    phase.run(workload.serial_pass, 0.0, max_passes=1)
    return statistics.fmean(phase.calibrated_latencies_ms())


def traced_run(workload_class, seed: int, seconds: float, quick: bool) -> dict:
    workload, report = set_up(workload_class, seed, quick)
    tracer = Tracer()
    try:
        connections_before = workload.connections_created()
        # Untraced, traced, untraced: a drift that is linear in time
        # cancels out of the traced-versus-untraced comparison.
        untraced = Phase()
        untraced.run(workload.run_pass, seconds * UNTRACED_SHARE / 2)
        require_latencies(untraced, workload)

        cache_before = workload.serving_stats().get("plan_cache", {})
        evaluation_before, lookups_before = engine_counters(workload)
        traced = Phase()
        workload.tracer = tracer
        try:
            traced.run(workload.run_pass, seconds * TRACED_SHARE)
        finally:
            workload.tracer = None
        require_latencies(traced, workload)
        evaluation_after, lookups_after = engine_counters(workload)
        cache = workload.serving_stats().get("plan_cache", {})
        untraced.run(workload.run_pass, seconds * UNTRACED_SHARE / 2)
        serving = workload.serving_stats()
        connections = workload.connections_created() - connections_before

        centralized_ms = baseline_ms_cal(
            workload, seconds * (1.0 - UNTRACED_SHARE - TRACED_SHARE)
        )
        inproc_ms = serial_inproc_ms_cal(workload) if serving else 0.0
    finally:
        workload.close()

    untraced_ms = untraced.calibrated_latencies_ms()
    traced_ms = traced.calibrated_latencies_ms()
    raw_ms = untraced.raw_latencies_ms()
    query_count = max(1, len(tracer.queries))

    metrics = layer_metrics(tracer.queries)
    evaluation_ms = (evaluation_after - evaluation_before) * 1e3 / query_count
    if evaluation_ms:
        # evaluation_seconds spans scan, materialization and evaluation.
        metrics["engine.evaluate_ms"] = evaluation_ms - metrics["engine.materialize_ms"]
        metrics["engine.other_ms"] = metrics["engine.execute_ms"] - evaluation_ms
    else:
        metrics["engine.evaluate_ms"] = 0.0
        metrics["engine.other_ms"] = (
            metrics["engine.execute_ms"] - metrics["engine.materialize_ms"]
        )
    metrics["engine.index_lookups_per_query"] = (
        lookups_after - lookups_before
    ) / query_count
    metrics["engine.stored_bytes_per_source_byte"] = (
        workload.stored_bytes / workload.source_bytes
    )
    metrics["net.connections_created"] = float(connections)
    metrics["net.server_spawn_s"] = workload.spawn_seconds
    metrics["partix.publish_docs_per_s"] = workload.documents / workload.publish_seconds
    republish = untraced.samples.republish + traced.samples.republish
    metrics["partix.republish_ms"] = (
        statistics.fmean(republish) * 1e3 if republish else 0.0
    )
    metrics["partix.republish_count"] = float(len(republish))

    lookups = (cache.get("hits", 0) - cache_before.get("hits", 0)) + (
        cache.get("misses", 0) - cache_before.get("misses", 0)
    )
    metrics["plan.cache_hit_ratio"] = (
        (cache["hits"] - cache_before["hits"]) / lookups if lookups else 0.0
    )
    admission = serving.get("admission", {})
    overheads = untraced.samples.overheads
    metrics["coordinate.overhead_ms"] = (
        statistics.fmean(overheads) * 1e3 if overheads else 0.0
    )
    metrics["coordinate.peak_active"] = float(admission.get("peak_active", 0))
    metrics["coordinate.peak_queued"] = float(admission.get("peak_queued", 0))
    metrics["coordinate.shed"] = float(admission.get("shed", 0))
    if overheads:
        service_ms = statistics.fmean(untraced_ms) - metrics["coordinate.overhead_ms"]
        metrics["coordinate.vs_inproc_ratio"] = service_ms / inproc_ms
    else:
        metrics["coordinate.vs_inproc_ratio"] = 0.0

    metrics["baseline.centralized_query_ms_cal"] = centralized_ms
    metrics["baseline.speedup_vs_centralized"] = centralized_ms / statistics.fmean(
        untraced_ms
    )

    points = untraced.calibrator.values_ms + traced.calibrator.values_ms
    # Raw and calibrated figures of the very same samples, side by side.
    metrics["harness.raw_queries_per_s"] = untraced.ok / untraced.raw_seconds()
    metrics["harness.raw_query_p50_ms"] = statistics.median(raw_ms)
    metrics["harness.raw_query_p95_ms"] = percentile(raw_ms, 0.95)
    metrics["harness.cal_queries_per_s"] = untraced.ok / untraced.calibrated_seconds()
    metrics["harness.cal_query_p50_ms"] = statistics.median(untraced_ms)
    metrics["harness.cal_query_p95_ms"] = percentile(untraced_ms, 0.95)
    metrics["harness.ref_ms"] = statistics.median(points)
    metrics["harness.ref_spread"] = drift_spread(points)
    metrics["harness.calibration_share"] = (
        untraced.calibrator.spent_seconds + traced.calibrator.spent_seconds
    ) / (untraced.wall_seconds + traced.wall_seconds)
    metrics["harness.trace_overhead_share"] = (
        statistics.fmean(traced_ms) / statistics.fmean(untraced_ms) - 1.0
    )
    metrics["harness.span_coverage"] = tracer.coverage()
    attempted = untraced.attempted + traced.attempted
    metrics["harness.error_share"] = (
        attempted - untraced.ok - traced.ok
    ) / attempted
    metrics["harness.setup_s"] = report.setup_seconds

    stamp = finish(
        workload,
        [untraced, traced],
        metrics,
        {"traced_queries": len(tracer.queries), "spans": len(tracer.spans)},
    )
    tracer.write(
        os.path.join(HERE, f"BENCH_trace_{workload.name}.json"),
        {key: stamp[key] for key in ("workload", "stamp")},
    )
    return stamp


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def finish(workload: Workload, phases: list, metrics: dict, counts: dict) -> dict:
    """Tally the phases and stamp the run with where it came from."""
    attempted = sum(phase.attempted for phase in phases)
    ok = sum(phase.ok for phase in phases)
    outcomes: dict[str, int] = {}
    failures: list[str] = []
    for phase in phases:
        for outcome, count in phase.samples.outcomes.items():
            outcomes[outcome] = outcomes.get(outcome, 0) + count
        failures.extend(phase.samples.failures)
    points = [value for phase in phases for value in phase.calibrator.values_ms]
    return {
        "workload": workload.name,
        "attempted": attempted,
        "failed": attempted - ok,
        "outcomes": outcomes,
        "failures": failures[:5],
        "metrics": metrics,
        "stamp": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git": git_sha(),
            "seed": workload.seed,
            "quick": workload.quick,
            "documents": workload.documents,
            "source_bytes": workload.source_bytes,
            "texts": len(workload.texts),
            "operations": attempted,
            "calibration_points": len(points),
            "REF_NOMINAL_MS": REF_NOMINAL_MS,
            "ref_ms": statistics.median(points),
            **counts,
        },
    }


def run(
    contract: dict, workload_name: str, seed: int, seconds: float, trace: bool, quick: bool
) -> int:
    """Run one workload; print the stamped metrics and the result line.

    ``contract`` is the parsed ``BENCHMARK.json``: the metric names and
    units printed are the ones it declares, and a run that computed a
    different set is refused.
    """
    declared = {
        metric["name"]: metric["unit"]
        for metric in contract["per_layer" if trace else "end_to_end"]
    }
    runner = traced_run if trace else end_to_end_run
    try:
        outcome = runner(WORKLOADS[workload_name], seed, seconds, quick)
    except BenchmarkAbort as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    metrics = outcome["metrics"]
    if set(metrics) != set(declared):
        print(
            "benchmark aborted: metrics differ from BENCHMARK.json:"
            f" {sorted(set(metrics) ^ set(declared))}",
            file=sys.stderr,
        )
        return 1
    print(f"workload {outcome['workload']} trace={int(trace)}")
    print("stamp " + json.dumps(outcome["stamp"], sort_keys=True))
    print("outcomes " + json.dumps(outcome["outcomes"], sort_keys=True))
    for failure in outcome["failures"]:
        print(f"failure {failure}")
    for name in declared:
        print(f"metric {name} = {metrics[name]:.6g} {declared[name]}")
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared
                },
            }
        )
    )
    return 0
