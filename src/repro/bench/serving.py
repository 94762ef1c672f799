"""The serving benchmark (``--figure serving``).

Stands up the multi-tenant coordinator over a fragmented Items
repository, pre-computes every workload answer with a serial
``Partix.execute`` baseline, then drives a closed-loop traffic
generator against the service. Every concurrent answer is compared
byte-for-byte with its serial baseline, so the figure reports *verified*
throughput: QPS and latency percentiles mean nothing if the answers are
wrong.

The JSON payload (``BENCH_serving.json`` in CI) records QPS,
p50/p95/p99 latency, the shed/error tallies, the plan-cache hit rate
(the whole workload plans ``len(queries)`` times, everything after that
is a hit re-lowered against live site health), and the per-site
connection-pool counters proving connections are reused across queries
rather than dialed per request.
"""

from __future__ import annotations

from repro.bench.scenarios import build_items_scenario
from repro.coordinate.service import Coordinator
from repro.coordinate.traffic import WorkloadQuery, run_traffic

#: Closed-loop client threads the figure drives.
SERVING_CLIENTS = 12
#: Requests each client issues.
SERVING_REQUESTS = 8


def run_serving(scale: float, repetitions: int, transmission: bool) -> dict:
    """Coordinator throughput/latency with verified answers."""
    scenario = build_items_scenario(
        "small", paper_mb=100, fragment_count=4, scale=scale
    )
    partix = scenario.partix

    workload = []
    for query in scenario.queries:
        baseline = partix.execute(
            query.text,
            collection=scenario.collection_name,
            execution_mode="simulated",
        )
        workload.append(
            WorkloadQuery(
                qid=query.qid,
                text=query.text,
                expected_text=baseline.result_text,
                collection=scenario.collection_name,
            )
        )

    coordinator = Coordinator(
        partix,
        execution_mode="threads",
        max_active=8,
        queue_limit=64,
    )
    coordinator.serve_in_thread()
    try:
        report = run_traffic(
            coordinator.host,
            coordinator.port,
            workload,
            clients=SERVING_CLIENTS,
            requests_per_client=SERVING_REQUESTS * max(1, repetitions),
            seed=42,
        )
        stats = coordinator.stats_payload()
    finally:
        clean = coordinator.close()
        partix.close()

    payload = {
        "figure": "serving",
        "scenario": scenario.name,
        "fragment_count": scenario.fragment_count,
        "clean_shutdown": clean,
        "plan_cache": stats["plan_cache"],
        "admission": stats["admission"],
        **report.as_payload(),
    }
    if report.error_messages:
        payload["error_samples"] = report.error_messages

    def _fmt(value, unit=""):
        return "-" if value is None else f"{value:.2f}{unit}"

    print(f"serving figure — {scenario.name}, {SERVING_CLIENTS} closed-loop clients")
    print(
        f"  {report.ok}/{report.total} verified ok,"
        f" {report.incorrect} incorrect, {report.shed} shed,"
        f" {report.errors} errors"
    )
    print(
        f"  {report.qps:.1f} qps |"
        f" p50 {_fmt(payload['p50_ms'], ' ms')} |"
        f" p95 {_fmt(payload['p95_ms'], ' ms')} |"
        f" p99 {_fmt(payload['p99_ms'], ' ms')}"
    )
    cache = stats["plan_cache"]
    print(
        f"  plan cache: {cache['hits']} hits / {cache['misses']} misses"
        f" ({cache['entries']} entries)"
    )
    if report.incorrect:
        raise SystemExit(
            f"serving bench: {report.incorrect} answers diverged from the"
            " serial baseline"
        )
    return payload
