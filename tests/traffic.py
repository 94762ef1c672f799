"""Closed-loop traffic against a coordinator, as the tests drive it.

``run_traffic`` drives N client threads against one coordinator; each
thread owns a :class:`CoordinatorClient` (and therefore its own small
connection pool), picks queries from the workload with a seeded RNG, and
issues the next request the moment the previous answer lands — the
classic closed-loop load model, so offered load scales with the number
of clients, not a target rate. Every answer is checked byte-for-byte
against its expected text: the report counts *verified* answers, and a
single wrong byte under concurrency shows up as ``incorrect``.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import AdmissionRejected, QueryDeadlineExceeded
from repro.coordinate.client import CoordinatorClient


@dataclass(frozen=True)
class WorkloadQuery:
    """One workload entry: the query and the answer it must produce."""

    qid: str
    text: str
    expected_text: str
    collection: Optional[str] = None


@dataclass
class TrafficReport:
    """What the generator measured, ready for a bench payload."""

    clients: int
    requests_per_client: int
    ok: int = 0
    incorrect: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    errors: int = 0
    wall_seconds: float = 0.0
    latencies_seconds: list = field(default_factory=list)
    error_messages: list = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.ok + self.incorrect + self.shed + self.deadline_exceeded + self.errors

    @property
    def qps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.ok / self.wall_seconds

    def percentile(self, p: float) -> Optional[float]:
        """Latency percentile over *successful* requests, in seconds."""
        if not self.latencies_seconds:
            return None
        ordered = sorted(self.latencies_seconds)
        index = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
        return ordered[index]

    def as_payload(self) -> dict:
        def _ms(value: Optional[float]) -> Optional[float]:
            return None if value is None else value * 1000.0

        return {
            "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "total": self.total,
            "ok": self.ok,
            "incorrect": self.incorrect,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "errors": self.errors,
            "wall_seconds": self.wall_seconds,
            "qps": self.qps,
            "p50_ms": _ms(self.percentile(50)),
            "p95_ms": _ms(self.percentile(95)),
            "p99_ms": _ms(self.percentile(99)),
        }


def run_traffic(
    host: str,
    port: int,
    workload: Sequence[WorkloadQuery],
    clients: int = 8,
    requests_per_client: int = 10,
    seed: int = 0,
    deadline_seconds: Optional[float] = None,
    read_timeout: Optional[float] = 60.0,
) -> TrafficReport:
    """Drive ``clients`` closed-loop threads; return the merged report."""
    if not workload:
        raise ValueError("workload must contain at least one query")
    report = TrafficReport(clients=clients, requests_per_client=requests_per_client)
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def _client(index: int) -> None:
        rng = random.Random(seed * 7919 + index)
        client = CoordinatorClient(host, port, site=f"traffic-{index}")
        barrier.wait()
        try:
            for _ in range(requests_per_client):
                entry = rng.choice(workload)
                started = time.perf_counter()
                try:
                    reply = client.query(
                        entry.text,
                        collection=entry.collection,
                        deadline_seconds=deadline_seconds,
                        read_timeout=read_timeout,
                    )
                except AdmissionRejected:
                    with lock:
                        report.shed += 1
                    continue
                except QueryDeadlineExceeded:
                    with lock:
                        report.deadline_exceeded += 1
                    continue
                except Exception as exc:  # noqa: BLE001 - tallied, not fatal
                    with lock:
                        report.errors += 1
                        if len(report.error_messages) < 10:
                            report.error_messages.append(
                                f"{entry.qid}: {type(exc).__name__}: {exc}"
                            )
                    continue
                latency = time.perf_counter() - started
                with lock:
                    if reply.get("result_text") == entry.expected_text:
                        report.ok += 1
                        report.latencies_seconds.append(latency)
                    else:
                        report.incorrect += 1
                        if len(report.error_messages) < 10:
                            report.error_messages.append(
                                f"{entry.qid}: answer mismatch"
                                f" ({reply.get('result_bytes')} bytes)"
                            )
        finally:
            client.close()

    threads = [
        threading.Thread(target=_client, args=(i,), name=f"traffic-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    report.wall_seconds = time.perf_counter() - started
    return report
