"""The four closed-loop workloads.

Each workload builds its inputs from the seed, publishes them, and then
serves *passes*: one pass is every query text once (per client). Sites
run with the engine's default options: no simulated per-document
overhead, no parsed-document cache, no shard workers.

A workload only knows how to build itself and how to run one pass; the
timing, calibration and metric arithmetic live in :mod:`harness`.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Optional

from repro.cluster import Cluster
from repro.cluster.site import Site
from repro.coordinate import Coordinator, CoordinatorClient
from repro.errors import AdmissionRejected, QueryDeadlineExceeded
from repro.partix import FragmentationSchema, HorizontalFragment, Partix
from repro.paths import eq, ne
from repro.workloads import (
    items_horizontal_fragmentation,
    items_queries,
    xbench_queries,
    xbench_vertical_fragmentation,
)
from repro.xmltext.serializer import serialized_size

from benchmarks.e2e import data
from benchmarks.e2e.tracing import Tracer

CENTRAL_SITE = "central"
POINT_TEXTS = 32


def point_text(collection: str, code: str) -> str:
    return (
        f'for $i in collection("{collection}")/Item'
        f' where $i/Code = "{code}" return $i/Name/text()'
    )


class Samples:
    """What one thread of one pass observed (merged by the harness)."""

    def __init__(self) -> None:
        self.latencies: list[tuple[float, float]] = []  # (start, wall)
        self.outcomes: dict[str, int] = {}
        self.failures: list[str] = []
        self.wire_bytes = 0
        self.overheads: list[float] = []  # coordinator: latency - service
        self.republish: list[float] = []

    def count(self, outcome: str, detail: str = "") -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if outcome != "ok" and len(self.failures) < 5:
            self.failures.append(f"{outcome}: {detail}")

    def check(self, text: str, expected: str, actual: str) -> None:
        if actual == expected:
            self.count("ok")
        else:
            self.count("wrong", f"{text!r} answered {actual[:80]!r}")

    def merge(self, other: "Samples") -> None:
        self.latencies.extend(other.latencies)
        for outcome, count in other.outcomes.items():
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + count
        self.failures.extend(other.failures[: 5 - len(self.failures)])
        self.wire_bytes += other.wire_bytes
        self.overheads.extend(other.overheads)
        self.republish.extend(other.republish)


class Workload:
    """Base: an in-process caller looping over ``Partix.execute``."""

    name = ""
    collection = ""
    execution_mode = "threads"
    use_indexes = True
    site_count = 4

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        self.partix: Optional[Partix] = None
        self.baseline: Optional[Partix] = None
        self.texts: list[str] = []
        self.expected: dict[str, str] = {}
        self.source_bytes = 0
        self.documents = 0
        self.stored_bytes = 0
        self.publish_seconds = 0.0
        self.publish_at = 0.0
        self.spawn_seconds = 0.0
        #: While set, queries go through the traced replay.
        self.tracer: Optional[Tracer] = None

    # -- building -------------------------------------------------------
    def make_collection(self):
        raise NotImplementedError

    def make_fragmentation(self):
        return items_horizontal_fragmentation(4)

    def make_texts(self, collection) -> list[str]:
        raise NotImplementedError

    def build(self, idle=lambda: None) -> None:
        """Generate, publish (fragmented and centralized), start serving.

        ``idle()`` is called right before and right after the one
        ``Partix.publish`` call — the harness calibrates there.
        """
        collection = self.make_collection()
        self.texts = self.make_texts(collection)
        self.documents = len(collection)
        self.source_bytes = sum(serialized_size(doc) for doc in collection)
        self.partix = Partix(
            Cluster.with_sites(self.site_count, use_indexes=self.use_indexes)
        )
        fragmentation = self.make_fragmentation()
        idle()
        self.publish_at = time.perf_counter()
        report = self.partix.publish(collection, fragmentation)
        self.publish_seconds = time.perf_counter() - self.publish_at
        idle()
        self.stored_bytes = report.total_bytes
        self.baseline = Partix(
            Cluster([Site(CENTRAL_SITE, use_indexes=self.use_indexes)])
        )
        self.baseline.publish_centralized(collection, CENTRAL_SITE)
        self.start_serving()

    def start_serving(self) -> None:
        """Bring up whatever sits between the caller and ``Partix``."""

    def close(self) -> None:
        """Stop every thread and process :meth:`build` started."""

    def child_pids(self) -> list[int]:
        return []

    def connections_created(self) -> int:
        """Site connections dialed so far (tcp workload only)."""
        return 0

    # -- running --------------------------------------------------------
    def serial_answer(self, text: str) -> str:
        """The workload's own serial answer (the byte-identity oracle)."""
        return self.partix.execute(
            text, collection=self.collection, execution_mode="simulated"
        ).result_text

    def centralized(self, text: str):
        return self.baseline.execute_centralized(text, CENTRAL_SITE)

    def execute(self, text: str):
        """One query through the serving path (traced when asked)."""
        if self.tracer is not None:
            return self.tracer.execute(
                self.partix,
                text,
                collection=self.collection,
                execution_mode=self.execution_mode,
            )
        return self.partix.execute(
            text, collection=self.collection, execution_mode=self.execution_mode
        )

    def serial_pass(self, samples: Samples, between_queries) -> None:
        """Every text once through :meth:`execute`, from one caller;
        ``between_queries()`` runs while no query is in flight."""
        for text in self.texts:
            started = time.perf_counter()
            try:
                result = self.execute(text)
            except Exception as exc:  # noqa: BLE001 - tallied, run goes on
                samples.count("error", f"{text!r}: {exc!r}")
                continue
            samples.latencies.append((started, time.perf_counter() - started))
            samples.wire_bytes += result.bytes_sent + result.bytes_received
            samples.check(text, self.expected[text], result.result_text)
            between_queries()

    def run_pass(self, samples: Samples, between_queries) -> None:
        """One pass through the workload's serving path."""
        self.serial_pass(samples, between_queries)

    def serving_stats(self) -> dict:
        """Counters of the serving layer (coordinator workload only)."""
        return {}


class ItemsPointInproc(Workload):
    """Index point lookups: the middleware is most of a query's time."""

    name = "items_point_inproc"
    collection = "Citems"

    def make_collection(self):
        return data.items_collection(
            300 if self.quick else 3000, "small", self.seed
        )

    def make_texts(self, collection) -> list[str]:
        codes = [
            doc.root.first_child("Code").text_value()
            for doc in random.Random(self.seed).sample(
                collection.documents(), POINT_TEXTS
            )
        ]
        return [point_text(self.collection, code) for code in codes]


class ItemsScanInproc(Workload):
    """Full scans of large documents, indexes off: the engine is nearly all
    of a query's time."""

    name = "items_scan_inproc"
    collection = "Citems"
    use_indexes = False

    def make_collection(self):
        return data.items_collection(8 if self.quick else 48, "large", self.seed)

    def make_texts(self, collection) -> list[str]:
        # Q1 looks one Code up; point it at a document that exists.
        code = collection.documents()[-1].root.first_child("Code").text_value()
        return [
            query.text.replace("I-000050", code)
            for query in items_queries(self.collection)
        ]


class XbenchJoinTcpstream(Workload):
    """Vertical fragments behind real site-server processes, streamed
    partials, ID-joins at the composer."""

    name = "xbench_join_tcpstream"
    collection = "Cpapers"
    execution_mode = "tcp-stream"
    site_count = 3

    def make_collection(self):
        if self.quick:
            return data.articles_collection(5, 20_000, self.seed)
        return data.articles_collection(10, 100_000, self.seed)

    def make_fragmentation(self):
        return xbench_vertical_fragmentation(self.collection)

    def make_texts(self, collection) -> list[str]:
        """The ten XBench queries, the four sub-2 ms single-fragment ones
        three times each: a read-mostly mix whose median lies inside the
        light class instead of on the edge between two classes."""
        queries = {query.qid: query.text for query in xbench_queries(self.collection)}
        light = ("Q1", "Q2", "Q3", "Q6")
        order = list(queries) + [qid for qid in light for _ in range(2)]
        random.Random(self.seed).shuffle(order)
        return [queries[qid] for qid in order]

    def start_serving(self) -> None:
        started = time.perf_counter()
        self.partix.start_tcp()
        self.spawn_seconds = time.perf_counter() - started

    def close(self) -> None:
        if self.partix is not None:
            self.partix.stop_tcp()

    def child_pids(self) -> list[int]:
        return [site.process.pid for site in self.partix.tcp.sites.values()]

    def connections_created(self) -> int:
        return sum(
            client.pool_stats()["connections_created"]
            for client in self.partix.tcp.clients.values()
        )


class ItemsMixedCoordinator(ItemsPointInproc):
    """The point-lookup texts through the coordinator service from two
    closed-loop clients, a side collection republished every 8th burst."""

    name = "items_mixed_coordinator"
    clients = 2
    republish_every = 8
    hot_documents = 64

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.coordinator: Optional[Coordinator] = None
        self.connections: list[CoordinatorClient] = []
        self.bursts = 0
        self.variants = ()
        self.hot_fragmentation = None
        self.hot_text = ""
        self.hot_names = ()

    def start_serving(self) -> None:
        self.variants = data.hot_variants(self.hot_documents, self.seed + 1)
        self.hot_fragmentation = FragmentationSchema(
            data.HOT_COLLECTION,
            [
                HorizontalFragment(
                    "Hot1", data.HOT_COLLECTION, predicate=eq("/Item/Section", "CD")
                ),
                HorizontalFragment(
                    "Hot2", data.HOT_COLLECTION, predicate=ne("/Item/Section", "CD")
                ),
            ],
            root_label="Item",
        )
        probe = self.variants[0].documents()[self.seed % self.hot_documents].name
        self.hot_names = tuple(
            variant.get(probe).root.first_child("Name").text_value()
            for variant in self.variants
        )
        code = self.variants[0].get(probe).root.first_child("Code").text_value()
        self.hot_text = point_text(data.HOT_COLLECTION, code)
        self.partix.publish(self.variants[0], self.hot_fragmentation)
        self.coordinator = Coordinator(
            self.partix, execution_mode="threads", max_active=8, queue_limit=64
        )
        self.coordinator.serve_in_thread()
        self.connections = [
            CoordinatorClient(self.coordinator.host, self.coordinator.port)
            for _ in range(self.clients)
        ]

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        if self.coordinator is not None:
            self.coordinator.close()

    def serving_stats(self) -> dict:
        return self.coordinator.stats_payload()

    def _query(self, connection, samples: Samples, text, collection, expected) -> None:
        started = time.perf_counter()
        try:
            reply = connection.query(text, collection=collection)
        except AdmissionRejected as exc:
            samples.count("shed", str(exc))
            return
        except QueryDeadlineExceeded as exc:
            samples.count("deadline", str(exc))
            return
        except Exception as exc:  # noqa: BLE001 - tallied, run goes on
            samples.count("error", f"{text!r}: {exc!r}")
            return
        wall = time.perf_counter() - started
        samples.latencies.append((started, wall))
        samples.overheads.append(wall - reply["elapsed_seconds"])
        samples.check(text, expected, reply["result_text"])

    def _client(self, index: int, samples: Samples, republish: bool) -> None:
        connection = self.connections[index]
        if republish:
            variant = (self.bursts // self.republish_every) % 2
            started = time.perf_counter()
            try:
                self.partix.publish(
                    self.variants[variant], self.hot_fragmentation, replace=True
                )
            except Exception as exc:  # noqa: BLE001 - tallied, run goes on
                samples.count("error", f"republish: {exc!r}")
            else:
                samples.republish.append(time.perf_counter() - started)
                samples.count("ok")
            self._query(
                connection,
                samples,
                self.hot_text,
                data.HOT_COLLECTION,
                self.hot_names[variant],
            )
        # Clients start half a pass apart so they never plan the same
        # text at the same moment.
        offset = index * len(self.texts) // self.clients
        for text in self.texts[offset:] + self.texts[:offset]:
            self._query(connection, samples, text, self.collection, self.expected[text])

    def run_pass(self, samples: Samples, between_queries) -> None:
        """One burst: every client runs one pass, client 0 republishing
        the side collection first on every 8th burst."""
        self.bursts += 1
        republish = self.bursts % self.republish_every == 0
        if self.tracer is not None:
            # The coordinator calls partix.execute on its own threads:
            # shadow it on the instance for the traced phase.
            tracer, partix = self.tracer, self.partix
            partix.execute = lambda query, **kwargs: tracer.execute(
                partix, query, **kwargs
            )
        per_client = [Samples() for _ in range(self.clients)]
        threads = [
            threading.Thread(
                target=self._client,
                args=(index, per_client[index], republish and index == 0),
            )
            for index in range(self.clients)
        ]
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
            if self.tracer is not None:
                del self.partix.execute
        for client_samples in per_client:
            samples.merge(client_samples)


WORKLOADS = {
    workload.name: workload
    for workload in (
        ItemsPointInproc,
        ItemsScanInproc,
        XbenchJoinTcpstream,
        ItemsMixedCoordinator,
    )
}
