"""The cost model feeding lowering and EXPLAIN.

Estimates are built from two ingredients:

* **catalog fragment statistics** — documents and bytes per
  ``(collection, fragment, site)``, recorded by the data publisher when
  a fragment is materialized (``DistributionCatalog.statistics``). A
  catalog without statistics (hand-annotated plans, tests) falls back to
  fixed defaults, so planning never requires executing anything.
* **the network model** — the same
  :class:`~repro.cluster.network.NetworkModel` the middleware reports
  transmission estimates with, charging dispatch (query text out) and
  gather (result bytes back) per lane.

The CPU constants are the *modeled* clock of the paper's
parse-on-access engine — what an engine configured like the Figure-7
scenarios charges (``engine.stats.modeled_access_seconds``) — not
measurements of this one. An engine without a modeled clock (every
``benchmarks/e2e`` workload) scans at ~13 µs per document and ~0.25 ns
per byte since evaluation moved onto the node tables, two orders of
magnitude below the modeled 2.5 ms and 20 ns. Whether a site probes
its indexes is the site's setting, so no plan prices a probe. Every
executed lane carries its estimate next to its measurement and
``benchmarks/e2e/run.py --trace 1`` reports their ratio as
``plan.estimate_q_error``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.network import NetworkModel
from repro.engine.stats import MODELED_SECONDS_PER_BYTE

#: Fallbacks when the catalog has no statistics for a fragment replica.
DEFAULT_DOCUMENTS = 8
DEFAULT_FRAGMENT_BYTES = 16_384

#: Estimated size of a shipped scalar partial (count/sum/… pushdown).
SCALAR_RESULT_BYTES = 24

#: CPU constants of the modeled clock (seconds): the bench scenarios'
#: PAPER_DOC_OVERHEAD and the engine's per-byte rate, so a Figure-7 lane
#: is estimated at what its site charges; the rest are rough rates.
SECONDS_PER_DOCUMENT = 0.0025
SECONDS_PER_BYTE = MODELED_SECONDS_PER_BYTE
CONCAT_SECONDS_PER_BYTE = 1e-9
MERGE_SECONDS_PER_PARTIAL = 1e-5
JOIN_SECONDS_PER_BYTE = 1e-7


@dataclass(frozen=True)
class CostEstimate:
    """Cost estimate of one lane or of a plan's composition step."""

    documents: int = 0
    result_bytes: int = 0
    cpu_seconds: float = 0.0
    network_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.cpu_seconds + self.network_seconds

    def to_dict(self) -> dict:
        return {
            "documents": self.documents,
            "result_bytes": self.result_bytes,
            "cpu_seconds": self.cpu_seconds,
            "network_seconds": self.network_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CostEstimate":
        return cls(
            documents=payload.get("documents", 0),
            result_bytes=payload.get("result_bytes", 0),
            cpu_seconds=payload.get("cpu_seconds", 0.0),
            network_seconds=payload.get("network_seconds", 0.0),
        )


class CostModel:
    """Estimates lane and composition costs from catalog statistics +
    the network model.

    ``catalog`` is duck-typed: anything with a
    ``statistics(collection, fragment, site)`` method (returning an
    object with ``documents``/``bytes`` or None) works; ``None`` or a
    statistics-less catalog degrades to the fixed defaults.
    """

    def __init__(
        self,
        catalog=None,
        network: Optional[NetworkModel] = None,
        seconds_per_document: float = SECONDS_PER_DOCUMENT,
        seconds_per_byte: float = SECONDS_PER_BYTE,
    ):
        self.catalog = catalog
        self.network = network if network is not None else NetworkModel()
        self.seconds_per_document = seconds_per_document
        self.seconds_per_byte = seconds_per_byte

    # ------------------------------------------------------------------
    def fragment_statistics(self, collection: str, fragment: str, site: str):
        lookup = getattr(self.catalog, "statistics", None)
        if lookup is None:
            return None
        return lookup(collection, fragment, site)

    def scan_estimate(
        self,
        collection: str,
        fragment: str,
        site: str,
        query: str,
        purpose: str = "answer",
        selectivity: float = 1.0,
        pushdown: Optional[str] = None,
        access: str = "scan",  # "scan" | "keys"
    ) -> CostEstimate:
        """Cost of running one sub-query at one fragment replica.

        ``access="scan"`` hands every document of the fragment to the
        evaluator. ``access="keys"`` is the answer stage of a semi-join:
        the site looks the shipped origins up and hands over only the
        estimated matching documents (the selectivity fraction, at least
        one).
        """
        stats = self.fragment_statistics(collection, fragment, site)
        documents = stats.documents if stats is not None else DEFAULT_DOCUMENTS
        fragment_bytes = stats.bytes if stats is not None else DEFAULT_FRAGMENT_BYTES
        if purpose == "fetch":
            # An upper bound: a fetch ships the fragment's documents
            # projected onto what the query reads, at most all of them.
            result_bytes = fragment_bytes
        elif pushdown is not None:
            result_bytes = SCALAR_RESULT_BYTES
        else:
            result_bytes = max(
                SCALAR_RESULT_BYTES, int(fragment_bytes * selectivity)
            )
        query_bytes = len(query.encode("utf-8"))
        if access == "keys":
            documents = max(1, int(documents * selectivity))
            fragment_bytes = max(1, int(fragment_bytes * selectivity))
        cpu = (
            documents * self.seconds_per_document
            + fragment_bytes * self.seconds_per_byte
        )
        net = self.network.transfer_seconds(query_bytes) + (
            self.network.transfer_seconds(result_bytes)
        )
        return CostEstimate(
            documents=documents,
            result_bytes=result_bytes,
            cpu_seconds=cpu,
            network_seconds=net,
        )

    # ------------------------------------------------------------------
    def composition_estimate(self, kind: str, lanes: list) -> CostEstimate:
        """The composition step of a plan of ``kind`` over its answer
        lanes' estimates: a union, a merge of the partial aggregates, or
        an ID-join."""
        if kind == "aggregate":
            return self.merge_estimate(lanes)
        if kind == "reconstruct":
            return self.id_join_estimate(lanes)
        return self.union_estimate(lanes)

    def union_estimate(self, children: list) -> CostEstimate:
        result_bytes = sum(child.result_bytes for child in children)
        return CostEstimate(
            documents=sum(child.documents for child in children),
            result_bytes=result_bytes,
            cpu_seconds=result_bytes * CONCAT_SECONDS_PER_BYTE,
        )

    def merge_estimate(self, children: list) -> CostEstimate:
        return CostEstimate(
            documents=sum(child.documents for child in children),
            result_bytes=SCALAR_RESULT_BYTES,
            cpu_seconds=len(children) * MERGE_SECONDS_PER_PARTIAL,
        )

    def id_join_estimate(self, children: list) -> CostEstimate:
        input_bytes = sum(child.result_bytes for child in children)
        documents = sum(child.documents for child in children)
        # Parse the fetched forests, join by origin, re-run the query.
        cpu = (
            input_bytes * JOIN_SECONDS_PER_BYTE
            + documents * self.seconds_per_document
        )
        return CostEstimate(
            documents=documents,
            result_bytes=input_bytes,
            cpu_seconds=cpu,
        )
