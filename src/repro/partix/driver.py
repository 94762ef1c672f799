"""The PartiX driver: a uniform interface to XQuery-enabled XML DBMSs.

§4: "Our architecture considers that there is a PartiX Driver, which
allows accessing remote DBMSs to store and retrieve XML documents. ...
The PartiX driver allows different XML DBMSs to participate in the
system. The only requirement is that they are able to process XQuery."

:class:`PartixDriver` is the abstract interface; :class:`MiniXDriver`
adapts our embedded engine (the eXist stand-in). A driver for a remote
DBMS implements the same abstract methods over its wire protocol
(:class:`~repro.net.client.RemoteSiteDriver` does); of query processing
they ask only what §4 asks, :meth:`PartixDriver.execute`.
"""

from __future__ import annotations

import abc
from typing import Iterable, Optional, Union

from repro.datamodel.document import XMLDocument
from repro.engine.database import XMLEngine
from repro.engine.indexes import ValueSummary
from repro.engine.stats import ExecOptions, QueryResult


class PartixDriver(abc.ABC):
    """Uniform access to one XML DBMS node."""

    @abc.abstractmethod
    def create_collection(self, name: str) -> None:
        """Create an empty collection (idempotent)."""

    @abc.abstractmethod
    def store_document(
        self,
        collection: str,
        document: Union[XMLDocument, str, bytes],
        name: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> None:
        """Store one document into ``collection``."""

    @abc.abstractmethod
    def execute(
        self, query: str, options: Optional[ExecOptions] = None
    ) -> QueryResult:
        """Run an XQuery and return its result + execution metrics.

        ``options`` carries the per-query settings (see
        :class:`~repro.engine.stats.ExecOptions`); every one of them is
        a request the node may decline — answers are byte-identical
        either way.
        """

    @abc.abstractmethod
    def document_count(self, collection: str) -> int:
        """Number of documents in ``collection``.

        Contract: a missing collection is **0 documents**, not an error —
        the middleware probes sites that may simply not host a fragment.
        (The engine layer underneath is strict and raises; the driver is
        the lenient boundary.)
        """

    @abc.abstractmethod
    def collection_bytes(self, collection: str) -> int:
        """Total serialized size of ``collection``.

        Contract: a missing collection is **0 bytes** (see
        :meth:`document_count`).
        """

    @abc.abstractmethod
    def retain_documents(self, collection: str, keep: Iterable[str]) -> None:
        """Delete every document of ``collection`` not named in ``keep``.

        What makes a republish *replace*: the publisher stores the new
        fragment, then retires whatever an earlier publication left in
        the same stored collection. A missing collection is a no-op (see
        :meth:`document_count`).
        """

    def collection_statistics(self, collection: str) -> tuple[int, int]:
        """``(documents, bytes)`` of a stored collection in one call.

        The data publisher records these in the distribution catalog as
        planner statistics (see ``DistributionCatalog.record_statistics``);
        drivers for remote DBMSs may override this with a single wire
        round-trip. Inherits the lenient missing-collection contract:
        ``(0, 0)`` rather than an error.
        """
        return (
            self.document_count(collection),
            self.collection_bytes(collection),
        )

    def value_summary(self, collection: str) -> Optional[ValueSummary]:
        """What the node's value index holds for ``collection``, for the
        planner to route by (recorded next to the statistics above).

        ``None`` — the default, and what a driver that cannot see an
        index answers — means "unknown": no fragment is ever pruned on
        an unknown summary.
        """
        return None


class MiniXDriver(PartixDriver):
    """Driver over the embedded MiniX engine."""

    def __init__(self, engine: Optional[XMLEngine] = None, name: str = "minix"):
        self.engine = engine if engine is not None else XMLEngine(name)

    def create_collection(self, name: str) -> None:
        if not self.engine.has_collection(name):
            self.engine.create_collection(name)

    def store_document(
        self,
        collection: str,
        document: Union[XMLDocument, str, bytes],
        name: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> None:
        self.engine.store_document(collection, document, name=name, origin=origin)

    def execute(
        self, query: str, options: Optional[ExecOptions] = None
    ) -> QueryResult:
        return self.engine.execute(query, options)

    def retain_documents(self, collection: str, keep: Iterable[str]) -> None:
        if self.engine.has_collection(collection):
            self.engine.retain_documents(collection, keep)

    def document_count(self, collection: str) -> int:
        if not self.engine.has_collection(collection):
            return 0
        return self.engine.document_count(collection)

    def collection_bytes(self, collection: str) -> int:
        if not self.engine.has_collection(collection):
            return 0
        return self.engine.collection_bytes(collection)

    def value_summary(self, collection: str) -> Optional[ValueSummary]:
        if not self.engine.has_collection(collection):
            return None
        return self.engine.store.collection(collection).index.values.summary()
