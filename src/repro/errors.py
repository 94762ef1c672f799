"""Exception hierarchy for the PartiX reproduction.

Every error raised by this library derives from :class:`PartixError` so
applications can catch one base class. Sub-hierarchies mirror the layers of
the system: text parsing, schema validation, path/XQuery compilation and
evaluation, storage, fragmentation, and distributed execution.
"""

from __future__ import annotations


class PartixError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class XMLSyntaxError(PartixError):
    """Raised when XML text is not well-formed.

    Carries the 1-based ``line`` and ``column`` of the offending input
    position when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)
        self.line = line
        self.column = column


class SchemaError(PartixError):
    """Raised for malformed schema definitions (unknown types, bad cardinalities)."""


class ValidationError(PartixError):
    """Raised when a document does not satisfy the type it is checked against."""


class PathSyntaxError(PartixError):
    """Raised when a path expression cannot be parsed."""


class PredicateError(PartixError):
    """Raised when a simple predicate is malformed or cannot be evaluated."""


class XQuerySyntaxError(PartixError):
    """Raised when an XQuery expression cannot be parsed."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class XQueryTypeError(PartixError):
    """Raised for dynamic type errors during XQuery evaluation."""


class XQueryEvaluationError(PartixError):
    """Raised for other dynamic errors during XQuery evaluation."""


class StorageError(PartixError):
    """Raised by the storage engine (missing collection/document, I/O)."""


class CollectionNotFoundError(StorageError):
    """Raised when a named collection does not exist in a database."""


class DocumentNotFoundError(StorageError):
    """Raised when a document name does not exist in a collection."""


class FragmentationError(PartixError):
    """Raised for invalid fragment definitions (Definition 1-4 violations)."""


class CorrectnessViolation(FragmentationError):
    """Raised when a fragmentation schema fails a correctness rule.

    ``rule`` is one of ``"completeness"``, ``"disjointness"`` or
    ``"reconstruction"`` and ``details`` carries a human-readable account of
    the violating data items.
    """

    def __init__(self, rule: str, details: str):
        super().__init__(f"fragmentation violates {rule}: {details}")
        self.rule = rule
        self.details = details


class CatalogError(PartixError):
    """Raised by the schema/distribution catalog services."""


class CatalogContention(CatalogError):
    """Planning kept losing races against concurrent catalog replaces.

    ``Partix._plan_for`` retries a bounded number of times when the
    catalog version changes mid-decompose (a concurrent republish or
    rebalance swapping the design). Exhausting the retry budget raises
    this instead of silently planning against a possibly-mixed design —
    callers (the coordinator surfaces it as a QUERY_ERROR) may simply
    retry the query once the replace storm settles.
    """


class RebalanceError(PartixError):
    """Raised by the online rebalancer (``repro.rebalance``) when a
    migration cannot be performed: unknown fragment, a fragment that is
    not splittable, a target site already holding the data, or a primary
    whose driver exposes no local engine to read documents from.

    A raised migration never half-applies: the catalog is only swapped
    after every new fragment is fully stored, so the old design stays
    routable."""


class DecompositionError(PartixError):
    """Raised when a query cannot be decomposed over a fragmentation schema."""


class ClusterError(PartixError):
    """Raised by the simulated cluster (unknown site, no driver, ...)."""


class ProtocolError(PartixError):
    """Raised for malformed, truncated or oversized ``repro.net`` frames,
    and for protocol-version handshake refusals."""


class TransportError(ClusterError):
    """Raised when talking to a remote site server fails at the transport
    level (connect refused, connection reset, read timeout, bad frame).

    Transport errors are *retryable*: the dispatcher treats them like any
    transient sub-query failure.
    """


class TransportTimeout(TransportError, TimeoutError):
    """A remote site server did not answer within the read timeout."""


class RemoteExecutionError(ClusterError):
    """A site server reported an error whose class could not be mapped
    back to a local exception type (see ``repro.net.protocol``)."""


class CoordinatorError(PartixError):
    """Raised by the multi-tenant coordinator service (``repro.coordinate``)."""


class AdmissionRejected(CoordinatorError):
    """The coordinator shed a query: its bounded admission queue was full.

    This is a *typed* load-shedding signal — clients distinguish it from
    execution failures and may retry later with backoff. It crosses the
    wire as a QUERY_ERROR frame and maps back to this same class.
    """


class QueryDeadlineExceeded(CoordinatorError, TimeoutError):
    """A coordinated query ran out of its per-query deadline.

    The deadline covers the whole query — admission wait, planning and
    dispatch all draw down one budget (the remainder is handed to the
    dispatcher as the round's sub-query timeout).
    """


class DispatchError(ClusterError):
    """Raised when a sub-query exhausted every attempt at every replica
    of its fragment (or its deadline): the query has no answer, since an
    answer needs every fragment.

    ``failures`` lists each exhausted sub-query as a
    :class:`repro.cluster.dispatch.SubQueryFailure`.
    """

    def __init__(self, message: str, failures: list | None = None):
        super().__init__(message)
        self.failures = failures or []
