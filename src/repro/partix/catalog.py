"""Catalog services (paper §4).

Two catalogs back the PartiX middleware:

* :class:`SchemaCatalog` — "registers the data types used by the
  distributed collections": XML schemas and collection declarations
  ⟨S, τroot, SD|MD⟩.
* :class:`DistributionCatalog` — "stores the fragment definitions": for
  each collection, its :class:`FragmentationSchema` and the *allocation*
  of each fragment to a site (and the physical collection name the
  fragment's documents live under there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.datamodel.collection import RepositoryKind
from repro.errors import CatalogError
from repro.partix.fragments import FragmentationSchema
from repro.xschema.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.indexes import ValueSummary


@dataclass(frozen=True)
class CollectionDeclaration:
    """A registered collection ⟨S, τroot⟩ with its repository kind."""

    name: str
    kind: RepositoryKind
    schema_name: Optional[str] = None
    root_type: Optional[str] = None
    root_label: Optional[str] = None


class SchemaCatalog:
    """XML Schema Catalog Service."""

    def __init__(self) -> None:
        self._schemas: dict[str, Schema] = {}
        self._collections: dict[str, CollectionDeclaration] = {}

    def register_schema(self, schema: Schema) -> None:
        if schema.name in self._schemas:
            raise CatalogError(f"schema {schema.name!r} already registered")
        self._schemas[schema.name] = schema

    def schema(self, name: str) -> Schema:
        try:
            return self._schemas[name]
        except KeyError:
            raise CatalogError(f"no schema named {name!r}") from None

    def register_collection(self, declaration: CollectionDeclaration) -> None:
        if declaration.name in self._collections:
            raise CatalogError(
                f"collection {declaration.name!r} already registered"
            )
        if declaration.schema_name is not None:
            self.schema(declaration.schema_name)  # must exist
        self._collections[declaration.name] = declaration

    def collection(self, name: str) -> CollectionDeclaration:
        try:
            return self._collections[name]
        except KeyError:
            raise CatalogError(f"no collection named {name!r}") from None

    def has_collection(self, name: str) -> bool:
        return name in self._collections

    def collection_names(self) -> list[str]:
        return list(self._collections)


@dataclass(frozen=True)
class FragmentStatistics:
    """What the planner knows of one materialized fragment replica.

    Recorded by whoever stores a replica — the data publisher when it
    publishes a fragment, the rebalancer when it copies one — right
    after its last write and before the catalog version bump that
    routes queries to it. ``documents`` and ``bytes`` (serialized, on
    disk) feed the cost model's per-lane estimates; ``summary`` is the
    storing site's :class:`~repro.engine.indexes.ValueSummary` of the
    replica, by which localization drops a horizontal fragment that
    provably holds no match — so planning never has to touch a site.
    ``None`` (a driver that reports none) means unknown: nothing is
    pruned on it.
    """

    documents: int
    bytes: int
    summary: Optional["ValueSummary"] = None


@dataclass(frozen=True)
class FragmentAllocation:
    """Where one fragment physically lives.

    ``hybrid_mode`` records the materialization of hybrid fragments
    (1 = independent documents, 2 = single pruned document); the query
    decomposer needs it to know the shape of the stored documents.
    """

    fragment: str
    site: str
    stored_collection: str
    hybrid_mode: int = 2


class DistributionCatalog:
    """XML Distribution Catalog Service: fragmentation + allocation.

    A fragment may be allocated to several sites (replicas) — the design
    option the paper's related work (Bremer & Gertz) uses to "maximize
    local query evaluation". The first allocation of a fragment is its
    *primary*; :meth:`replicas` exposes all of them so the decomposer can
    balance sub-queries across replica sites.
    """

    def __init__(self) -> None:
        self._fragmentations: dict[str, FragmentationSchema] = {}
        self._allocations: dict[str, dict[str, list[FragmentAllocation]]] = {}
        self._statistics: dict[tuple[str, str, str], FragmentStatistics] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every design change (register,
        replace, unregister). Plan caches key on it: a cached plan is
        only valid for the catalog state it was derived from, so a
        republish invalidates every entry for the old design."""
        return self._version

    # ------------------------------------------------------------------
    @staticmethod
    def validate_allocations(
        fragmentation: FragmentationSchema,
        allocations: Iterable[FragmentAllocation],
    ) -> dict[str, list[FragmentAllocation]]:
        """Check an allocation set against a design; returns the
        per-fragment allocation map (primary first).

        Every fragment must be allocated at least once; several
        allocations of one fragment declare replicas (each on a distinct
        site). Exposed so the publisher can validate a *replacement*
        design before any data moves.
        """
        allocation_map: dict[str, list[FragmentAllocation]] = {}
        for allocation in allocations:
            fragmentation.fragment(allocation.fragment)  # must exist
            existing = allocation_map.setdefault(allocation.fragment, [])
            if any(entry.site == allocation.site for entry in existing):
                raise CatalogError(
                    f"fragment {allocation.fragment!r} allocated twice"
                    f" on site {allocation.site!r}"
                )
            existing.append(allocation)
        missing = set(fragmentation.fragment_names()) - set(allocation_map)
        if missing:
            raise CatalogError(
                f"fragments without allocation: {', '.join(sorted(missing))}"
            )
        return allocation_map

    def register_fragmentation(
        self,
        fragmentation: FragmentationSchema,
        allocations: Iterable[FragmentAllocation],
        replace: bool = False,
    ) -> None:
        """Register a fragmentation design with its site allocation.

        With ``replace=True`` an existing registration for the same
        collection is swapped out atomically (one assignment per dict, so
        a concurrent reader sees either the old design or the new one,
        never a mix) and the catalog version is bumped. Statistics of
        replicas the new allocation no longer has go with the swap.
        """
        name = fragmentation.collection
        if name in self._fragmentations and not replace:
            raise CatalogError(
                f"collection {name!r} already has a fragmentation"
            )
        allocation_map = self.validate_allocations(fragmentation, allocations)
        self._fragmentations[name] = fragmentation
        self._allocations[name] = allocation_map
        self._drop_statistics(
            name,
            keep={
                (name, entry.fragment, entry.site)
                for entries in allocation_map.values()
                for entry in entries
            },
        )
        self._version += 1

    def unregister(self, collection: str) -> None:
        self._fragmentations.pop(collection, None)
        self._allocations.pop(collection, None)
        self._drop_statistics(collection)
        self._version += 1

    def _drop_statistics(self, collection: str, keep=frozenset()) -> None:
        """Forget the collection's replica statistics not in ``keep``."""
        for key in [
            key
            for key in self._statistics
            if key[0] == collection and key not in keep
        ]:
            del self._statistics[key]

    # ------------------------------------------------------------------
    def record_statistics(
        self,
        collection: str,
        fragment: str,
        site: str,
        documents: int,
        data_bytes: int,
        summary: Optional["ValueSummary"] = None,
    ) -> None:
        """Record (or refresh) one fragment replica's planner statistics
        — the only writer of a replica's value summary. Call it after
        the replica's last write and before the registration that routes
        to it: the version bump is what retires the plans pruned on the
        previous summary."""
        self._statistics[(collection, fragment, site)] = FragmentStatistics(
            documents=documents, bytes=data_bytes, summary=summary
        )

    def statistics(
        self, collection: str, fragment: str, site: str
    ) -> Optional[FragmentStatistics]:
        """The replica's statistics, or None when never published here."""
        return self._statistics.get((collection, fragment, site))

    # ------------------------------------------------------------------
    def fragmentation(self, collection: str) -> FragmentationSchema:
        try:
            return self._fragmentations[collection]
        except KeyError:
            raise CatalogError(
                f"collection {collection!r} has no registered fragmentation"
            ) from None

    def is_fragmented(self, collection: str) -> bool:
        return collection in self._fragmentations

    def allocation(self, collection: str, fragment: str) -> FragmentAllocation:
        """The fragment's *primary* allocation."""
        return self.replicas(collection, fragment)[0]

    def replicas(self, collection: str, fragment: str) -> list[FragmentAllocation]:
        """All allocations (primary first) of one fragment."""
        try:
            return list(self._allocations[collection][fragment])
        except KeyError:
            raise CatalogError(
                f"no allocation for fragment {fragment!r} of {collection!r}"
            ) from None

    def allocations(self, collection: str) -> list[FragmentAllocation]:
        """Every allocation (including replicas), fragment order preserved."""
        try:
            return [
                allocation
                for entries in self._allocations[collection].values()
                for allocation in entries
            ]
        except KeyError:
            raise CatalogError(
                f"collection {collection!r} has no registered fragmentation"
            ) from None

    def fragmented_collections(self) -> list[str]:
        return list(self._fragmentations)
