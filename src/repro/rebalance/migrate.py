"""Online fragment migration: split / move / replicate / merge, live.

The :class:`Rebalancer` re-places fragments while queries keep running.
Every migration follows the same store-then-swap state machine the
republish path (``Publisher(replace=True)``) established:

1. **read** — the fragment's stored documents are read from its primary
   replica's local engine (the same serialized bytes
   :func:`repro.net.bootstrap.mirror_site` ships, so answers stay
   byte-identical);
2. **store** — the new fragment collections are created and fully
   populated on the chosen target sites, through each site's driver.
   The catalog still routes every query to the *old* placement;
3. **swap** — ``DistributionCatalog.register_fragmentation(replace=True)``
   installs the new design in one atomic assignment per map and bumps
   the catalog version: in-flight queries finish against the old
   placement, the plan cache invalidates, and every new query lowers
   against the new one.

A failure before step 3 leaves the old design fully routable (some
orphaned documents may remain on target sites; the report notes them).
Old fragment data is likewise left in place after a successful swap —
the catalog simply no longer routes there.

Splitting picks a *boundary*: a single-valued terminal path (e.g.
``/Item/Section``) whose values partition the fragment's documents into
two non-empty halves. The children's predicates follow the repository's
equality-family idiom — ``μ ∧ (P=v₁ ∨ …)`` for the chosen values and
``μ ∧ P≠v₁ ∧ …`` for the rest — so localization prunes them exactly
like any published horizontal design. A path is only usable when every
stored document carries exactly one value for it: then each child's
predicate is *exact* for the documents it holds and pruning stays
answer-preserving.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.datamodel.tree import Node, NodeKind
from repro.errors import CatalogError, FragmentationError, RebalanceError
from repro.partix.catalog import FragmentAllocation
from repro.partix.fragments import (
    FragmentationSchema,
    HorizontalFragment,
)
from repro.paths.evaluator import evaluate_path
from repro.paths.predicates import And, Comparison, Or, Predicate, atoms, eq, ne
from repro.xmltext.serializer import serialize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.store import StoredDocument
    from repro.partix.middleware import Partix


@dataclass(frozen=True)
class RebalanceAction:
    """One re-placement an operator asks for: plain data that
    :meth:`Rebalancer.apply` performs and the REBALANCE frame carries."""

    kind: str  # "split" | "move" | "replicate" | "merge"
    collection: str
    fragment: str
    target_sites: tuple[str, ...] = ()
    #: Second fragment of a merge (unused otherwise).
    fragment_b: Optional[str] = None
    #: Explicit split boundary path (None = let the rebalancer probe).
    split_path: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "collection": self.collection,
            "fragment": self.fragment,
            "target_sites": list(self.target_sites),
            "fragment_b": self.fragment_b,
            "split_path": self.split_path,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RebalanceAction":
        """Decode a wire payload; a malformed one raises RebalanceError."""
        if not isinstance(payload, dict):
            raise RebalanceError(
                f"REBALANCE needs an action object, got {payload!r}"
            )
        missing = [
            key
            for key in ("kind", "collection", "fragment")
            if not payload.get(key)
        ]
        if missing:
            raise RebalanceError(
                f"rebalance action lacks {', '.join(missing)}"
            )
        return cls(
            kind=payload["kind"],
            collection=payload["collection"],
            fragment=payload["fragment"],
            target_sites=tuple(payload.get("target_sites") or ()),
            fragment_b=payload.get("fragment_b"),
            split_path=payload.get("split_path"),
        )


@dataclass
class MigrationReport:
    """What one migration did (JSON-able for the REBALANCE frame)."""

    kind: str  # "split" | "move" | "replicate" | "merge" | "promote"
    collection: str
    fragment: str
    new_fragments: list[str] = field(default_factory=list)
    target_sites: list[str] = field(default_factory=list)
    documents_moved: int = 0
    bytes_moved: int = 0
    catalog_version_before: int = 0
    catalog_version_after: int = 0
    split_path: Optional[str] = None
    split_values: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    completed: bool = False
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "collection": self.collection,
            "fragment": self.fragment,
            "new_fragments": list(self.new_fragments),
            "target_sites": list(self.target_sites),
            "documents_moved": self.documents_moved,
            "bytes_moved": self.bytes_moved,
            "catalog_version_before": self.catalog_version_before,
            "catalog_version_after": self.catalog_version_after,
            "split_path": self.split_path,
            "split_values": list(self.split_values),
            "elapsed_seconds": self.elapsed_seconds,
            "completed": self.completed,
            "notes": list(self.notes),
        }


class Rebalancer:
    """Apply rebalance actions to a live :class:`Partix` middleware."""

    def __init__(self, partix: "Partix"):
        self.cluster = partix.cluster
        self.catalog = partix.distribution_catalog
        # One migration at a time: concurrent store phases could collide
        # on collection names and the swap must observe a settled design.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def apply(self, action: RebalanceAction) -> MigrationReport:
        """Apply one operator action; raises :class:`RebalanceError` when
        the action is malformed or its migration is impossible."""
        if action.kind in ("move", "replicate") and not action.target_sites:
            raise RebalanceError(f"{action.kind} action needs a target site")
        if action.kind == "split":
            return self.split(
                action.collection,
                action.fragment,
                target_sites=action.target_sites or None,
                path=action.split_path,
            )
        if action.kind == "move":
            return self.move(
                action.collection, action.fragment, action.target_sites[0]
            )
        if action.kind == "replicate":
            return self.replicate(
                action.collection, action.fragment, action.target_sites[0]
            )
        if action.kind == "merge":
            if not action.fragment_b:
                raise RebalanceError("merge action needs a partner fragment")
            return self.merge(
                action.collection,
                action.fragment,
                action.fragment_b,
                action.target_sites[0] if action.target_sites else None,
            )
        raise RebalanceError(f"unknown rebalance action kind {action.kind!r}")

    def split(
        self,
        collection: str,
        fragment: str,
        target_sites: Optional[Sequence[str]] = None,
        path: Optional[str] = None,
    ) -> MigrationReport:
        """Split a hot horizontal fragment at a predicate boundary.

        ``path`` names the boundary selector; without it the rebalancer
        probes the fragment's own predicate paths first, then the leaf
        children of the stored documents' root. ``target_sites`` are the
        two sites receiving the halves (default: the current primary
        keeps the first half, the least-loaded other site gets the
        second).
        """
        with self._lock:
            started = time.perf_counter()
            design, parent, primary = self._locate(collection, fragment)
            if not isinstance(parent, HorizontalFragment):
                raise RebalanceError(
                    f"fragment {fragment!r} of {collection!r} is"
                    f" {type(parent).__name__}; only horizontal fragments"
                    " split by predicate boundary (move it instead)"
                )
            documents = self._stored_documents(primary)
            if len(documents) < 2:
                raise RebalanceError(
                    f"fragment {fragment!r} holds {len(documents)}"
                    " document(s); nothing to split"
                )
            boundary = self._choose_boundary(documents, parent, path)
            if boundary is None:
                raise RebalanceError(
                    f"no single-valued boundary path partitions the"
                    f" {len(documents)} documents of {fragment!r}"
                    " into two non-empty halves"
                )
            boundary_path, chosen_values, part_a, part_b = boundary
            if target_sites is None:
                target_sites = (
                    primary.site,
                    self._least_loaded_site(collection, exclude=(primary.site,)),
                )
            if len(target_sites) != 2:
                raise RebalanceError(
                    f"a split needs exactly 2 target sites, got"
                    f" {len(target_sites)}"
                )
            version = self.catalog.version
            name_a = f"{fragment}_a{version}"
            name_b = f"{fragment}_b{version}"
            group = tuple(eq(boundary_path, value) for value in chosen_values)
            residual = tuple(ne(boundary_path, value) for value in chosen_values)
            child_a = HorizontalFragment(
                name_a,
                collection,
                predicate=_conjoin(
                    parent.predicate,
                    group[0] if len(group) == 1 else Or(group),
                ),
            )
            child_b = HorizontalFragment(
                name_b,
                collection,
                predicate=_conjoin(
                    parent.predicate,
                    residual[0] if len(residual) == 1 else And(residual),
                ),
            )
            report = MigrationReport(
                kind="split",
                collection=collection,
                fragment=fragment,
                new_fragments=[name_a, name_b],
                target_sites=list(target_sites),
                catalog_version_before=version,
                split_path=str(boundary_path),
                split_values=[str(value) for value in chosen_values],
            )

            # Store both halves before the catalog learns anything.
            hybrid_mode = primary.hybrid_mode
            new_allocations = []
            for name, part, site_name in (
                (name_a, part_a, target_sites[0]),
                (name_b, part_b, target_sites[1]),
            ):
                self._store_fragment(collection, name, part, site_name, report)
                new_allocations.append(
                    FragmentAllocation(
                        fragment=name,
                        site=site_name,
                        stored_collection=name,
                        hybrid_mode=hybrid_mode,
                    )
                )

            fragments = [
                child_a if item.name == fragment else item
                for item in design.fragments
            ]
            fragments.insert(fragments.index(child_a) + 1, child_b)
            allocations = [
                allocation
                for item in design.fragments
                if item.name != fragment
                for allocation in self.catalog.replicas(collection, item.name)
            ] + new_allocations
            self._swap(design, fragments, allocations, report)
            report.notes.append(
                f"split {fragment!r} at {report.split_path} ∈"
                f" {report.split_values} → {name_a!r} ({len(part_a)} docs"
                f" on {target_sites[0]!r}) + {name_b!r} ({len(part_b)} docs"
                f" on {target_sites[1]!r})"
            )
            report.elapsed_seconds = time.perf_counter() - started
            return report

    def move(
        self, collection: str, fragment: str, target_site: str
    ) -> MigrationReport:
        """Re-place a fragment's primary on another site (any kind).

        When the target already holds a replica, the move degenerates to
        a *promotion* — the catalog reorders the allocation list, no
        data travels.
        """
        with self._lock:
            started = time.perf_counter()
            design, parent, primary = self._locate(collection, fragment)
            self.cluster.site(target_site)  # must exist
            replicas = self.catalog.replicas(collection, fragment)
            existing = next(
                (r for r in replicas if r.site == target_site), None
            )
            version = self.catalog.version
            report = MigrationReport(
                kind="move",
                collection=collection,
                fragment=fragment,
                new_fragments=[fragment],
                target_sites=[target_site],
                catalog_version_before=version,
            )
            if existing is not None:
                if existing is replicas[0]:
                    raise RebalanceError(
                        f"fragment {fragment!r} is already primary on"
                        f" {target_site!r}"
                    )
                report.kind = "promote"
                new_replicas = [existing] + [
                    r for r in replicas if r is not existing
                ]
                report.notes.append(
                    f"{target_site!r} already holds a replica; promoted it"
                    " to primary without copying data"
                )
            else:
                documents = self._stored_documents(primary)
                stored_name = f"{fragment}__v{version}"
                self._store_raw(
                    collection,
                    fragment,
                    stored_name,
                    documents,
                    target_site,
                    report,
                )
                new_replicas = [
                    FragmentAllocation(
                        fragment=fragment,
                        site=target_site,
                        stored_collection=stored_name,
                        hybrid_mode=primary.hybrid_mode,
                    )
                ] + [r for r in replicas if r.site != target_site]
                report.notes.append(
                    f"copied {report.documents_moved} documents to"
                    f" {target_site!r} as {stored_name!r}; old copy on"
                    f" {primary.site!r} is no longer routed"
                )
            allocations = [
                allocation
                for item in design.fragments
                for allocation in (
                    new_replicas
                    if item.name == fragment
                    else self.catalog.replicas(collection, item.name)
                )
            ]
            self._swap(design, list(design.fragments), allocations, report)
            report.elapsed_seconds = time.perf_counter() - started
            return report

    def replicate(
        self, collection: str, fragment: str, target_site: str
    ) -> MigrationReport:
        """Add a replica of a fragment on another site."""
        with self._lock:
            started = time.perf_counter()
            design, parent, primary = self._locate(collection, fragment)
            self.cluster.site(target_site)  # must exist
            replicas = self.catalog.replicas(collection, fragment)
            if any(r.site == target_site for r in replicas):
                raise RebalanceError(
                    f"fragment {fragment!r} already has a replica on"
                    f" {target_site!r}"
                )
            version = self.catalog.version
            report = MigrationReport(
                kind="replicate",
                collection=collection,
                fragment=fragment,
                new_fragments=[fragment],
                target_sites=[target_site],
                catalog_version_before=version,
            )
            documents = self._stored_documents(primary)
            stored_name = f"{fragment}__r{version}"
            self._store_raw(
                collection, fragment, stored_name, documents, target_site, report
            )
            new_replicas = replicas + [
                FragmentAllocation(
                    fragment=fragment,
                    site=target_site,
                    stored_collection=stored_name,
                    hybrid_mode=primary.hybrid_mode,
                )
            ]
            allocations = [
                allocation
                for item in design.fragments
                for allocation in (
                    new_replicas
                    if item.name == fragment
                    else self.catalog.replicas(collection, item.name)
                )
            ]
            self._swap(design, list(design.fragments), allocations, report)
            report.elapsed_seconds = time.perf_counter() - started
            return report

    def merge(
        self,
        collection: str,
        fragment: str,
        fragment_b: str,
        target_site: Optional[str] = None,
    ) -> MigrationReport:
        """Fuse two cold horizontal siblings into one fragment."""
        with self._lock:
            started = time.perf_counter()
            design, parent_a, primary_a = self._locate(collection, fragment)
            _, parent_b, primary_b = self._locate(collection, fragment_b)
            if not isinstance(parent_a, HorizontalFragment) or not isinstance(
                parent_b, HorizontalFragment
            ):
                raise RebalanceError(
                    "merge only fuses horizontal fragments"
                    f" ({fragment!r} is {type(parent_a).__name__},"
                    f" {fragment_b!r} is {type(parent_b).__name__})"
                )
            if target_site is None:
                target_site = primary_a.site
            self.cluster.site(target_site)  # must exist
            version = self.catalog.version
            merged_name = f"{fragment}_m{version}"
            merged = HorizontalFragment(
                merged_name,
                collection,
                predicate=Or((parent_a.predicate, parent_b.predicate)),
            )
            report = MigrationReport(
                kind="merge",
                collection=collection,
                fragment=fragment,
                new_fragments=[merged_name],
                target_sites=[target_site],
                catalog_version_before=version,
                notes=[f"merging {fragment!r} + {fragment_b!r}"],
            )
            documents = self._stored_documents(primary_a) + (
                self._stored_documents(primary_b)
            )
            self._store_raw(
                collection, merged_name, merged_name, documents, target_site, report
            )
            fragments = []
            for item in design.fragments:
                if item.name == fragment:
                    fragments.append(merged)
                elif item.name != fragment_b:
                    fragments.append(item)
            allocations = [
                allocation
                for item in fragments
                if item.name != merged_name
                for allocation in self.catalog.replicas(collection, item.name)
            ] + [
                FragmentAllocation(
                    fragment=merged_name,
                    site=target_site,
                    stored_collection=merged_name,
                    hybrid_mode=primary_a.hybrid_mode,
                )
            ]
            self._swap(design, fragments, allocations, report)
            report.elapsed_seconds = time.perf_counter() - started
            return report

    # ------------------------------------------------------------------
    # Mechanics
    # ------------------------------------------------------------------
    def _locate(self, collection: str, fragment: str):
        """(design, fragment object, primary allocation) or RebalanceError."""
        try:
            design = self.catalog.fragmentation(collection)
            parent = design.fragment(fragment)
            primary = self.catalog.allocation(collection, fragment)
        except (CatalogError, FragmentationError) as exc:
            raise RebalanceError(str(exc)) from exc
        return design, parent, primary

    def _stored_documents(
        self, allocation: FragmentAllocation
    ) -> list["StoredDocument"]:
        """The fragment's serialized documents, read from its primary."""
        site = self.cluster.site(allocation.site)
        engine = getattr(site.driver, "engine", None)
        if engine is None:
            raise RebalanceError(
                f"cannot read fragment {allocation.fragment!r}: site"
                f" {allocation.site!r} has no local engine (remote-only"
                " drivers are not migratable)"
            )
        store = engine.store.collection(allocation.stored_collection)
        return [store.get(name) for name in store.names()]

    def _choose_boundary(
        self,
        documents: Sequence["StoredDocument"],
        parent: HorizontalFragment,
        path: Optional[str],
    ):
        """Pick (path, chosen values, part_a, part_b) splitting ``documents``.

        Only paths with exactly one value in *every* document qualify —
        that keeps each child's predicate exact for the documents it
        holds, which is what makes localization pruning safe.
        """
        roots = [stored.binary.root for stored in documents]
        candidates = (
            [path]
            if path is not None
            else self._candidate_paths(parent, roots[0])
        )
        for candidate in candidates:
            values = []
            usable = True
            for root in roots:
                nodes = evaluate_path(candidate, root)
                if len(nodes) != 1 or _element_children(nodes[0]):
                    usable = False
                    break
                values.append(nodes[0].text_value())
            if not usable:
                continue
            tally = Counter(values)
            if len(tally) < 2:
                continue
            # Greedy half-split: heaviest values first until ≥ half the
            # documents are covered, always leaving the other side
            # non-empty.
            chosen: list[str] = []
            covered = 0
            for value, count in tally.most_common():
                if chosen and covered + count > len(documents) - 1:
                    break
                chosen.append(value)
                covered += count
                if covered >= len(documents) / 2:
                    break
            chosen_set = set(chosen)
            part_a = [
                stored
                for stored, value in zip(documents, values)
                if value in chosen_set
            ]
            part_b = [
                stored
                for stored, value in zip(documents, values)
                if value not in chosen_set
            ]
            if part_a and part_b:
                return candidate, chosen, part_a, part_b
        return None

    def _candidate_paths(
        self, parent: HorizontalFragment, root: Node
    ) -> list[str]:
        """Boundary candidates: the fragment predicate's own equality
        paths first (known selectors), then leaf children of the root."""
        paths: list[str] = []
        for atom in atoms(parent.predicate):
            if isinstance(atom, Comparison) and atom.op in ("=", "!="):
                text = str(atom.path)
                if text not in paths:
                    paths.append(text)
        root_label = root.label or ""
        seen = set(paths)
        for child in _element_children(root):
            if child.label is None or _element_children(child):
                continue
            text = f"/{root_label}/{child.label}"
            if text not in seen:
                seen.add(text)
                paths.append(text)
        return paths

    def _least_loaded_site(
        self, collection: str, exclude: Sequence[str] = ()
    ) -> str:
        """The cluster site hosting the fewest primary fragments."""
        load: Counter = Counter()
        for name in self.catalog.fragmented_collections():
            design = self.catalog.fragmentation(name)
            for item in design.fragments:
                load[self.catalog.allocation(name, item.name).site] += 1
        candidates = [
            name
            for name in self.cluster.site_names()
            if name not in exclude
        ]
        if not candidates:
            raise RebalanceError(
                f"no target site available for {collection!r} outside"
                f" {list(exclude)!r}"
            )
        return min(candidates, key=lambda name: (load[name], name))

    def _store_fragment(
        self,
        collection: str,
        fragment_name: str,
        documents: Sequence["StoredDocument"],
        site_name: str,
        report: MigrationReport,
    ) -> None:
        self._store_raw(
            collection, fragment_name, fragment_name, documents, site_name, report
        )

    def _store_raw(
        self,
        collection: str,
        fragment_name: str,
        stored_name: str,
        documents: Sequence["StoredDocument"],
        site_name: str,
        report: MigrationReport,
    ) -> None:
        """Copy serialized documents to a site and record the new
        replica's planner statistics."""
        site = self.cluster.site(site_name)
        driver = site.driver
        if getattr(driver, "engine", None) is not None and driver.engine.has_collection(
            stored_name
        ):
            raise RebalanceError(
                f"site {site_name!r} already stores a collection named"
                f" {stored_name!r}; refusing to overwrite"
            )
        driver.create_collection(stored_name)
        for stored in documents:
            driver.store_document(
                stored_name,
                serialize(stored.binary.root),
                name=stored.name,
                origin=stored.origin,
            )
        doc_count, data_bytes = driver.collection_statistics(stored_name)
        self.catalog.record_statistics(
            collection,
            fragment_name,
            site_name,
            doc_count,
            data_bytes,
            summary=driver.value_summary(stored_name),
        )
        report.documents_moved += doc_count
        report.bytes_moved += data_bytes

    def _swap(
        self,
        design: FragmentationSchema,
        fragments,
        allocations,
        report: MigrationReport,
    ) -> None:
        """Step 3: atomically install the new design (version bump)."""
        schema = FragmentationSchema(
            design.collection,
            fragments,
            root_label=design.root_label,
            schema=design.schema,
            root_type=design.root_type,
        )
        self.catalog.register_fragmentation(
            schema, allocations, replace=True
        )
        report.catalog_version_after = self.catalog.version
        report.completed = True


# ----------------------------------------------------------------------
def _element_children(node: Node) -> list[Node]:
    return node.select(NodeKind.ELEMENT, None, False)


def _conjoin(base: Optional[Predicate], extra: Predicate) -> Predicate:
    """``base ∧ extra`` with flat And nesting (readable EXPLAIN output)."""
    if base is None:
        return extra
    base_parts = base.parts if isinstance(base, And) else (base,)
    extra_parts = extra.parts if isinstance(extra, And) else (extra,)
    return And(tuple(base_parts) + tuple(extra_parts))
