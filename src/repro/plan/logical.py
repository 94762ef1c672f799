"""The logical plan IR the query decomposer emits.

A logical plan says *what* has to happen — which fragments are scanned,
whether partial aggregates are pushed down, how partials recombine —
without committing to *where* each scan runs. Site placement is a
lowering decision: every :class:`FragmentScan` carries one
:class:`ScanCandidate` per replica of its fragment (catalog order,
primary first), each with the fully rewritten sub-query text for that
replica's stored collection; :func:`repro.plan.lower.lower` picks one
candidate per scan with the cost model.

Tree shapes (always rooted in :class:`Compose`):

* concat      — ``Compose(Union(FragmentScan…))``
* aggregate   — ``Compose(MergeAggregate(PartialAggregate(FragmentScan)…))``
* reconstruct — ``Compose(IdJoin(FragmentScan(purpose="fetch")…))``

An all-fragments-pruned query keeps its shape with zero scans — the
composer then produces the empty result / aggregate identity.

A plan is one round of scans, or *keys-then-answer* (the vertical
semi-join): :attr:`LogicalPlan.key_scans` run first, each answering the
``pxorigin`` of the documents its fragment's share of the ``where``
selects; the executor intersects them and writes the surviving origins
into the one scan of the tree, whose candidates are templates over
``px:collection("F")`` (:func:`repro.plan.spec.origin_restricted`).
Two stages at most — not a lane DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple
from typing import Union as TUnion

from repro.plan.spec import CompositionSpec


@dataclass(frozen=True)
class ScanCandidate:
    """One replica a scan could run at, with its rewritten sub-query."""

    site: str
    stored_collection: str
    query: str


@dataclass(frozen=True)
class FragmentScan:
    """Scan one fragment: run the localized sub-query at some replica."""

    fragment: str
    candidates: Tuple[ScanCandidate, ...]
    purpose: str = "answer"  # "answer" | "fetch" | "keys"
    #: Crude estimate of the fraction of the fragment's bytes the scan
    #: returns (see ``QueryAnalysis.selectivity_hint``); the cost model
    #: turns it into an estimated result size.
    selectivity: float = 1.0
    #: What a ``purpose="fetch"`` scan keeps of each stored document: the
    #: path arguments of its ``px:project`` sub-query (EXPLAIN annotation;
    #: ``(".",)`` is the whole document, None on answer scans).
    project: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class PartialAggregate:
    """A per-fragment partial aggregate (the pushdown, made explicit)."""

    op: str  # count | sum | min | max | avg | exists | empty
    child: FragmentScan


@dataclass(frozen=True)
class Union:
    """Bag-union of fragment streams (catalog fragment order)."""

    children: Tuple[FragmentScan, ...]


@dataclass(frozen=True)
class MergeAggregate:
    """Fold the partial aggregates into the final scalar."""

    op: str
    children: Tuple[PartialAggregate, ...]


@dataclass(frozen=True)
class IdJoin:
    """Reconstruct source documents from fetched fragments, re-query."""

    original_query: str
    source_collection: Optional[str]
    root_label: Optional[str]
    children: Tuple[FragmentScan, ...]


@dataclass(frozen=True)
class Compose:
    """Plan root: emit the composed answer of its single input."""

    child: TUnion[Union, MergeAggregate, IdJoin]


@dataclass
class LogicalPlan:
    """The decomposer's full output, pre-lowering."""

    collection: str
    root: Compose
    composition: CompositionSpec
    notes: list = field(default_factory=list)
    #: Horizontal fragments localization dropped because their recorded
    #: value summary proves the query's selection empty there.
    summary_pruned: Tuple[str, ...] = ()
    #: Stage one of a keys-then-answer plan (``purpose="keys"`` scans,
    #: one per fragment the ``where`` reads besides the answering one);
    #: empty for a one-round plan.
    key_scans: Tuple[FragmentScan, ...] = ()

    def scans(self) -> list:
        """The tree's :class:`FragmentScan` leaves in plan order (the
        answer stage; :attr:`key_scans` are not among them)."""
        child = self.root.child
        if isinstance(child, MergeAggregate):
            return [partial.child for partial in child.children]
        return list(child.children)
