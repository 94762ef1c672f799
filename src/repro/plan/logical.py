"""The logical plan the query decomposer emits.

A logical plan says *what* has to happen — which fragments are scanned
and how their answers compose — without committing to *where* each scan
runs. It is its scans plus its composition (PartiX §3.3: one sub-query
per relevant fragment, then one composition step). Site placement is a
lowering decision: every :class:`FragmentScan` carries one
:class:`~repro.plan.spec.SubQueryTarget` per replica of its fragment
(catalog order, primary first), each with the fully rewritten sub-query
text for that replica's stored collection;
:func:`repro.plan.lower.lower` picks one candidate per scan with the
cost model.

``composition.kind`` says how the answer scans' partial results
combine: ``concat`` unions them, ``aggregate`` merges pushed-down
partial aggregates, ``reconstruct`` ID-joins fetched fragments and
re-runs the query. An all-fragments-pruned query keeps its composition
with zero scans — the composer then produces the empty result /
aggregate identity.

A plan is one round of scans, or *keys-then-answer* (the vertical
semi-join): :attr:`LogicalPlan.key_scans` run first, each answering the
``pxorigin`` of the documents its fragment's share of the ``where``
selects; the executor intersects them and writes the surviving origins
into the one answer scan, whose candidates are templates over
``px:collection("F")`` (:func:`repro.plan.spec.origin_restricted`).
Two stages at most — not a lane DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.plan.spec import CompositionSpec, SubQueryTarget


@dataclass(frozen=True)
class FragmentScan:
    """Scan one fragment: run the localized sub-query at some replica."""

    fragment: str
    candidates: Tuple[SubQueryTarget, ...]
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
class LogicalPlan:
    """The decomposer's full output, pre-lowering."""

    collection: str
    composition: CompositionSpec
    #: The answer stage, in catalog fragment order.
    scans: Tuple[FragmentScan, ...] = ()
    #: Stage one of a keys-then-answer plan (``purpose="keys"`` scans,
    #: one per fragment the ``where`` reads besides the answering one);
    #: empty for a one-round plan.
    key_scans: Tuple[FragmentScan, ...] = ()
    notes: Tuple[str, ...] = ()
    #: Horizontal fragments localization dropped because their recorded
    #: value summary proves the query's selection empty there.
    summary_pruned: Tuple[str, ...] = ()
