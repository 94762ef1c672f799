"""The physical plan: lanes plus one composition.

A :class:`PhysicalPlan` is what :meth:`Partix.explain` returns and what
the single plan executor runs, whatever the execution mode: the answer
lanes (after the key lanes of a keys-then-answer plan), the
:class:`CompositionSpec` the composer folds their partial results with,
and the composition step's one cost estimate. It keeps the
decomposer-era surface (``subqueries`` / ``composition`` / ``notes`` /
``fragment_names``) so existing callers — the composer, the fuzz oracle,
the bench scenarios — read it unchanged. The plan has no node tree:
:func:`repro.plan.explain.render_plan` draws one from
``composition.kind`` and the key lanes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.cluster.site import staged_seconds
from repro.plan.cost import CostEstimate
from repro.plan.spec import CompositionSpec, SubQuery


@dataclass
class Lane:
    """One physical scan assignment: plan index, node and sub-query.

    ``node_id`` (``scan{i}`` / ``keys{i}``) is the lane's stable
    identity, threaded into ``SubQueryExecution.plan_node`` so measured
    per-lane timings can be joined back to the estimates.
    """

    index: int
    node_id: str
    subquery: SubQuery
    estimate: Optional[CostEstimate] = None
    #: How many replica candidates lowering chose between.
    candidates: int = 1
    #: What a fetch lane keeps of each stored document (its
    #: ``px:project`` paths; ``(".",)`` is the whole document), None on
    #: answer and key lanes.
    project: Optional[Tuple[str, ...]] = None


@dataclass
class PhysicalPlan:
    """The lowered plan the executor runs (all modes, one code path)."""

    collection: str
    lanes: list = field(default_factory=list)
    composition: CompositionSpec = field(
        default_factory=lambda: CompositionSpec(kind="concat")
    )
    #: The composition step's estimate (union, merge of the partial
    #: aggregates, or ID-join) over the answer lanes.
    composition_estimate: Optional[CostEstimate] = None
    notes: list = field(default_factory=list)
    #: Horizontal fragments that got no lane because their recorded
    #: value summary proves the query's selection empty there (EXPLAIN
    #: prints them as a note of their own).
    summary_pruned: list = field(default_factory=list)
    #: Stage one of a keys-then-answer plan (the vertical semi-join):
    #: these lanes run first and answer join keys; ``lanes`` — then one
    #: template over ``px:collection`` — runs second, restricted to the
    #: keys every key lane returned. Empty for a one-round plan.
    key_lanes: list = field(default_factory=list)

    # -- decomposer-era surface ----------------------------------------
    @property
    def subqueries(self) -> list:
        """Every sub-query the plan may send, in dispatch order (key
        lanes first; the answer lane of a two-stage plan as its
        template)."""
        return [lane.subquery for lane in (*self.key_lanes, *self.lanes)]

    @property
    def fragment_names(self) -> list:
        return [subquery.fragment for subquery in self.subqueries]

    # ------------------------------------------------------------------
    @property
    def estimated_parallel_seconds(self) -> float:
        """Estimated completion: each stage's slowest site's lane budget
        (the stages run one after the other) plus the composition's
        CPU."""
        stages = [
            [
                (lane.subquery.site, lane.estimate.total_seconds)
                for lane in lanes
                if lane.estimate is not None
            ]
            for lanes in (self.key_lanes, self.lanes)
        ]
        composing = self.composition_estimate
        return staged_seconds(stages) + (
            composing.cpu_seconds if composing is not None else 0.0
        )

    # ------------------------------------------------------------------
    def with_execution(self, streaming, chunk_bytes) -> "PhysicalPlan":
        return self  # no-op: benchmarks/e2e/tracing.py calls it

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The indented EXPLAIN tree with per-node cost estimates."""
        from repro.plan.explain import render_plan

        return render_plan(self)

    def to_dict(self) -> dict:
        from repro.plan.explain import plan_to_dict

        return plan_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "PhysicalPlan":
        from repro.plan.explain import plan_from_dict

        return plan_from_dict(payload)
