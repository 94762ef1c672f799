"""Explicit query-plan IR: plan → lower → execute.

The paper's §3.3 methodology is plan-shaped — localize the global query
onto fragments, run the sub-queries in parallel, recompose — and this
package materializes that plan instead of leaving it implicit in the
decomposer/middleware control flow:

* :mod:`repro.plan.logical` — the logical IR the decomposer emits:
  ``FragmentScan`` leaves (one per relevant fragment, carrying one
  *candidate* per replica) under ``Union`` / ``MergeAggregate`` +
  ``PartialAggregate`` / ``IdJoin``, rooted in a ``Compose`` node.
* :mod:`repro.plan.cost` — the cost model: catalog fragment statistics
  (documents / bytes, recorded at publish time) combined with the
  :class:`~repro.cluster.network.NetworkModel`.
* :mod:`repro.plan.lower` — lowering to a :class:`PhysicalPlan`: one
  *lane* per scan with cost-based site/replica selection and pushdown
  recorded as plan attributes.
* :mod:`repro.plan.explain` — the indented ``EXPLAIN`` tree with
  per-node cost estimates, plus dict round-tripping.
* :mod:`repro.plan.cache` — a bounded LRU of *logical* plans keyed on
  ``(query, collection, catalog_version)``; hits re-lower against the
  live site health, so cached queries still avoid ejected sites.
* :mod:`repro.plan.executor` — the single plan-driven executor every
  execution mode runs through (modes are Transport choices, nothing
  more), and the :class:`ExecutionMode` parser.
"""

from repro.plan.cache import PlanCache
from repro.plan.cost import CostEstimate, CostModel
from repro.plan.executor import ExecutedPlan, ExecutionMode, PlanExecutor
from repro.plan.explain import plan_from_dict, plan_to_dict, render_plan
from repro.plan.logical import (
    Compose,
    FragmentScan,
    IdJoin,
    LogicalPlan,
    MergeAggregate,
    PartialAggregate,
    ScanCandidate,
    Union,
)
from repro.plan.lower import lower, lower_annotated
from repro.plan.physical import Lane, PhysicalPlan, PlanNode
from repro.plan.spec import CompositionSpec, SubQuery

__all__ = [
    "Compose",
    "CompositionSpec",
    "CostEstimate",
    "CostModel",
    "ExecutedPlan",
    "ExecutionMode",
    "FragmentScan",
    "IdJoin",
    "Lane",
    "LogicalPlan",
    "MergeAggregate",
    "PartialAggregate",
    "PhysicalPlan",
    "PlanCache",
    "PlanExecutor",
    "PlanNode",
    "ScanCandidate",
    "SubQuery",
    "Union",
    "lower",
    "lower_annotated",
    "plan_from_dict",
    "plan_to_dict",
    "render_plan",
]
