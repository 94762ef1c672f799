"""Execution modes and the single plan-driven executor.

:class:`ExecutionMode` parses the public mode names once — there is no
string special-casing downstream. There are three modes; ``"tcp-stream"``
is still read as a spelling of ``"tcp"`` (the site sizes every reply
now, so there is nothing left for the name to select).

:class:`PlanExecutor` is the one execution path every mode runs through:
it dispatches the physical plan's lanes through a
:class:`~repro.cluster.dispatch.ParallelDispatcher` over whatever
:class:`~repro.cluster.dispatch.Transport` the mode selects (a
lock-serialized in-process transport reproduces the paper's sequential
"simulated" round), threads the plan-node identities into the measured
executions, and composes the lanes' answer texts in plan order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cluster.dispatch import ParallelDispatcher, Transport
from repro.cluster.site import ParallelRound
from repro.plan.physical import PhysicalPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.partix.composer import ComposedResult, ResultComposer


@dataclass(frozen=True)
class ExecutionMode:
    """One parsed execution mode: a transport choice plus a flag."""

    name: str
    transport: str  # "in-process" | "tcp"
    concurrent: bool
    streaming = False  # constant: benchmarks/e2e/tracing.py reads it

    _REGISTRY = None  # populated below

    @classmethod
    def parse(cls, name: str) -> "ExecutionMode":
        """Parse a public mode name.

        Raises ``ValueError`` listing the valid modes on anything else.
        """
        if name == "tcp-stream":  # benchmarks/e2e still spells it
            name = "tcp"
        try:
            return cls._REGISTRY[name]
        except (KeyError, TypeError):
            valid = ", ".join(repr(key) for key in cls._REGISTRY)
            raise ValueError(
                f"execution_mode must be one of {valid}; got {name!r}"
            ) from None

    @classmethod
    def names(cls) -> tuple:
        return tuple(cls._REGISTRY)


ExecutionMode._REGISTRY = {
    "simulated": ExecutionMode("simulated", "in-process", False),
    "threads": ExecutionMode("threads", "in-process", True),
    "tcp": ExecutionMode("tcp", "tcp", True),
}


@dataclass
class ExecutedPlan:
    """What one plan execution produced, pre-accounting."""

    round: ParallelRound
    composed: "ComposedResult"
    notes: list = field(default_factory=list)


class PlanExecutor:
    """Runs a physical plan's lanes and composes the answer."""

    def __init__(self, composer: "ResultComposer"):
        self.composer = composer

    def run(
        self,
        plan: PhysicalPlan,
        transport: Transport,
        dispatcher: ParallelDispatcher,
        default_collection: Optional[str] = None,
        subquery_timeout: Optional[float] = None,
    ) -> ExecutedPlan:
        subqueries = plan.subqueries
        # The timeout is only passed when set so dispatcher subclasses
        # with older dispatch() signatures keep working.
        extra: dict = {}
        if subquery_timeout is not None:
            extra["subquery_timeout"] = subquery_timeout
        outcome = dispatcher.dispatch(
            transport,
            subqueries,
            default_collection=default_collection,
            **extra,
        )
        for lane, execution in zip(plan.lanes, outcome.executions_by_index):
            if execution is not None:
                execution.plan_node = lane.node_id
                execution.estimated_seconds = (
                    lane.estimate.total_seconds
                    if lane.estimate is not None
                    else None
                )
        # A lane the degrade policy dropped has no execution and is left
        # out of the answer.
        partials = [
            (subqueries[index], execution.result.result_text)
            for index, execution in enumerate(outcome.executions_by_index)
            if execution is not None
        ]
        composed = self.composer.compose(plan.composition, partials)
        return ExecutedPlan(
            round=outcome.round, composed=composed, notes=list(outcome.notes)
        )
