"""Execution modes and the single plan-driven executor.

:class:`ExecutionMode` parses the public mode names once — there is no
string special-casing downstream. There are three modes; ``"tcp-stream"``
is still read as a spelling of ``"tcp"`` (the site sizes every reply
now, so there is nothing left for the name to select).

:class:`PlanExecutor` is the one execution path every mode runs through:
it dispatches the physical plan's lanes — in one round, or the key lanes
and then the answer lane of a vertical semi-join — through a
:class:`~repro.cluster.dispatch.ParallelDispatcher` over whatever
:class:`~repro.cluster.dispatch.Transport` the mode selects (a
lock-serialized in-process transport reproduces the paper's sequential
"simulated" round), threads the plan-node identities into the measured
executions, and composes the lanes' answer texts in plan order. A lane
whose every replica failed raises :class:`~repro.errors.DispatchError`,
whatever the composition kind — nothing composes an answer with a
fragment missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.cluster.dispatch import (
    DispatchOutcome,
    ParallelDispatcher,
    SubQueryFailure,
    Transport,
)
from repro.cluster.site import ParallelRound
from repro.errors import DispatchError
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
    """Runs a physical plan's lanes and composes the answer.

    The one place lanes are dispatched and composed. A plan is one round
    or *keys-then-answer* (:attr:`PhysicalPlan.key_lanes`): the key lanes
    are dispatched first, the origins every one of them returned are
    written into the answer lane's template, and that lane is dispatched
    with what is left of the deadline; both stages' executions land in
    one :class:`~repro.cluster.site.ParallelRound`.
    """

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
        def dispatch(lanes: list, timeout: Optional[float]) -> DispatchOutcome:
            """One round over ``lanes``, its executions stamped with
            their plan nodes."""
            outcome = dispatcher.dispatch(
                transport,
                [lane.subquery for lane in lanes],
                default_collection=default_collection,
                subquery_timeout=timeout,
            )
            for lane, execution in zip(lanes, outcome.round.executions):
                execution.plan_node = lane.node_id
                execution.estimated_seconds = (
                    lane.estimate.total_seconds
                    if lane.estimate is not None
                    else None
                )
            return outcome

        lanes = plan.lanes
        keyed = None
        if plan.key_lanes:
            keyed = dispatch(plan.key_lanes, subquery_timeout)
            keys = _common_keys(
                [execution.result.result_text for execution in keyed.round.executions]
            )
            if not keys:
                # No document passes every key-side condition: the answer
                # is empty (or the aggregate identity), nothing more is sent.
                lanes = []
            else:
                lanes = [
                    replace(lane, subquery=lane.subquery.restricted_to(keys))
                    for lane in lanes
                ]
                if subquery_timeout is not None:
                    subquery_timeout -= keyed.round.measured_wall_seconds
                    if subquery_timeout <= 0:
                        raise _deadline_passed(lanes)
        answered = dispatch(lanes, subquery_timeout)
        partials = [
            (lane.subquery, execution.result.result_text)
            for lane, execution in zip(lanes, answered.round.executions)
        ]
        composed = self.composer.compose(plan.composition, partials)
        round_, notes = answered.round, list(answered.notes)
        if keyed is not None:
            round_ = ParallelRound(
                executions=keyed.round.executions + round_.executions,
                measured_wall_seconds=keyed.round.measured_wall_seconds
                + round_.measured_wall_seconds,
                key_executions=len(keyed.round.executions),
            )
            notes = keyed.notes + notes
        return ExecutedPlan(round=round_, composed=composed, notes=notes)


def _common_keys(answers: list) -> list:
    """The join keys every key lane answered, in the first lane's order
    (one origin per line, as the site serializes a string sequence)."""
    first, *others = [answer.split("\n") if answer else [] for answer in answers]
    for other in map(frozenset, others):
        first = [key for key in first if key in other]
    return first


def _deadline_passed(lanes: list) -> DispatchError:
    """The typed failure of an answer stage the key stage left no time
    for: nothing is dispatched, every lane counts as timed out."""
    error = TimeoutError(
        "the deadline passed during the key stage; the answer stage was"
        " not dispatched"
    )
    failures = [
        SubQueryFailure(
            site=lane.subquery.site,
            fragment=lane.subquery.fragment,
            query=lane.subquery.query,
            attempts=0,
            error=error,
            timed_out=True,
        )
        for lane in lanes
    ]
    return DispatchError(
        "; ".join(failure.describe() for failure in failures),
        failures=failures,
    )
