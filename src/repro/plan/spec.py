"""The physical plan's leaf vocabulary: sub-queries and composition.

These two dataclasses predate the plan IR (they were born in
``repro.partix.decomposer``) and remain the contract between the plan
layer, the dispatcher and the result composer: a :class:`SubQuery` is
what a transport lane executes, a :class:`CompositionSpec` is what the
composer folds partial results with. They live here so the plan package
is self-contained; ``repro.partix.decomposer`` re-exports them for
compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple


def origin_restricted(collection: str, origins: Sequence[str] = ()) -> str:
    """The text of ``px:collection("collection", "origin", …)`` as
    ``unparse`` writes it: the stored collection restricted to the
    documents of those origins. With no origin it is the *key slot* of a
    stage-two sub-query template (see :meth:`SubQuery.restricted_to`) —
    valid XQuery selecting nothing, so a template run unfilled answers
    empty, never the whole fragment."""
    quoted = ", ".join(
        '"' + text.replace('"', '""') + '"' for text in (collection, *origins)
    )
    return f"px:collection({quoted})"


@dataclass(frozen=True)
class SubQueryTarget:
    """One concrete place a sub-query can run: a replica's site plus the
    sub-query text rewritten for that replica's stored collection."""

    site: str
    collection: str
    query: str

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "collection": self.collection,
            "query": self.query,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SubQueryTarget":
        return cls(
            site=payload["site"],
            collection=payload["collection"],
            query=payload["query"],
        )


@dataclass(frozen=True)
class SubQuery:
    """One sub-query targeted at one fragment's site.

    ``site``/``collection``/``query`` name the *primary* target lowering
    chose; ``replicas`` lists the alternative targets (other replicas of
    the same fragment, catalog order) the dispatcher may fail over to
    when the primary target's site stops answering.
    """

    fragment: str
    site: str
    collection: str
    query: str
    purpose: str = "answer"  # "answer" | "fetch" | "keys"
    replicas: Tuple[SubQueryTarget, ...] = field(default=(), compare=True)

    def targets(self) -> Tuple[SubQueryTarget, ...]:
        """Every place this sub-query can run, chosen target first."""
        primary = SubQueryTarget(
            site=self.site, collection=self.collection, query=self.query
        )
        return (primary,) + tuple(
            target for target in self.replicas if target.site != self.site
        )

    def retarget(self, target: SubQueryTarget) -> "SubQuery":
        """This sub-query re-aimed at ``target`` (fragment, purpose and
        the full replica list are preserved)."""
        if (
            target.site == self.site
            and target.collection == self.collection
            and target.query == self.query
        ):
            return self
        return replace(
            self,
            site=target.site,
            collection=target.collection,
            query=target.query,
        )

    def restricted_to(self, origins: Sequence[str]) -> "SubQuery":
        """This stage-two template with ``origins`` written into the key
        slot of every target — each replica reads its own stored
        collection, so a failover re-sends the same keys. The slot text
        cannot occur inside a string literal (``unparse`` doubles the
        quotes there), so the replacement only ever hits the call."""

        def fill(target_collection: str, query: str) -> str:
            return query.replace(
                origin_restricted(target_collection),
                origin_restricted(target_collection, origins),
            )

        return replace(
            self,
            query=fill(self.collection, self.query),
            replicas=tuple(
                replace(target, query=fill(target.collection, target.query))
                for target in self.replicas
            ),
        )

    def to_dict(self) -> dict:
        payload = {
            "fragment": self.fragment,
            "site": self.site,
            "collection": self.collection,
            "query": self.query,
            "purpose": self.purpose,
        }
        if self.replicas:
            payload["replicas"] = [
                target.to_dict() for target in self.replicas
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SubQuery":
        return cls(
            fragment=payload["fragment"],
            site=payload["site"],
            collection=payload["collection"],
            query=payload["query"],
            purpose=payload.get("purpose", "answer"),
            replicas=tuple(
                SubQueryTarget.from_dict(target)
                for target in payload.get("replicas", ())
            ),
        )


@dataclass(frozen=True)
class CompositionSpec:
    """How partial results combine into the final answer."""

    kind: str  # "concat" | "aggregate" | "reconstruct"
    aggregate: Optional[str] = None
    original_query: Optional[str] = None
    source_collection: Optional[str] = None
    root_label: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "aggregate": self.aggregate,
            "original_query": self.original_query,
            "source_collection": self.source_collection,
            "root_label": self.root_label,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CompositionSpec":
        return cls(
            kind=payload["kind"],
            aggregate=payload.get("aggregate"),
            original_query=payload.get("original_query"),
            source_collection=payload.get("source_collection"),
            root_label=payload.get("root_label"),
        )
