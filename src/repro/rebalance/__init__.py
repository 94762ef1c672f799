"""Online fragment rebalancing (``repro.rebalance``).

The fragmentation design is the operator's (PartiX §3), and so is every
change to it made while queries run:

* :class:`~repro.rebalance.migrate.RebalanceAction` — one re-placement
  an operator asks for: split a horizontal fragment at a predicate
  boundary, move or replicate a fragment to another site, or merge two
  horizontal siblings.
* :class:`~repro.rebalance.migrate.Rebalancer` — applies an action
  online, copying the stored documents first and only then atomically
  swapping the catalog registration (one version bump), so in-flight
  queries finish against the old placement while the plan cache
  invalidates and new queries lower against the new one.
* :class:`~repro.rebalance.log.QueryLog` — the coordinator's workload
  memory: per query it records the text, collection, catalog version,
  end-to-end seconds and per-lane observations (fragment, site,
  estimated vs measured seconds, result bytes).

The coordinator applies an action sent in a REBALANCE frame, and
``python -m repro.rebalance apply`` sends one from the command line.
"""

from repro.rebalance.log import LaneObservation, QueryLog, QueryLogEntry
from repro.rebalance.migrate import (
    MigrationReport,
    RebalanceAction,
    Rebalancer,
)

__all__ = [
    "LaneObservation",
    "MigrationReport",
    "QueryLog",
    "QueryLogEntry",
    "RebalanceAction",
    "Rebalancer",
]
