"""Simulated cluster: sites, network model, parallel-round accounting,
and the real concurrent dispatcher."""

from repro.cluster.dispatch import (
    DispatchOutcome,
    InProcessTransport,
    ParallelDispatcher,
    SubQueryFailure,
    Transport,
)
from repro.cluster.health import SiteHealth
from repro.cluster.network import FREE_NETWORK, GIGABIT_PER_SECOND, NetworkModel
from repro.cluster.site import Cluster, ParallelRound, Site, SubQueryExecution

__all__ = [
    "Cluster",
    "DispatchOutcome",
    "FREE_NETWORK",
    "GIGABIT_PER_SECOND",
    "InProcessTransport",
    "NetworkModel",
    "SiteHealth",
    "Transport",
    "ParallelDispatcher",
    "ParallelRound",
    "Site",
    "SubQueryExecution",
    "SubQueryFailure",
]
