"""The multi-tenant coordinator service (``python -m repro.coordinate``).

* :mod:`repro.coordinate.service` — the site server's frame server
  with QUERY, ADVISE and REBALANCE: concurrent queries over one Partix
  middleware, admitted on the connection thread, run on a pool.
* :mod:`repro.coordinate.admission` — bounded-concurrency /
  bounded-queue admission control with typed load shedding.
* :mod:`repro.coordinate.client` — pooled client speaking the QUERY
  round trip.
* :mod:`repro.coordinate.traffic` — closed-loop traffic generator with
  byte-for-byte answer verification (the serving bench's load source).
"""

from repro.coordinate.admission import AdmissionController
from repro.coordinate.client import CoordinatorClient
from repro.coordinate.service import Coordinator
from repro.coordinate.traffic import TrafficReport, WorkloadQuery, run_traffic

__all__ = [
    "AdmissionController",
    "Coordinator",
    "CoordinatorClient",
    "TrafficReport",
    "WorkloadQuery",
    "run_traffic",
]
