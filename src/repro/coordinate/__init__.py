"""The multi-tenant coordinator service (``python -m repro.coordinate``).

* :mod:`repro.coordinate.service` — the site server's frame server
  with QUERY and REBALANCE: concurrent queries over one Partix
  middleware, admitted and answered on the connection thread.
* :mod:`repro.coordinate.admission` — bounded-concurrency /
  bounded-queue admission control with typed load shedding.
* :mod:`repro.coordinate.client` — pooled client speaking the QUERY
  and REBALANCE round trips.
"""

from repro.coordinate.admission import AdmissionController
from repro.coordinate.client import CoordinatorClient
from repro.coordinate.service import Coordinator

__all__ = [
    "AdmissionController",
    "Coordinator",
    "CoordinatorClient",
]
