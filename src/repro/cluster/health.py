"""Shared site-health tracking for dispatch and lowering.

:class:`SiteHealth` is the cluster's memory of which sites are
answering. The dispatcher reports every attempt outcome into it; two
consumers read it back:

* the dispatcher's own retry loop skips ejected sites when rotating a
  failing sub-query across its fragment's replicas;
* the lane scheduler (``repro.plan.lower``) stops routing *new* scans
  to ejected sites, so a crashed site falls out of fresh plans instead
  of burning a retry budget per query.

Ejection is consecutive-failure based: ``EJECTION_THRESHOLD`` failures
in a row (any successful attempt resets the streak) mark the site
ejected. An ejected site is not gone forever — after
``PROBE_INTERVAL_SECONDS`` one readmission probe may run (see
:meth:`SiteHealth.begin_probe`); a successful probe readmits the site, a
failed one re-arms the probe timer.

The tracker holds state only: the dispatcher runs each probe — the
transport's PING — on its own lane pool and reports the verdict back
through :meth:`SiteHealth.end_probe`. It is thread-safe: lane threads of
one round and concurrent rounds share a single instance. The clock is
injectable so tests can step time deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

#: Consecutive failed attempts that eject a site.
EJECTION_THRESHOLD = 3

#: Seconds an ejected site waits before (another) readmission probe.
PROBE_INTERVAL_SECONDS = 5.0


@dataclass
class _SiteState:
    consecutive_failures: int = 0
    ejected: bool = False
    next_probe_at: float = 0.0
    #: A probe for this site is in flight; further lanes must not start
    #: a duplicate (or wait on someone else's probe).
    probing: bool = False


class SiteHealth:
    """Consecutive-failure ejection with timed readmission probes."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._states: dict[str, _SiteState] = {}

    def _state(self, site: str) -> _SiteState:
        state = self._states.get(site)
        if state is None:
            state = self._states[site] = _SiteState()
        return state

    # -- reporting -----------------------------------------------------
    def record_success(self, site: str) -> None:
        """A sub-query (or probe) at ``site`` succeeded: readmit it."""
        with self._lock:
            state = self._state(site)
            state.consecutive_failures = 0
            state.ejected = False
            state.next_probe_at = 0.0

    def record_failure(self, site: str) -> bool:
        """A sub-query attempt at ``site`` failed. Returns True when
        this failure crossed the ejection threshold."""
        with self._lock:
            state = self._state(site)
            state.consecutive_failures += 1
            if state.ejected:
                # A failed probe (or a racing lane) re-arms the timer.
                state.next_probe_at = self._clock() + PROBE_INTERVAL_SECONDS
                return False
            if state.consecutive_failures >= EJECTION_THRESHOLD:
                state.ejected = True
                state.next_probe_at = self._clock() + PROBE_INTERVAL_SECONDS
                return True
            return False

    def readmit(self, site: str) -> None:
        """Explicitly clear ``site``'s ejection (e.g. after a restart)."""
        self.record_success(site)

    # -- probing -------------------------------------------------------
    def begin_probe(self, site: str) -> bool:
        """Claim ``site``'s readmission probe: True when the site is
        ejected, its probe timer expired and no probe is in flight. The
        claimant runs the probe and must report it to :meth:`end_probe`."""
        with self._lock:
            state = self._states.get(site)
            if (
                state is None
                or not state.ejected
                or state.probing
                or self._clock() < state.next_probe_at
            ):
                return False
            state.probing = True
            return True

    def end_probe(self, site: str, alive: bool) -> None:
        """The verdict of a probe claimed with :meth:`begin_probe`: a live
        site is readmitted, a dead one's probe timer re-armed."""
        if alive:
            self.record_success(site)
        else:
            self.record_failure(site)
        with self._lock:
            self._state(site).probing = False

    # -- queries -------------------------------------------------------
    def is_ejected(self, site: str) -> bool:
        with self._lock:
            state = self._states.get(site)
            return bool(state and state.ejected)
