"""Admission control: bounded concurrency, bounded queue, typed shedding.

The coordinator holds at most ``max_active`` queries in execution; the
next ``queue_limit`` wait their turn; anything beyond that is *shed*
immediately with :class:`~repro.errors.AdmissionRejected` — an
overloaded coordinator answers "try later" in microseconds instead of
letting latency collapse for everyone (the classic bounded-queue
load-shedding policy).

:class:`AdmissionController` is pure synchronous accounting over opaque
*waiter* tokens, so it is directly unit-testable; the coordinator
enqueues :class:`concurrent.futures.Future` objects, a queued query's
worker waits on its own, and whichever token :meth:`finish` hands back
is completed to wake it.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

from repro.errors import AdmissionRejected


class AdmissionController:
    """Slot accounting for a bounded-concurrency, bounded-queue server."""

    def __init__(self, max_active: int = 8, queue_limit: int = 32):
        if max_active < 1:
            raise ValueError("max_active must be at least 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        self.max_active = max_active
        self.queue_limit = queue_limit
        self._lock = threading.Lock()
        self._active = 0
        self._queue: deque = deque()
        self.admitted = 0
        self.shed = 0
        self.peak_active = 0
        self.peak_queued = 0

    # ------------------------------------------------------------------
    def try_start(self) -> bool:
        """Claim an execution slot if one is free (no queueing)."""
        with self._lock:
            if self._active < self.max_active:
                self._active += 1
                self.admitted += 1
                self.peak_active = max(self.peak_active, self._active)
                return True
            return False

    def enqueue(self, waiter) -> None:
        """Park ``waiter`` until a slot frees up.

        Raises :class:`AdmissionRejected` — the typed load-shedding
        signal — when the waiting queue is already full.
        """
        with self._lock:
            if len(self._queue) >= self.queue_limit:
                self.shed += 1
                raise AdmissionRejected(
                    f"coordinator overloaded: {self._active} quer"
                    f"{'y' if self._active == 1 else 'ies'} active and"
                    f" {len(self._queue)} waiting (queue limit"
                    f" {self.queue_limit}); retry later"
                )
            self._queue.append(waiter)
            self.peak_queued = max(self.peak_queued, len(self._queue))

    def abandon(self, waiter) -> bool:
        """Remove a parked waiter (its deadline expired while queued).

        False means the waiter was already promoted to a slot — the
        caller then owns that slot and must :meth:`finish` it.
        """
        with self._lock:
            try:
                self._queue.remove(waiter)
            except ValueError:
                return False
            return True

    def finish(self) -> Optional[object]:
        """Release one execution slot.

        If a waiter is parked, the slot transfers to it: the oldest
        waiter is returned (for the caller to wake) and stays counted as
        active. Otherwise the active count drops and None is returned.
        """
        with self._lock:
            if self._queue:
                waiter = self._queue.popleft()
                self.admitted += 1
                return waiter
            self._active -= 1
            return None

    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        with self._lock:
            return self._active

    @property
    def queued(self) -> int:
        with self._lock:
            return len(self._queue)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "max_active": self.max_active,
                "queue_limit": self.queue_limit,
                "active": self._active,
                "queued": len(self._queue),
                "admitted": self.admitted,
                "shed": self.shed,
                "peak_active": self.peak_active,
                "peak_queued": self.peak_queued,
            }
