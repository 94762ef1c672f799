"""Live threads by name, as tests observe them."""

from __future__ import annotations

import threading


def live_threads(prefix: str) -> set:
    """The live threads whose name starts with ``prefix``."""
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(prefix)
    }


def lane_threads() -> set:
    """The live lane-pool threads of every dispatcher in the process
    (other tests may have left some behind: compare before/after)."""
    return live_threads("partix-dispatch")
