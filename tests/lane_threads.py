"""The dispatcher's lane-pool threads, as tests observe them."""

from __future__ import annotations

import threading


def lane_threads() -> set:
    """The live lane-pool threads of every dispatcher in the process
    (other tests may have left some behind: compare before/after)."""
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("partix-dispatch")
    }
