"""``python -m repro.coordinate`` — run the multi-tenant coordinator.

Stands up a demo fragmented repository (the ItemsSHor scenario of the
bench suite), then serves concurrent client queries over the frame
protocol::

    python -m repro.coordinate --port 7400
    python -m repro.coordinate --port 0 --max-active 16 --queue-limit 64
    python -m repro.coordinate --mode simulated --deadline 5.0

The coordinator announces ``coordinator listening on HOST:PORT`` on
stdout, answers QUERY frames (see :mod:`repro.net.protocol`), and drains
gracefully on SIGTERM/SIGINT or a SHUTDOWN frame. Clients connect with
:class:`repro.coordinate.CoordinatorClient`.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.coordinate.service import Coordinator


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.coordinate",
        description="PartiX multi-tenant coordinator over a demo repository",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7400, help="0 picks a free port"
    )
    parser.add_argument(
        "--mode",
        default="threads",
        choices=["simulated", "threads"],
        help="execution mode for served queries",
    )
    parser.add_argument(
        "--max-active", type=int, default=8, help="concurrent query slots"
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=32,
        help="admission queue depth before shedding",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="default per-query deadline in seconds",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.01,
        help="demo corpus scale factor (bench scaling)",
    )
    parser.add_argument(
        "--fragments", type=int, default=4, help="demo fragment count"
    )
    args = parser.parse_args(argv)

    from repro.bench.scenarios import build_items_scenario

    print("building demo repository...", flush=True)
    scenario = build_items_scenario(
        "small",
        paper_mb=1,
        fragment_count=args.fragments,
        scale=args.scale,
    )
    coordinator = Coordinator(
        scenario.partix,
        execution_mode=args.mode,
        host=args.host,
        port=args.port,
        max_active=args.max_active,
        queue_limit=args.queue_limit,
        default_deadline_seconds=args.deadline,
    )

    def _request_stop(signum, frame):  # noqa: ARG001 - signal signature
        coordinator.request_shutdown()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    print(
        f"coordinator listening on {coordinator.host}:{coordinator.port}"
        f" (collection {scenario.collection_name!r},"
        f" {args.fragments} fragments, mode {args.mode})",
        flush=True,
    )
    try:
        coordinator.serve_forever()
    finally:
        clean = coordinator.close()
        scenario.partix.close()
        print(
            f"coordinator drained {'cleanly' if clean else 'WITH STRAGGLERS'}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
