"""``python -m repro.rebalance`` — apply a rebalance action from the CLI.

One subcommand against a running coordinator (start one with
``python -m repro.coordinate``)::

    python -m repro.rebalance apply --port 7400 \\
        --action '{"kind": "split", "collection": "Citems", "fragment": "F1"}'

``apply`` sends one :class:`~repro.rebalance.RebalanceAction` (JSON, as
:meth:`~repro.rebalance.RebalanceAction.to_dict` writes it) in a
REBALANCE frame, waits for the online migration and prints its report.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.coordinate.client import CoordinatorClient


def _apply(args) -> int:
    client = CoordinatorClient(args.host, args.port, site="coordinator")
    try:
        reply = client.rebalance(
            json.loads(args.action), read_timeout=args.timeout
        )
    finally:
        client.close()
    report = reply["report"]
    applied = reply["action"]
    print(f"applied {applied['kind']} of {applied['fragment']!r}:")
    print(
        f"  {report['documents_moved']} documents"
        f" ({report['bytes_moved']} bytes) -> {report['target_sites']}"
        f" in {report['elapsed_seconds']:.3f}s"
    )
    if report["split_path"]:
        print(
            f"  boundary: {report['split_path']} in"
            f" {report['split_values']} -> {report['new_fragments']}"
        )
    print(
        f"  catalog version {report['catalog_version_before']}"
        f" -> {report['catalog_version_after']}"
    )
    for note in report["notes"]:
        print(f"  note: {note}")
    if args.json:
        print(json.dumps(reply, indent=2))
    return 0 if report["completed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.rebalance",
        description="online fragment rebalancing",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    apply_ = commands.add_parser(
        "apply", help="apply one rebalance action online"
    )
    apply_.add_argument("--host", default="127.0.0.1")
    apply_.add_argument("--port", type=int, default=7400)
    apply_.add_argument(
        "--action", required=True, help="the RebalanceAction as JSON"
    )
    apply_.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="seconds to wait for the migration",
    )
    apply_.add_argument(
        "--json", action="store_true", help="also dump the raw payload"
    )
    apply_.set_defaults(run=_apply)

    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
