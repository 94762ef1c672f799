"""Greedy case minimization and reproducer emission.

A failing fuzz case is rarely minimal — ten documents, four fragments and
five queries obscure the two documents and one predicate that actually
matter. :func:`minimize_spec` shrinks the *spec* (never the materialized
artifacts — regeneration keeps every reproducer a one-line
``CaseSpec.from_dict``) while the failure fingerprint (the set of
mismatch kinds) is preserved:

1. pin the failing query (``query_index``);
2. repeatedly apply the generator's shrink moves — drop the disturbance,
   fall back to the in-process transport, halve/decrement the document
   count, collapse to two fragments, strip the ``where`` clause, simplify
   the ``return`` — accepting any move that still fails the same way,
   until no move applies (a greedy fixpoint).

:func:`write_repro` then renders the minimal spec as a ready-to-run
pytest file under ``tests/repros/`` so the failure becomes a committed
regression test. The spec carries the case's configuration, so the
reproducer replays the transport and disturbance that failed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from typing import Callable, Optional

from repro.fuzz.generator import CaseSpec, shrink_candidates
from repro.fuzz.runner import CaseOutcome, run_case

#: Upper bound on shrink attempts; each attempt re-runs a full case.
DEFAULT_BUDGET = 40


def minimize_spec(
    spec: CaseSpec,
    outcome: CaseOutcome,
    partix_factory: Optional[Callable] = None,
    budget: int = DEFAULT_BUDGET,
) -> CaseOutcome:
    """Shrink ``spec`` greedily while it keeps failing the same way.

    Returns the outcome of the smallest reproducing spec found (the
    original ``outcome`` if nothing smaller reproduces). The failure
    fingerprint is :meth:`CaseOutcome.mismatch_kinds`; a shrunk case must
    fail with the same kinds to be accepted — a *different* failure is a
    different bug and would make the reproducer lie about its origin.
    """
    fingerprint = outcome.mismatch_kinds()
    best_spec, best_outcome = spec, outcome
    attempts = 0

    # Pin the failing query first: it usually removes 80% of the case.
    if best_spec.query_index is None:
        failing = [m.query_index for m in outcome.mismatches if m.query_index is not None]
        if failing:
            candidate = replace(best_spec, query_index=failing[0])
            attempts += 1
            reproduced = _reproduces(candidate, fingerprint, partix_factory)
            if reproduced is not None:
                best_spec, best_outcome = candidate, reproduced

    progress = True
    while progress and attempts < budget:
        progress = False
        for candidate in shrink_candidates(best_spec):
            if attempts >= budget:
                break
            attempts += 1
            reproduced = _reproduces(candidate, fingerprint, partix_factory)
            if reproduced is not None:
                best_spec, best_outcome = candidate, reproduced
                progress = True
                break  # restart from the new, smaller spec
    return best_outcome


def _reproduces(
    spec: CaseSpec,
    fingerprint: tuple[str, ...],
    partix_factory: Optional[Callable],
) -> Optional[CaseOutcome]:
    try:
        outcome = run_case(spec, partix_factory=partix_factory)
    except Exception:  # noqa: BLE001 — a crashing shrink is just rejected
        return None
    if not outcome.ok and outcome.mismatch_kinds() == fingerprint:
        return outcome
    return None


_REPRO_TEMPLATE = '''"""Minimized fuzz reproducer (auto-written by repro.fuzz).

Failure fingerprint: {kinds}
{details}
Regenerate / rerun by hand:

    PYTHONPATH=src python -m repro.fuzz --replay '{spec_json}'
"""

from repro.fuzz import CaseSpec, run_case

SPEC = CaseSpec.from_dict({spec_dict})


def test_fuzz_repro_{digest}():
    outcome = run_case(SPEC)
    assert outcome.ok, "\\n".join(
        f"{{m.kind}}: {{m.detail}}" for m in outcome.mismatches
    )
'''


def write_repro(outcome: CaseOutcome, directory: str) -> str:
    """Write ``outcome`` as a pytest file; returns the path.

    The file name is a stable digest of the spec, so re-running the same
    fuzz session overwrites rather than accumulates.
    """
    spec_dict = outcome.spec.to_dict()
    spec_json = json.dumps(spec_dict, sort_keys=True)
    digest = hashlib.sha1(spec_json.encode("utf-8")).hexdigest()[:10]
    details = "".join(
        f"  {m.kind}: {m.detail}\n" for m in outcome.mismatches[:3]
    )
    body = _REPRO_TEMPLATE.format(
        kinds=", ".join(outcome.mismatch_kinds()),
        details=details,
        spec_json=spec_json,
        spec_dict=json.dumps(spec_dict, indent=8).replace("null", "None")
        .replace("true", "True").replace("false", "False"),
        digest=digest,
    )
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"test_repro_{digest}.py")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(body)
    return path
