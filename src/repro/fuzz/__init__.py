"""Differential correctness fuzzing for the PartiX stack.

The paper's entire argument rests on a correctness contract — every
fragmentation design must be complete, disjoint and reconstructible, and
the decomposer/composer/dispatcher pipeline must return the same answer a
centralized repository would. This package turns that contract into a
standing randomized oracle:

* :mod:`repro.fuzz.generator` — a seeded generator of random document
  collections (ToXgene templates), random horizontal/vertical/hybrid
  fragmentation designs over them, and random queries from the supported
  XQuery subset, all derived deterministically from a :class:`CaseSpec`;
* :mod:`repro.fuzz.runner` — the differential oracle: each query runs
  centralized and against the fragmented repository in every execution
  mode of the case's configuration (a transport, in-process or tcp, and
  a disturbance between two passes: none, a killed site or a live
  migration — drawn per case from the seed, so a failure minimizes and
  replays with it), answers are compared, and the §3.3 correctness
  rules are re-verified empirically;
* :mod:`repro.fuzz.minimize` — a greedy case minimizer that shrinks a
  failing (collection, design, query) triple to a minimal reproducer and
  writes it as a ready-to-run pytest file under ``tests/repros/``;
* ``python -m repro.fuzz --seed N --iterations K`` — the CLI, emitting a
  JSON summary (the CI ``fuzz-smoke`` job runs it on every push).
"""

from repro.fuzz.generator import CaseSpec, GeneratedCase, generate_case, spec_for_iteration
from repro.fuzz.minimize import minimize_spec, write_repro
from repro.fuzz.runner import CaseOutcome, Mismatch, run_case, run_fuzz

__all__ = [
    "CaseSpec",
    "GeneratedCase",
    "CaseOutcome",
    "Mismatch",
    "generate_case",
    "spec_for_iteration",
    "minimize_spec",
    "run_case",
    "run_fuzz",
    "write_repro",
]
