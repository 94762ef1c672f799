"""Tests for the differential fuzz harness itself.

Three layers: the generator's determinism contracts, the oracle's
green path, and — the part that proves the harness can actually bite —
an injected composer-ordering bug that must be detected, minimized and
written out as a runnable reproducer.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.dispatch import ParallelDispatcher
from repro.fuzz import (
    CaseSpec,
    generate_case,
    minimize_spec,
    run_case,
    run_fuzz,
    spec_for_iteration,
    write_repro,
)
from repro.fuzz.generator import FAMILIES, GenerationError
from repro.partix.middleware import Partix
from repro.xmltext import serialize

SMOKE_SPECS = [
    CaseSpec(seed=11, family="items", doc_count=4, fragment_count=2),
    CaseSpec(seed=12, family="articles", doc_count=3, fragment_count=3),
    CaseSpec(seed=13, family="store", doc_count=5, fragment_count=2, frag_mode=1),
    CaseSpec(seed=13, family="store", doc_count=5, fragment_count=2, frag_mode=2),
]


class TestGenerator:
    def test_same_spec_same_case(self):
        spec = CaseSpec(seed=77, family="items", doc_count=5, fragment_count=3)
        first, second = generate_case(spec), generate_case(spec)
        assert first.queries == second.queries
        assert [serialize(d.root) for d in first.collection] == [
            serialize(d.root) for d in second.collection
        ]
        assert [f.describe() for f in first.design] == [
            f.describe() for f in second.design
        ]

    def test_spec_for_iteration_is_deterministic_and_covers_families(self):
        specs = [spec_for_iteration(2006, i) for i in range(9)]
        again = [spec_for_iteration(2006, i) for i in range(9)]
        assert specs == again
        assert {s.family for s in specs} == set(FAMILIES)

    def test_spec_roundtrips_through_dict(self):
        spec = spec_for_iteration(1, 4)
        assert CaseSpec.from_dict(spec.to_dict()) == spec

    def test_invalid_spec_rejected(self):
        with pytest.raises(GenerationError):
            CaseSpec(seed=1, family="nope", doc_count=3, fragment_count=2)
        with pytest.raises(GenerationError):
            CaseSpec(seed=1, family="items", doc_count=0, fragment_count=2)

    def test_query_index_pins_one_query(self):
        spec = CaseSpec(
            seed=5, family="items", doc_count=3, fragment_count=2, query_index=2
        )
        case = generate_case(spec)
        assert len(case.queries) == spec.query_count
        assert case.active_queries == [(2, case.queries[2])]


class TestOracleGreenPath:
    @pytest.mark.parametrize(
        "spec", SMOKE_SPECS, ids=lambda s: f"{s.family}-m{s.frag_mode}"
    )
    def test_clean_case_has_no_mismatches(self, spec):
        outcome = run_case(spec)
        assert outcome.ok, [m.detail for m in outcome.mismatches]
        assert outcome.queries_run + outcome.queries_skipped == spec.query_count

    def test_run_fuzz_summary_shape(self):
        summary = run_fuzz(seed=2006, iterations=3, minimize=False)
        assert summary["ok"] is True
        assert summary["cases"] == 3
        assert summary["failures"] == []
        json.dumps(summary)  # JSON-able end to end

    def test_point_lookups_are_generated_and_routed_by_summary(self):
        # Iteration 0 of the CI session: an items case whose queries
        # hold a Code lookup; the plans compared dropped fragments on
        # their value summaries, and the count reaches the summary.
        spec = spec_for_iteration(2006, 0)
        assert spec.family == "items"
        assert any(
            '/Code = "I-' in query for query in generate_case(spec).queries
        )
        outcome = run_case(spec)
        assert outcome.ok and outcome.summary_pruned > 0
        assert outcome.to_dict()["summary_pruned"] == outcome.summary_pruned
        summary = run_fuzz(seed=2006, iterations=1, minimize=False)
        assert summary["summary_pruned"] == outcome.summary_pruned


    def test_vertical_joins_cover_the_semijoin_and_the_reconstruction(self):
        # Iteration 1 of the CI session: an articles case holding joins
        # the semi-join answers and joins it declines (both counted).
        spec = spec_for_iteration(2006, 1)
        assert spec.family == "articles"
        outcome = run_case(spec)
        assert outcome.ok, [m.detail for m in outcome.mismatches]
        assert outcome.semijoin_plans > 0
        assert outcome.fetch_projections["strict"] > 0
        assert outcome.to_dict()["semijoin_plans"] == outcome.semijoin_plans
        summary = run_fuzz(seed=2006, iterations=2, minimize=False)
        assert summary["semijoin_plans"] == outcome.semijoin_plans


def _order_scrambling_partix(cluster):
    """A middleware whose dispatcher mis-aligns completed sub-queries —
    the composer-ordering bug the oracle must catch."""

    class ScramblingDispatcher(ParallelDispatcher):
        def dispatch(self, cluster_, subqueries, default_collection=None):
            outcome = super().dispatch(cluster_, subqueries, default_collection)
            outcome.executions_by_index.reverse()
            return outcome

    return Partix(cluster, dispatcher=ScramblingDispatcher())


def _find_injected_failure():
    """First iteration whose case trips the injected ordering bug."""
    for iteration in range(40):
        spec = spec_for_iteration(2006, iteration)
        outcome = run_case(spec, partix_factory=_order_scrambling_partix)
        if not outcome.ok:
            return spec, outcome
    raise AssertionError("injected ordering bug never detected in 40 cases")


class TestInjectedOrderingBug:
    def test_detected_minimized_and_reproduced(self, tmp_path):
        spec, outcome = _find_injected_failure()
        assert "mode" in outcome.mismatch_kinds() or "answer" in outcome.mismatch_kinds()

        minimized = minimize_spec(
            spec, outcome, partix_factory=_order_scrambling_partix
        )
        assert minimized.mismatch_kinds() == outcome.mismatch_kinds()
        assert minimized.spec.query_index is not None  # pinned to one query
        assert minimized.spec.doc_count <= spec.doc_count
        assert minimized.spec.fragment_count <= spec.fragment_count

        repro_dir = tmp_path / "tests" / "repros"
        path = write_repro(minimized, str(repro_dir))
        assert Path(path).is_file()
        body = Path(path).read_text()
        assert "CaseSpec.from_dict" in body
        # The reproducer is valid Python and pins the minimized spec.
        namespace = {}
        exec(compile(body, path, "exec"), namespace)  # noqa: S102 — own artifact
        assert namespace["SPEC"] == minimized.spec
        # Against the FIXED stack the reproducer passes (regression test
        # semantics); under the injected bug it fails.
        test = next(v for k, v in namespace.items() if k.startswith("test_"))
        test()  # must not raise
        assert not run_case(
            minimized.spec, partix_factory=_order_scrambling_partix
        ).ok

    def test_run_fuzz_reports_and_writes_repro(self, tmp_path):
        summary = run_fuzz(
            seed=2006,
            iterations=10,
            partix_factory=_order_scrambling_partix,
            repro_dir=str(tmp_path),
            max_failures=1,
        )
        assert summary["ok"] is False
        assert summary["failures"]
        failure = summary["failures"][0]
        assert failure["repro_path"].startswith(str(tmp_path))
        assert Path(failure["repro_path"]).is_file()
        assert "minimized" in failure


def _shrinking_republish_partix(spec):
    """A middleware whose every fragmented publication is a *re*publication:
    a grown sibling of the case's collection (more documents, other seed —
    the same names land in other fragments) goes in first, then the real
    collection replaces it."""
    grown = generate_case(
        dataclasses.replace(
            spec, seed=spec.seed + 1, doc_count=spec.doc_count + 3
        )
    ).collection

    class Republishing(Partix):
        def publish(self, collection, fragmentation, **options):
            super().publish(grown, fragmentation, **options)
            return super().publish(
                collection, fragmentation, replace=True, **options
            )

    return Republishing


class TestShrinkingRepublish:
    """``publish(replace=True)`` must replace: after republishing a smaller
    collection over a larger one, every standard oracle still converges to
    the centralized answer over the smaller one — no stale document of
    the first publication may keep matching."""

    @pytest.mark.parametrize("iteration", range(9))
    def test_oracles_converge_after_a_shrinking_republish(self, iteration):
        spec = spec_for_iteration(2006, iteration)
        outcome = run_case(
            spec, partix_factory=_shrinking_republish_partix(spec)
        )
        assert outcome.ok, [m.detail for m in outcome.mismatches]
        assert outcome.queries_run


class TestPlanOrderStability:
    """Regression for the composer-ordering satellite: composition must
    follow plan order no matter in which order dispatch lanes complete.
    The middleware guarantees this by re-pairing results through
    ``executions_by_index``; these tests pin that contract."""

    def test_threads_mode_is_byte_identical_across_repeats(self):
        spec = CaseSpec(seed=99, family="items", doc_count=6, fragment_count=4)
        case = generate_case(spec)
        from repro.cluster.site import Cluster, Site
        from repro.fuzz.runner import CENTRAL_SITE

        cluster = Cluster.with_sites(len(case.design))
        partix = Partix(cluster)
        partix.publish(case.collection, case.design, frag_mode=case.frag_mode)
        cluster.add(Site(CENTRAL_SITE))
        partix.publish_centralized(case.collection, CENTRAL_SITE)
        for _, query in case.active_queries:
            baseline = partix.execute(query, "Cfuzz").result_text
            for _ in range(3):
                threaded = partix.execute(
                    query, "Cfuzz", execution_mode="threads"
                ).result_text
                assert threaded == baseline

    def test_completion_order_does_not_leak_into_composition(self):
        # A dispatcher that reports completions in reverse plan order but
        # keeps the index alignment intact: the composed answer must not
        # change — only misaligned *indices* (the injected bug above) may
        # break it.
        class ReverseCompletion(ParallelDispatcher):
            def dispatch(self, cluster_, subqueries, default_collection=None):
                outcome = super().dispatch(
                    cluster_, subqueries, default_collection
                )
                outcome.round.executions.reverse()  # completion log only
                return outcome

        spec = CaseSpec(seed=41, family="items", doc_count=5, fragment_count=3)
        outcome = run_case(
            spec, partix_factory=lambda c: Partix(c, dispatcher=ReverseCompletion())
        )
        assert outcome.ok, [m.detail for m in outcome.mismatches]


class TestCli:
    def test_cli_green_session(self, tmp_path):
        output = tmp_path / "summary.json"
        process = subprocess.run(
            [
                sys.executable, "-m", "repro.fuzz",
                "--seed", "2006", "--iterations", "3",
                "--no-repros", "--output", str(output),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parent.parent),
        )
        assert process.returncode == 0, process.stderr
        summary = json.loads(output.read_text())
        assert summary["ok"] is True and summary["cases"] == 3
        assert "repro.fuzz" in process.stderr  # human digest on stderr

    def test_cli_replay(self):
        spec_json = json.dumps(
            CaseSpec(seed=11, family="items", doc_count=3, fragment_count=2).to_dict()
        )
        process = subprocess.run(
            [sys.executable, "-m", "repro.fuzz", "--replay", spec_json],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parent.parent),
        )
        assert process.returncode == 0, process.stderr
        payload = json.loads(process.stdout)
        assert payload["ok"] is True
