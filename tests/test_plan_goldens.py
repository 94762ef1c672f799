"""The golden EXPLAIN plans, checked in the tier-1 suite.

``tests/golden/plans/<slug>.txt`` holds the rendered plan of every query
of every bench scenario (horizontal items, vertical XBench, hybrid store
in both FragModes) at ``--scale 0.002``. Any change to the planner, the
cost model or the renderer must land with a reviewed golden diff;
regenerate with::

    PYTHONPATH=src python -m repro.bench --figure plans --scale 0.002 \\
        --golden-dir tests/golden/plans --update-golden

Every golden plan also survives a JSON round trip unchanged.
"""

import json
import os

import pytest

from repro.bench.plans import PLAN_SCENARIOS, render_scenario_plans
from repro.plan import PhysicalPlan

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "plans")
SCALE = 0.002


@pytest.fixture(scope="module", params=list(PLAN_SCENARIOS))
def scenario(request):
    slug = request.param
    built = PLAN_SCENARIOS[slug](SCALE)
    yield slug, built
    built.partix.close()


def test_rendered_plans_match_the_goldens(scenario):
    slug, built = scenario
    with open(os.path.join(GOLDEN_DIR, f"{slug}.txt"), encoding="utf-8") as f:
        golden = f.read()
    assert render_scenario_plans(slug, built) == golden


def test_every_golden_plan_round_trips_through_json(scenario):
    _, built = scenario
    for query in built.queries:
        plan = built.partix.explain(query.text, built.collection_name)
        restored = PhysicalPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored.render() == plan.render(), query.qid
        assert restored.subqueries == plan.subqueries, query.qid
