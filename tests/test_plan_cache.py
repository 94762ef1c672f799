"""Plan-cache unit tests: accounting, eviction, and the re-lower rule.

The cache stores *logical* plans keyed ``(query, collection,
catalog_version)`` — a republish bumps the version and strands stale
entries, and every hit is re-lowered against the live cost model and
site health, so a cached query can never be routed to a site that was
ejected after the plan was cached.
"""

import pytest

from repro.cluster.site import Cluster, Site
from repro.partix.catalog import FragmentAllocation
from repro.partix.middleware import Partix
from repro.plan.cache import PlanCache
from repro.workloads.virtual_store import (
    build_items_collection,
    items_horizontal_fragmentation,
)


class TestPlanCacheUnit:
    def test_miss_then_hit_accounting(self):
        cache = PlanCache(capacity=4)
        assert cache.get("q", "c", 1) is None
        cache.put("q", "c", 1, "logical-plan")
        assert cache.get("q", "c", 1) == "logical-plan"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_catalog_version_is_part_of_the_key(self):
        cache = PlanCache(capacity=4)
        cache.put("q", "c", 1, "old-design-plan")
        # Same query, bumped version: the stale entry must not answer.
        assert cache.get("q", "c", 2) is None

    def test_collection_is_part_of_the_key(self):
        cache = PlanCache(capacity=4)
        cache.put("q", "c1", 1, "plan-one")
        assert cache.get("q", "c2", 1) is None

    def test_lru_eviction_stays_within_capacity(self):
        cache = PlanCache(capacity=2)
        cache.put("q1", "c", 1, "p1")
        cache.put("q2", "c", 1, "p2")
        cache.get("q1", "c", 1)  # q1 is now most-recent
        cache.put("q3", "c", 1, "p3")  # evicts q2, the LRU entry
        assert len(cache) == 2
        assert cache.get("q2", "c", 1) is None
        assert cache.get("q1", "c", 1) == "p1"
        assert cache.get("q3", "c", 1) == "p3"
        assert cache.stats()["evictions"] == 1

    def test_put_is_idempotent_for_a_key(self):
        cache = PlanCache(capacity=2)
        cache.put("q", "c", 1, "p")
        cache.put("q", "c", 1, "p-again")
        assert len(cache) == 1
        assert cache.get("q", "c", 1) == "p-again"

    def test_clear_resets_entries_but_not_counters(self):
        cache = PlanCache(capacity=2)
        cache.put("q", "c", 1, "p")
        cache.get("q", "c", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


def _replicated_partix(plan_cache, fragment_count=2, item_count=24):
    """A published Partix whose ``mirror`` site replicates every fragment."""
    collection = build_items_collection(item_count, kind="small", seed=11)
    cluster = Cluster.with_sites(fragment_count)
    cluster.add(Site("mirror"))
    partix = Partix(cluster, plan_cache=plan_cache)
    design = items_horizontal_fragmentation(fragment_count)
    allocations = []
    for index, fragment in enumerate(design.fragments):
        allocations.append(
            FragmentAllocation(
                fragment=fragment.name,
                site=f"site{index % fragment_count}",
                stored_collection=fragment.name,
            )
        )
        allocations.append(
            FragmentAllocation(
                fragment=fragment.name,
                site="mirror",
                stored_collection=fragment.name,
            )
        )
    partix.publish(collection, design, allocations=allocations)
    return partix, collection


def _item_query(collection):
    return 'for $i in collection("%s")//Item return $i/Code' % collection.name


class TestPlanCacheInMiddleware:
    def test_repeat_executions_hit_the_cache(self):
        cache = PlanCache()
        partix, collection = _replicated_partix(cache)
        query = _item_query(collection)
        first = partix.execute(query, collection=collection.name)
        second = partix.execute(query, collection=collection.name)
        assert second.result_text == first.result_text
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_cached_plan_relowers_away_from_an_ejected_site(self):
        # Regression: the cache stores the LOGICAL plan, so a hit is
        # re-lowered against live site health — a site ejected after the
        # plan was cached must not appear in the next execution's routing.
        cache = PlanCache()
        partix, collection = _replicated_partix(cache)
        query = _item_query(collection)
        warm = partix.execute(query, collection=collection.name)
        assert any(
            execution.site == "site0" for execution in warm.round.executions
        )

        for _ in range(partix.site_health.ejection_threshold):
            partix.site_health.record_failure("site0")
        rerouted = partix.execute(query, collection=collection.name)
        assert cache.stats()["hits"] >= 1  # the plan DID come from the cache
        assert not any(
            execution.site == "site0"
            for execution in rerouted.round.executions
        )
        assert rerouted.result_text == warm.result_text

    def test_bare_middleware_owns_a_private_cache(self):
        # Was test_uncached_middleware_still_plans_from_scratch: there
        # is no uncached planning path any more.
        partix, collection = _replicated_partix(plan_cache=None)
        other, _ = _replicated_partix(plan_cache=None)
        assert isinstance(partix.plan_cache, PlanCache)
        assert partix.plan_cache is not other.plan_cache
        query = _item_query(collection)
        first = partix.execute(query, collection=collection.name)
        second = partix.execute(query, collection=collection.name)
        assert first.result_text
        assert second.result_text == first.result_text
        stats = partix.plan_cache.stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)
        assert other.plan_cache.stats()["misses"] == 0

    def test_republish_between_two_executes_replans_on_the_new_design(self):
        partix, collection = _replicated_partix(plan_cache=None)
        query = _item_query(collection)
        before = partix.execute(query, collection=collection.name)
        assert len(before.round.executions) == 2  # the 2-fragment design

        wider = items_horizontal_fragmentation(4)
        partix.publish(
            collection,
            wider,
            allocations=[
                FragmentAllocation(
                    fragment=fragment.name,
                    site="mirror",
                    stored_collection=f"{fragment.name}__wide",
                )
                for fragment in wider.fragments
            ],
            replace=True,
        )
        after = partix.execute(query, collection=collection.name)
        stats = partix.plan_cache.stats()
        assert (stats["misses"], stats["hits"]) == (2, 0)
        assert [e.fragment for e in after.round.executions] == [
            fragment.name for fragment in wider.fragments
        ]
        assert {e.site for e in after.round.executions} == {"mirror"}
        # Same items; a union concatenates fragments in design order.
        assert sorted(after.result_text.split("\n")) == sorted(
            before.result_text.split("\n")
        )

    def test_a_handed_in_plan_touches_no_cache(self):
        partix, collection = _replicated_partix(plan_cache=None)
        query = _item_query(collection)
        plan = partix.explain(query, collection=collection.name)
        result = partix.execute(query, collection=collection.name, plan=plan)
        assert result.result_text
        stats = partix.plan_cache.stats()
        assert (stats["entries"], stats["misses"], stats["hits"]) == (0, 0, 0)
