"""Unit tests for the schema and distribution catalogs."""

import pytest

from repro.datamodel import RepositoryKind
from repro.errors import CatalogError
from repro.partix import (
    CollectionDeclaration,
    DistributionCatalog,
    FragmentAllocation,
    FragmentationSchema,
    HorizontalFragment,
    SchemaCatalog,
)
from repro.paths import eq, ne
from repro.xschema import Schema


@pytest.fixture
def fragmentation():
    return FragmentationSchema("c", [
        HorizontalFragment("F1", "c", predicate=eq("/Item/S", "x")),
        HorizontalFragment("F2", "c", predicate=ne("/Item/S", "x")),
    ], root_label="Item")


class TestSchemaCatalog:
    def test_register_and_fetch_schema(self):
        catalog = SchemaCatalog()
        catalog.register_schema(Schema("s"))
        assert catalog.schema("s").name == "s"

    def test_duplicate_schema_rejected(self):
        catalog = SchemaCatalog()
        catalog.register_schema(Schema("s"))
        with pytest.raises(CatalogError):
            catalog.register_schema(Schema("s"))

    def test_missing_schema(self):
        with pytest.raises(CatalogError):
            SchemaCatalog().schema("nope")

    def test_collection_declaration(self):
        catalog = SchemaCatalog()
        catalog.register_schema(Schema("s"))
        catalog.register_collection(
            CollectionDeclaration(
                "c", RepositoryKind.MULTIPLE_DOCUMENTS, "s", "Item", "Item"
            )
        )
        assert catalog.has_collection("c")
        assert catalog.collection("c").root_type == "Item"
        assert catalog.collection_names() == ["c"]

    def test_collection_requires_registered_schema(self):
        catalog = SchemaCatalog()
        with pytest.raises(CatalogError):
            catalog.register_collection(
                CollectionDeclaration(
                    "c", RepositoryKind.MULTIPLE_DOCUMENTS, "missing", "x", "x"
                )
            )

    def test_duplicate_collection_rejected(self):
        catalog = SchemaCatalog()
        declaration = CollectionDeclaration("c", RepositoryKind.MULTIPLE_DOCUMENTS)
        catalog.register_collection(declaration)
        with pytest.raises(CatalogError):
            catalog.register_collection(declaration)


class TestDistributionCatalog:
    def test_register_and_lookup(self, fragmentation):
        catalog = DistributionCatalog()
        catalog.register_fragmentation(fragmentation, [
            FragmentAllocation("F1", "s0", "F1"),
            FragmentAllocation("F2", "s1", "F2"),
        ])
        assert catalog.is_fragmented("c")
        assert catalog.fragmentation("c") is fragmentation
        assert catalog.allocation("c", "F1").site == "s0"
        assert len(catalog.allocations("c")) == 2
        assert catalog.fragmented_collections() == ["c"]

    def test_missing_allocation_rejected(self, fragmentation):
        catalog = DistributionCatalog()
        with pytest.raises(CatalogError, match="without allocation"):
            catalog.register_fragmentation(
                fragmentation, [FragmentAllocation("F1", "s0", "F1")]
            )

    def test_unknown_fragment_rejected(self, fragmentation):
        catalog = DistributionCatalog()
        with pytest.raises(Exception):
            catalog.register_fragmentation(
                fragmentation,
                [
                    FragmentAllocation("F1", "s0", "F1"),
                    FragmentAllocation("F9", "s1", "F9"),
                ],
            )

    def test_second_allocation_on_distinct_site_is_a_replica(self, fragmentation):
        catalog = DistributionCatalog()
        catalog.register_fragmentation(
            fragmentation,
            [
                FragmentAllocation("F1", "s0", "F1"),
                FragmentAllocation("F1", "s1", "F1b"),
                FragmentAllocation("F2", "s1", "F2"),
            ],
        )
        assert len(catalog.replicas("c", "F1")) == 2

    def test_duplicate_collection_rejected(self, fragmentation):
        catalog = DistributionCatalog()
        allocations = [
            FragmentAllocation("F1", "s0", "F1"),
            FragmentAllocation("F2", "s1", "F2"),
        ]
        catalog.register_fragmentation(fragmentation, allocations)
        with pytest.raises(CatalogError, match="already"):
            catalog.register_fragmentation(fragmentation, allocations)

    def test_unregister(self, fragmentation):
        catalog = DistributionCatalog()
        catalog.register_fragmentation(fragmentation, [
            FragmentAllocation("F1", "s0", "F1"),
            FragmentAllocation("F2", "s1", "F2"),
        ])
        catalog.unregister("c")
        assert not catalog.is_fragmented("c")
        with pytest.raises(CatalogError):
            catalog.fragmentation("c")

    def test_missing_collection_lookups(self):
        catalog = DistributionCatalog()
        with pytest.raises(CatalogError):
            catalog.allocation("c", "F1")
        with pytest.raises(CatalogError):
            catalog.allocations("c")

    def test_replace_drops_statistics_of_replicas_it_no_longer_has(
        self, fragmentation
    ):
        catalog = DistributionCatalog()
        for fragment, site in (("F1", "s0"), ("F2", "s1"), ("F2", "s2")):
            catalog.record_statistics("c", fragment, site, 3, 300)
        catalog.record_statistics("other", "F1", "s0", 1, 100)
        catalog.register_fragmentation(fragmentation, [
            FragmentAllocation("F1", "s0", "F1"),
            FragmentAllocation("F2", "s1", "F2"),
            FragmentAllocation("F2", "s2", "F2"),
        ])
        assert len(catalog._statistics) == 4
        merged = FragmentationSchema("c", [
            HorizontalFragment("G", "c", predicate=ne("/Item/S", "none")),
        ], root_label="Item")
        # Store-then-swap: the new replica's statistics are recorded
        # before the registration that routes to it.
        catalog.record_statistics("c", "G", "s1", 6, 600)
        catalog.register_fragmentation(
            merged, [FragmentAllocation("G", "s1", "G")], replace=True
        )
        assert set(catalog._statistics) == {("c", "G", "s1"), ("other", "F1", "s0")}
        assert catalog.statistics("c", "G", "s1").documents == 6
        assert catalog.statistics("c", "F1", "s0") is None

    def test_republished_and_split_designs_leave_no_statistics_behind(self):
        from repro.cluster.site import Cluster
        from repro.partix.middleware import Partix
        from repro.rebalance import Rebalancer
        from repro.workloads.virtual_store import (
            build_items_collection,
            items_horizontal_fragmentation,
        )

        collection = build_items_collection(24, kind="small", seed=11)
        partix = Partix(Cluster.with_sites(4))
        catalog = partix.distribution_catalog

        def keys():
            return sorted(key[1:] for key in catalog._statistics)

        def allocated():
            return sorted(
                (entry.fragment, entry.site)
                for entry in catalog.allocations(collection.name)
            )

        partix.publish(collection, items_horizontal_fragmentation(4))
        assert len(keys()) == 4
        partix.publish(
            collection, items_horizontal_fragmentation(2), replace=True
        )
        assert keys() == allocated() == [("F1", "site0"), ("F2", "site1")]
        assert Rebalancer(partix).split(collection.name, "F2").completed
        assert keys() == allocated() and len(keys()) == 3


class TestReplication:
    def test_replicas_registered_and_listed(self, fragmentation):
        catalog = DistributionCatalog()
        catalog.register_fragmentation(fragmentation, [
            FragmentAllocation("F1", "s0", "F1"),
            FragmentAllocation("F1", "s1", "F1"),  # replica
            FragmentAllocation("F2", "s1", "F2"),
        ])
        replicas = catalog.replicas("c", "F1")
        assert [r.site for r in replicas] == ["s0", "s1"]
        assert catalog.allocation("c", "F1").site == "s0"  # primary
        assert len(catalog.allocations("c")) == 3

    def test_same_site_replica_rejected(self, fragmentation):
        catalog = DistributionCatalog()
        with pytest.raises(CatalogError, match="twice"):
            catalog.register_fragmentation(fragmentation, [
                FragmentAllocation("F1", "s0", "F1"),
                FragmentAllocation("F1", "s0", "F1b"),
                FragmentAllocation("F2", "s1", "F2"),
            ])
