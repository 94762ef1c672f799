"""PartiX: fragmentation model, catalogs, publisher, decomposer, composer.

This package is the paper's primary contribution: the formal fragment
definitions with correctness rules (§3), and the middleware that
decomposes XQuery over fragments and composes results (§4).
"""

from repro.partix.catalog import (
    CollectionDeclaration,
    DistributionCatalog,
    FragmentAllocation,
    FragmentStatistics,
    SchemaCatalog,
)
from repro.partix.composer import ComposedResult, ResultComposer
from repro.partix.correctness import (
    CorrectnessReport,
    symbolic_report,
    verify_fragmentation,
)
from repro.partix.decomposer import (
    CompositionSpec,
    QueryDecomposer,
    SubQuery,
    annotated,
    rename_collections,
    rewrite_avg_to_sum_count,
    rewrite_paths_for_fragment_root,
)
from repro.partix.driver import MiniXDriver, PartixDriver
from repro.partix.fragments import (
    FragmentDefinition,
    FragmentationSchema,
    HorizontalFragment,
    HybridFragment,
    VerticalFragment,
)
from repro.partix.middleware import Partix, PartixResult
from repro.partix.serialization import (
    design_from_dict,
    design_to_dict,
    fragment_from_dict,
    fragment_to_dict,
    load_design,
    predicate_from_dict,
    predicate_to_dict,
    save_design,
)
from repro.partix.publisher import (
    DataPublisher,
    FragMode,
    FragmentPublication,
    PublicationReport,
)
from repro.plan.physical import PhysicalPlan

__all__ = [
    "CollectionDeclaration",
    "ComposedResult",
    "CompositionSpec",
    "CorrectnessReport",
    "DataPublisher",
    "DistributionCatalog",
    "FragMode",
    "FragmentAllocation",
    "FragmentStatistics",
    "FragmentDefinition",
    "FragmentPublication",
    "FragmentationSchema",
    "HorizontalFragment",
    "HybridFragment",
    "MiniXDriver",
    "Partix",
    "PartixDriver",
    "PartixResult",
    "PhysicalPlan",
    "PublicationReport",
    "QueryDecomposer",
    "ResultComposer",
    "SchemaCatalog",
    "SubQuery",
    "VerticalFragment",
    "annotated",
    "rename_collections",
    "rewrite_avg_to_sum_count",
    "rewrite_paths_for_fragment_root",
    "design_from_dict",
    "design_to_dict",
    "fragment_from_dict",
    "fragment_to_dict",
    "load_design",
    "predicate_from_dict",
    "predicate_to_dict",
    "save_design",
    "symbolic_report",
    "verify_fragmentation",
]
