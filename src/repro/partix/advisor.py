"""Fragmentation design advisor — the paper's stated future work.

§6: "As future work, we intend to use the proposed fragmentation model to
define a methodology for fragmenting XML databases. This methodology
could be used [to] define algorithms for the fragmentation design."

Given a collection, a workload (queries with frequencies) and a target
site count, the advisor recommends a correct fragmentation design:

* **horizontal** (MD collections) — picks the *selector path*: the
  single-valued terminal path most frequently compared against constants
  in the workload (e.g. ``/Item/Section``), measures its value
  distribution on the collection, and proposes one equality fragment per
  heavy value plus a residual fragment (complete and disjoint by
  construction, cf. Figure 2);
* **vertical** (MD collections whose queries cluster on subtrees) — maps
  each query to the top-level *regions* (children of the root) it
  touches, builds a region-affinity matrix (Navathe-style attribute
  affinity, which the paper cites via [14]), clusters regions greedily,
  and proposes one projection fragment per region with allocations that
  co-locate clustered regions;
* **hybrid** (SD collections) — finds the repeating unit under the root
  through the schema's cardinalities (e.g. ``/Store/Items/Item``), picks
  the selector inside the unit, and proposes the Figure-4 design: a
  stub-keeping remainder plus per-value unit fragments.

The recommendation carries a human-readable rationale and is always
validated against the collection with the §3.3 rules before being
returned.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.datamodel.collection import Collection, RepositoryKind
from repro.errors import FragmentationError
from repro.partix.catalog import FragmentAllocation
from repro.partix.correctness import verify_fragmentation
from repro.partix.fragments import (
    FragmentationSchema,
    HorizontalFragment,
    HybridFragment,
    VerticalFragment,
)
from repro.paths.ast import PathExpr
from repro.paths.evaluator import evaluate_path
from repro.paths.parser import parse_path
from repro.paths.predicates import And, Comparison, atoms, eq, ne
from repro.xquery.analysis import analyze_query


@dataclass(frozen=True)
class WorkloadQuery:
    """One query of the expected workload, weighted by frequency."""

    text: str
    frequency: float = 1.0


@dataclass
class DesignRecommendation:
    """The advisor's output."""

    kind: str  # "horizontal" | "vertical" | "hybrid"
    fragmentation: FragmentationSchema
    allocations: Optional[list[FragmentAllocation]] = None
    rationale: list[str] = field(default_factory=list)
    score: float = 0.0


class FragmentationAdvisor:
    """Recommends a fragmentation design for a collection + workload."""

    def __init__(
        self,
        collection: Collection,
        workload: Sequence[WorkloadQuery],
        site_count: int,
        sample_size: int = 50,
    ):
        if site_count < 2:
            raise FragmentationError("a fragmentation design needs >= 2 sites")
        if not workload:
            raise FragmentationError("the advisor needs a workload")
        self.collection = collection
        self.workload = list(workload)
        self.site_count = site_count
        self.sample = collection.documents()[:sample_size]
        if not self.sample:
            raise FragmentationError("the advisor needs a non-empty collection")
        self._analyses = [
            (analyze_query(query.text), query.frequency) for query in workload
        ]

    # ------------------------------------------------------------------
    def recommend(self) -> DesignRecommendation:
        """The best design the advisor can justify for this collection."""
        if self.collection.kind is RepositoryKind.SINGLE_DOCUMENT:
            recommendation = self._recommend_hybrid()
        else:
            horizontal = self._recommend_horizontal()
            vertical = self._recommend_vertical()
            candidates = [c for c in (horizontal, vertical) if c is not None]
            if not candidates:
                raise FragmentationError(
                    "no workload predicate or path clustering to design from"
                )
            recommendation = max(candidates, key=lambda c: c.score)
        report = verify_fragmentation(
            recommendation.fragmentation, self.collection
        )
        report.raise_if_invalid()
        recommendation.rationale.append(
            "verified against the collection: complete, disjoint,"
            " reconstructible"
        )
        return recommendation

    # ------------------------------------------------------------------
    # Horizontal
    # ------------------------------------------------------------------
    def _selector_candidates(self) -> dict[str, float]:
        """Frequency-weighted score per equality-compared terminal path."""
        scores: dict[str, float] = {}
        for analysis, frequency in self._analyses:
            for atom in atoms(analysis.predicate):
                if (
                    isinstance(atom, Comparison)
                    and atom.op == "="
                    and atom.path.is_simple
                ):
                    scores[str(atom.path)] = scores.get(str(atom.path), 0.0) + frequency
        return scores

    def _recommend_horizontal(self) -> Optional[DesignRecommendation]:
        scores = self._selector_candidates()
        total_frequency = sum(f for _, f in self._analyses)
        for path_text, score in sorted(
            scores.items(), key=lambda item: -item[1]
        ):
            path = parse_path(path_text)
            values = self._value_distribution(path)
            if values is None or len(values) < 2:
                continue  # multi-valued or constant: unusable selector
            fragments = self._equality_family(
                self.collection.name, path, values
            )
            rationale = [
                f"selector {path_text}: referenced by"
                f" {score:.0f}/{total_frequency:.0f} weighted queries,"
                f" {len(values)} distinct values, single-valued on sample",
                f"{len(fragments)} fragments: top values get their own"
                " fragment, a residual catches the rest",
            ]
            return DesignRecommendation(
                kind="horizontal",
                fragmentation=FragmentationSchema(
                    self.collection.name,
                    fragments,
                    root_label=self.sample[0].root.label,
                ),
                rationale=rationale,
                score=score / max(total_frequency, 1e-9),
            )
        return None

    def _value_distribution(self, path: PathExpr) -> Optional[TallyCounter]:
        """Value histogram of ``path`` over the sample (None if multi-valued)."""
        tally: TallyCounter = TallyCounter()
        for document in self.sample:
            nodes = evaluate_path(path, document)
            if len(nodes) > 1:
                return None
            if nodes:
                tally[nodes[0].text_value()] += 1
        return tally

    def _equality_family(
        self, collection: str, path: PathExpr, values: TallyCounter
    ) -> list[HorizontalFragment]:
        """Top-(k-1) values get their own fragment; a residual completes."""
        own = min(self.site_count - 1, len(values))
        heavy = [value for value, _ in values.most_common(own)]
        fragments = [
            HorizontalFragment(
                f"F_{_slug(value)}", collection, predicate=eq(path, value)
            )
            for value in heavy
        ]
        residual_parts = tuple(ne(path, value) for value in heavy)
        residual = (
            residual_parts[0] if len(residual_parts) == 1 else And(residual_parts)
        )
        fragments.append(
            HorizontalFragment("F_rest", collection, predicate=residual)
        )
        return fragments

    # ------------------------------------------------------------------
    # Vertical
    # ------------------------------------------------------------------
    def _regions(self) -> list[str]:
        """Projectable top-level regions of the sample documents.

        A region is a child label of the root that occurs at most once per
        document — Definition 3's cardinality rule for projection paths.
        Repeating labels stay in the remainder fragment.
        """
        labels: list[str] = []
        repeating: set[str] = set()
        for document in self.sample:
            seen: TallyCounter = TallyCounter(
                child.label for child in document.root.element_children()
            )
            for label, count in seen.items():
                if label is None:
                    continue
                if count > 1:
                    repeating.add(label)
                elif label not in labels:
                    labels.append(label)
        return [label for label in labels if label not in repeating]

    def _recommend_vertical(self) -> Optional[DesignRecommendation]:
        regions = self._regions()
        if len(regions) < 2:
            return None
        root_label = self.sample[0].root.label or ""
        # Which regions does each query touch?
        touch_sets: list[tuple[frozenset[str], float]] = []
        for analysis, frequency in self._analyses:
            if not analysis.paths_exact:
                touch_sets.append((frozenset(regions), frequency))
                continue
            touched = set()
            for path in analysis.touched_paths:
                region = _region_of(path, root_label, regions)
                if region is None:
                    touched.update(regions)  # conservative
                else:
                    touched.add(region)
            touch_sets.append((frozenset(touched or regions), frequency))
        single_region_weight = sum(
            frequency for regions_, frequency in touch_sets if len(regions_) == 1
        )
        total = sum(frequency for _, frequency in touch_sets)
        clusters = _affinity_clusters(regions, touch_sets, self.site_count)
        fragments = [
            VerticalFragment(
                f"F_{region}",
                self.collection.name,
                path=f"/{root_label}/{region}",
            )
            for region in regions
        ]
        # The remainder keeps the root and any content outside the
        # projectable regions (repeating labels, attributes): completeness
        # by construction, and reconstruction gets a real skeleton.
        fragments.append(
            VerticalFragment(
                "F_rest",
                self.collection.name,
                path=f"/{root_label}",
                prune=tuple(f"/{root_label}/{region}" for region in regions),
            )
        )
        allocations = []
        for cluster_index, cluster in enumerate(clusters):
            for region in cluster:
                allocations.append(
                    FragmentAllocation(
                        fragment=f"F_{region}",
                        site=f"site{cluster_index % self.site_count}",
                        stored_collection=f"F_{region}",
                    )
                )
        allocations.append(
            FragmentAllocation(
                fragment="F_rest", site="site0", stored_collection="F_rest"
            )
        )
        rationale = [
            f"regions {', '.join(regions)} under /{root_label}",
            f"{single_region_weight:.0f}/{total:.0f} weighted queries touch"
            " a single region",
            "region clusters (co-located by affinity): "
            + "; ".join(",".join(sorted(c)) for c in clusters),
        ]
        return DesignRecommendation(
            kind="vertical",
            fragmentation=FragmentationSchema(
                self.collection.name, fragments, root_label=root_label
            ),
            allocations=allocations,
            rationale=rationale,
            score=single_region_weight / max(total, 1e-9),
        )

    # ------------------------------------------------------------------
    # Hybrid (SD)
    # ------------------------------------------------------------------
    def _recommend_hybrid(self) -> DesignRecommendation:
        document = self.sample[0]
        root_label = document.root.label or ""
        unit = self._find_repeating_unit(document)
        if unit is None:
            raise FragmentationError(
                "SD collection has no repeating unit to fragment over"
            )
        region_path, unit_label = unit
        # Selector inside the unit: reuse the horizontal machinery against
        # unit-rooted value paths.
        unit_nodes = [
            node
            for node in evaluate_path(f"{region_path}/{unit_label}", document)
        ]
        selector = self._unit_selector(unit_nodes, unit_label)
        if selector is None:
            raise FragmentationError(
                f"no single-valued selector found inside {unit_label!r} units"
            )
        selector_path, values = selector
        own = min(self.site_count - 2, len(values)) if self.site_count > 2 else 1
        heavy = [value for value, _ in values.most_common(max(own, 1))]
        fragments = [
            VerticalFragment(
                "F_rest",
                self.collection.name,
                path=f"/{root_label}",
                prune=(region_path,),
                stub_prunes=True,
            )
        ]
        for value in heavy:
            fragments.append(
                HybridFragment(
                    f"F_{_slug(value)}",
                    self.collection.name,
                    path=region_path,
                    unit_label=unit_label,
                    predicate=eq(selector_path, value),
                )
            )
        residual_parts = tuple(ne(selector_path, value) for value in heavy)
        fragments.append(
            HybridFragment(
                "F_other",
                self.collection.name,
                path=region_path,
                unit_label=unit_label,
                predicate=(
                    residual_parts[0]
                    if len(residual_parts) == 1
                    else And(residual_parts)
                ),
            )
        )
        rationale = [
            f"repeating unit {unit_label!r} under {region_path}",
            f"unit selector {selector_path} with {len(values)} values",
            f"design: remainder (stub prune of {region_path}) +"
            f" {len(fragments) - 1} unit fragments",
        ]
        return DesignRecommendation(
            kind="hybrid",
            fragmentation=FragmentationSchema(
                self.collection.name, fragments, root_label=root_label
            ),
            rationale=rationale,
            score=1.0,
        )

    def _find_repeating_unit(self, document) -> Optional[tuple[str, str]]:
        """The (region path, unit label) with the most repeated children."""
        root_label = document.root.label or ""
        best: Optional[tuple[int, str, str]] = None
        for child in document.root.element_children():
            tally = TallyCounter(
                grand.label for grand in child.element_children()
            )
            for label, count in tally.items():
                if count >= 2 and label is not None:
                    candidate = (count, f"/{root_label}/{child.label}", label)
                    if best is None or candidate[0] > best[0]:
                        best = candidate
        if best is None:
            return None
        return best[1], best[2]

    def _unit_selector(
        self, unit_nodes, unit_label: str
    ) -> Optional[tuple[PathExpr, TallyCounter]]:
        """Most discriminating single-valued leaf among unit children."""
        if not unit_nodes:
            return None
        best: Optional[tuple[float, PathExpr, TallyCounter]] = None
        labels = {
            child.label
            for node in unit_nodes[:20]
            for child in node.element_children()
        }
        for label in labels:
            tally: TallyCounter = TallyCounter()
            single_valued = True
            for node in unit_nodes:
                children = node.child_elements(label)
                if len(children) > 1 or (
                    children and children[0].element_children()
                ):
                    single_valued = False
                    break
                if children:
                    tally[children[0].text_value()] += 1
            if not single_valued or len(tally) < 2:
                continue
            # Prefer low-cardinality, evenly-used selectors (sections over
            # unique codes): score = coverage / distinct values.
            score = sum(tally.values()) / len(tally)
            if len(tally) > len(unit_nodes) * 0.8:
                continue  # nearly unique per unit: a key, not a selector
            path = parse_path(f"/{unit_label}/{label}")
            if best is None or score > best[0]:
                best = (score, path, tally)
        if best is None:
            return None
        return best[1], best[2]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _region_of(
    path: PathExpr, root_label: str, regions: list[str]
) -> Optional[str]:
    """Top-level region a touched path falls under (None = unknown)."""
    steps = path.steps
    if not steps:
        return None
    from repro.paths.ast import Axis

    if steps[0].axis is Axis.DESCENDANT:
        return steps[0].name if steps[0].name in regions else None
    if steps[0].name != root_label:
        return steps[0].name if steps[0].name in regions else None
    if len(steps) < 2:
        return None
    return steps[1].name if steps[1].name in regions else None


def _affinity_clusters(
    regions: list[str],
    touch_sets: list[tuple[frozenset[str], float]],
    max_clusters: int,
) -> list[set[str]]:
    """Greedy affinity clustering: merge the region pair with the highest
    co-access weight until the cluster count fits the sites."""
    affinity: dict[frozenset[str], float] = {}
    for touched, frequency in touch_sets:
        touched_list = sorted(touched)
        for i, a in enumerate(touched_list):
            for b in touched_list[i + 1 :]:
                key = frozenset((a, b))
                affinity[key] = affinity.get(key, 0.0) + frequency
    clusters: list[set[str]] = [{region} for region in regions]

    def pair_affinity(c1: set[str], c2: set[str]) -> float:
        return sum(
            affinity.get(frozenset((a, b)), 0.0) for a in c1 for b in c2
        )

    while len(clusters) > max_clusters:
        best_pair = None
        best_value = -1.0
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                value = pair_affinity(clusters[i], clusters[j])
                if value > best_value:
                    best_value = value
                    best_pair = (i, j)
        assert best_pair is not None
        i, j = best_pair
        clusters[i] |= clusters[j]
        del clusters[j]
    # Also merge pairs with strong affinity even below the site count,
    # so co-accessed regions land on one site (fewer joins).
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                within = pair_affinity(clusters[i], clusters[j])
                if within > 0 and within >= _solo_weight(
                    clusters[i], clusters[j], touch_sets
                ):
                    clusters[i] |= clusters[j]
                    del clusters[j]
                    merged = True
                    break
            if merged:
                break
    return clusters


def _solo_weight(
    c1: set[str], c2: set[str], touch_sets: list[tuple[frozenset[str], float]]
) -> float:
    """Weight of queries confined to exactly one of the two clusters."""
    return sum(
        frequency
        for touched, frequency in touch_sets
        if touched <= c1 or touched <= c2
    )


def _slug(value: str) -> str:
    cleaned = "".join(c if c.isalnum() else "_" for c in value.strip())
    return cleaned[:24] or "value"


# ----------------------------------------------------------------------
# Workload-driven rebalancing (the online half of the advisor)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RebalanceAction:
    """One ranked re-placement the workload advisor proposes.

    ``score`` is estimated seconds shaved off the *bottleneck site's*
    per-workload busy time (current − projected); actions are ranked by
    it. The action is plain data — :class:`repro.rebalance.Rebalancer`
    applies it.
    """

    kind: str  # "split" | "move" | "replicate" | "merge"
    collection: str
    fragment: str
    target_sites: tuple[str, ...] = ()
    score: float = 0.0
    current_bottleneck_seconds: float = 0.0
    projected_bottleneck_seconds: float = 0.0
    rationale: str = ""
    #: Second fragment of a merge (unused otherwise).
    fragment_b: Optional[str] = None
    #: Explicit split boundary path (None = let the rebalancer probe).
    split_path: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "collection": self.collection,
            "fragment": self.fragment,
            "target_sites": list(self.target_sites),
            "score": self.score,
            "current_bottleneck_seconds": self.current_bottleneck_seconds,
            "projected_bottleneck_seconds": self.projected_bottleneck_seconds,
            "rationale": self.rationale,
            "fragment_b": self.fragment_b,
            "split_path": self.split_path,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RebalanceAction":
        return cls(
            kind=payload["kind"],
            collection=payload["collection"],
            fragment=payload["fragment"],
            target_sites=tuple(payload.get("target_sites") or ()),
            score=float(payload.get("score", 0.0)),
            current_bottleneck_seconds=float(
                payload.get("current_bottleneck_seconds", 0.0)
            ),
            projected_bottleneck_seconds=float(
                payload.get("projected_bottleneck_seconds", 0.0)
            ),
            rationale=payload.get("rationale", ""),
            fragment_b=payload.get("fragment_b"),
            split_path=payload.get("split_path"),
        )


class _StatsOverlay:
    """A catalog stand-in whose ``statistics`` answers hypothetically.

    The cost model duck-types its catalog, so scoring a *candidate*
    design only needs fragment statistics for replicas that do not exist
    yet — this overlay serves those from ``overrides`` and delegates
    everything else to the real catalog.
    """

    def __init__(self, catalog, overrides: dict):
        self._catalog = catalog
        self._overrides = overrides

    def statistics(self, collection: str, fragment: str, site: str):
        key = (collection, fragment, site)
        if key in self._overrides:
            return self._overrides[key]
        return self._catalog.statistics(collection, fragment, site)


class WorkloadAdvisor:
    """Mines a :class:`repro.rebalance.QueryLog` for rebalance actions.

    Where :class:`FragmentationAdvisor` designs a fragmentation from
    scratch (collection + anticipated workload), the workload advisor
    starts from the *observed* workload of a live deployment: which
    fragments each query actually scanned, on which site, and how
    selective it turned out to be. It rebuilds each site's busy time per
    pass over the logged workload with the plan's own
    :class:`~repro.plan.cost.CostModel`, then scores candidate actions —
    split the hottest horizontal fragment, move or replicate it, merge
    the two coldest siblings — by how far they lower the bottleneck
    site's busy time. Hypothetical replicas (split halves, moved copies)
    are costed through a statistics overlay so the same model prices
    designs that do not exist yet.
    """

    def __init__(self, catalog, cost_model, query_log, sites: Sequence[str]):
        self.catalog = catalog
        self.cost_model = cost_model
        self.query_log = query_log
        self.sites = list(sites)

    # ------------------------------------------------------------------
    def advise(
        self, collection: Optional[str] = None, top: int = 5
    ) -> list[RebalanceAction]:
        """Ranked rebalance actions (best first; may be empty)."""
        if collection is not None:
            collections = [collection]
        else:
            collections = sorted(
                {
                    entry.collection
                    for entry in self.query_log.entries()
                    if entry.collection is not None
                    and self.catalog.is_fragmented(entry.collection)
                }
            )
        actions: list[RebalanceAction] = []
        for name in collections:
            actions.extend(self._advise_collection(name))
        actions.sort(key=lambda action: -action.score)
        return actions[:top]

    # ------------------------------------------------------------------
    def _advise_collection(self, collection: str) -> list[RebalanceAction]:
        design = self.catalog.fragmentation(collection)
        fragment_names = set(design.fragment_names())
        # Re-price every logged lane with the cost model: estimated busy
        # seconds per (fragment, site) over one pass of the logged
        # workload. Lanes from earlier catalog versions whose fragments
        # no longer exist are skipped — their design is gone.
        lane_cost: dict[tuple[str, str], float] = {}
        entries = self.query_log.entries(collection)
        for entry in entries:
            for lane in entry.lanes:
                if lane.fragment not in fragment_names:
                    continue
                estimate = self.cost_model.scan_estimate(
                    collection,
                    lane.fragment,
                    lane.site,
                    entry.query,
                    selectivity=(
                        lane.selectivity
                        if lane.selectivity is not None
                        else 1.0
                    ),
                )
                key = (lane.fragment, lane.site)
                lane_cost[key] = lane_cost.get(key, 0.0) + estimate.total_seconds
        if not lane_cost:
            return []
        site_load: dict[str, float] = {site: 0.0 for site in self.sites}
        for (fragment, site), seconds in lane_cost.items():
            site_load[site] = site_load.get(site, 0.0) + seconds
        bottleneck_site = max(site_load, key=lambda s: (site_load[s], s))
        current = site_load[bottleneck_site]
        if current <= 0.0:
            return []
        hot_candidates = [
            (fragment, seconds)
            for (fragment, site), seconds in lane_cost.items()
            if site == bottleneck_site
        ]
        hot_fragment, hot_seconds = max(
            hot_candidates, key=lambda item: (item[1], item[0])
        )
        cold_sites = sorted(
            (site for site in site_load if site != bottleneck_site),
            key=lambda s: (site_load[s], s),
        )
        if not cold_sites:
            return []
        actions: list[RebalanceAction] = []

        def projected(moves: dict[str, float]) -> float:
            """Bottleneck after adding per-site deltas to the load map."""
            adjusted = dict(site_load)
            for site, delta in moves.items():
                adjusted[site] = adjusted.get(site, 0.0) + delta
            return max(adjusted.values())

        # -- split: halve the hot fragment across bottleneck + coldest --
        fragment_def = design.fragment(hot_fragment)
        stats = self.catalog.statistics(
            collection, hot_fragment, bottleneck_site
        )
        if (
            isinstance(fragment_def, HorizontalFragment)
            and stats is not None
            and stats.documents >= 2
        ):
            half_seconds = self._half_cost(
                collection, hot_fragment, bottleneck_site, stats, entries
            )
            target = cold_sites[0]
            after = projected(
                {
                    bottleneck_site: half_seconds - hot_seconds,
                    target: half_seconds,
                }
            )
            actions.append(
                RebalanceAction(
                    kind="split",
                    collection=collection,
                    fragment=hot_fragment,
                    target_sites=(bottleneck_site, target),
                    score=current - after,
                    current_bottleneck_seconds=current,
                    projected_bottleneck_seconds=after,
                    rationale=(
                        f"{bottleneck_site!r} is the bottleneck"
                        f" ({current:.3f}s busy per workload pass) and"
                        f" {hot_fragment!r} accounts for"
                        f" {hot_seconds:.3f}s of it; splitting the"
                        f" fragment keeps one half there and places the"
                        f" other on {target!r}"
                        f" (least-loaded, {site_load[target]:.3f}s)"
                    ),
                )
            )
        # -- move: ship the hot fragment to the coldest site -----------
        target = cold_sites[0]
        after = projected({bottleneck_site: -hot_seconds, target: hot_seconds})
        actions.append(
            RebalanceAction(
                kind="move",
                collection=collection,
                fragment=hot_fragment,
                target_sites=(target,),
                score=current - after,
                current_bottleneck_seconds=current,
                projected_bottleneck_seconds=after,
                rationale=(
                    f"re-placing {hot_fragment!r} ({hot_seconds:.3f}s of"
                    f" {bottleneck_site!r}'s {current:.3f}s) onto"
                    f" {target!r} ({site_load[target]:.3f}s)"
                ),
            )
        )
        # -- replicate: failover headroom for the hot fragment ---------
        # Scored at zero latency benefit on purpose: the lane scheduler
        # balances load *within* one query's plan, so a single-scan
        # query keeps choosing the same cheapest replica — a copy buys
        # failover capacity, not lower steady-state latency.
        replica_sites = {
            allocation.site
            for allocation in self.catalog.replicas(collection, hot_fragment)
        }
        replica_targets = [s for s in cold_sites if s not in replica_sites]
        if replica_targets:
            target = replica_targets[0]
            actions.append(
                RebalanceAction(
                    kind="replicate",
                    collection=collection,
                    fragment=hot_fragment,
                    target_sites=(target,),
                    score=0.0,
                    current_bottleneck_seconds=current,
                    projected_bottleneck_seconds=current,
                    rationale=(
                        f"a replica of {hot_fragment!r} on {target!r}"
                        " adds failover headroom for the hottest"
                        " fragment (lowering picks one replica per"
                        " query, so steady-state latency is unchanged)"
                    ),
                )
            )
        # -- merge: fuse the two coldest horizontal siblings -----------
        horizontal = [
            item
            for item in design.fragments
            if isinstance(item, HorizontalFragment)
        ]
        if len(horizontal) >= 3:
            by_heat = sorted(
                horizontal,
                key=lambda item: (
                    sum(
                        seconds
                        for (fragment, _), seconds in lane_cost.items()
                        if fragment == item.name
                    ),
                    item.name,
                ),
            )
            cold_a, cold_b = by_heat[0], by_heat[1]
            if cold_a.name != hot_fragment and cold_b.name != hot_fragment:
                cold_cost = sum(
                    seconds
                    for (fragment, _), seconds in lane_cost.items()
                    if fragment in (cold_a.name, cold_b.name)
                )
                target = self.catalog.allocation(collection, cold_a.name).site
                actions.append(
                    RebalanceAction(
                        kind="merge",
                        collection=collection,
                        fragment=cold_a.name,
                        fragment_b=cold_b.name,
                        target_sites=(target,),
                        score=0.0,
                        current_bottleneck_seconds=current,
                        projected_bottleneck_seconds=current,
                        rationale=(
                            f"{cold_a.name!r} + {cold_b.name!r} together"
                            f" cost only {cold_cost:.3f}s per pass;"
                            " merging them frees a dispatch lane without"
                            " moving the bottleneck"
                        ),
                    )
                )
        return actions

    # ------------------------------------------------------------------
    def _half_cost(
        self, collection, fragment, site, stats, entries
    ) -> float:
        """Cost of one split half's share of the logged workload, priced
        by the same model through a halved-statistics overlay."""
        from repro.partix.catalog import FragmentStatistics
        from repro.plan.cost import CostModel

        half_name = f"{fragment}@half"
        overlay = _StatsOverlay(
            self.catalog,
            {
                (collection, half_name, site): FragmentStatistics(
                    documents=max(1, stats.documents // 2),
                    bytes=max(1, stats.bytes // 2),
                )
            },
        )
        model = CostModel(
            overlay,
            self.cost_model.network,
            seconds_per_document=self.cost_model.seconds_per_document,
            seconds_per_byte=self.cost_model.seconds_per_byte,
        )
        total = 0.0
        for entry in entries:
            for lane in entry.lanes:
                if lane.fragment != fragment:
                    continue
                total += model.scan_estimate(
                    collection,
                    half_name,
                    site,
                    entry.query,
                    selectivity=(
                        lane.selectivity
                        if lane.selectivity is not None
                        else 1.0
                    ),
                ).total_seconds
        return total
