"""The PartiX middleware (paper §4, Figure 5/6).

"PartiX works as a middleware between the user application and a set of
DBMS servers, which actually store the distributed XML data. ... when a
query arrives, PartiX analyzes the fragmentation schema to properly split
it into sub-queries, and then sends each sub-query to its respective
fragment. Also, PartiX gathers the results of the sub-queries and
reconstructs the query answer."

:class:`Partix` wires the catalog services, the data publisher, the query
decomposer and the result composer over a simulated cluster. Timing
follows the paper's methodology: the reported parallel time is the
slowest site's busy time plus composition, with transmission estimated
from result sizes over the network model and reported separately (the
paper's FragModeX-T / FragModeX-NT series).

Three execution modes cover the paper's simulation *and* the real thing:

* ``execution_mode="simulated"`` (default) — sub-queries run
  sequentially in-process, as the paper's prototype did;
* ``execution_mode="threads"`` — sub-queries run concurrently through a
  :class:`~repro.cluster.dispatch.ParallelDispatcher` (one worker lane
  per site, timeout/retry/failure policy);
* ``execution_mode="tcp"`` — the same dispatcher drives socket lanes to
  real site-server *processes* (see :mod:`repro.net`): serialization
  and transport costs are paid, not modeled. Call :meth:`Partix.start_tcp`
  first — it spawns one server per cluster site and mirrors every
  published fragment to them over the wire. A site sizes each reply
  itself — a short answer inline in one RESULT frame, a long one as
  RESULT_CHUNK frames (see :mod:`repro.net.protocol`) — and the lane
  returns the same text either way; there is nothing for a caller to
  choose. ``"tcp-stream"`` is still read as a spelling of ``"tcp"``.

Execution is plan-driven: every query is decomposed into a logical plan,
lowered to a :class:`~repro.plan.physical.PhysicalPlan` (cost-based
site/replica selection; see :mod:`repro.plan`), and run through the one
:class:`~repro.plan.executor.PlanExecutor` path. The modes differ only
in the :class:`~repro.cluster.dispatch.Transport` they select —
``"simulated"`` is the in-process transport behind a serializing lock,
reproducing the paper's sequential round. ``Partix.explain`` returns the
physical plan (render it with ``.render()``) without executing anything.

In every mode ``ParallelRound.measured_wall_seconds`` records the real
wall-clock of the round, and results are byte-identical across modes
(partial results always compose in plan order).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING

from repro.cluster.dispatch import (
    InProcessTransport,
    ParallelDispatcher,
    SerialTransport,
    Transport,
)
from repro.errors import CatalogContention, CatalogError, ClusterError
from repro.net.protocol import DEFAULT_CHUNK_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.bootstrap import TcpSiteCluster
from repro.cluster.network import NetworkModel
from repro.cluster.site import Cluster, ParallelRound
from repro.datamodel.collection import Collection
from repro.partix.catalog import (
    DistributionCatalog,
    FragmentAllocation,
    SchemaCatalog,
)
from repro.partix.composer import ComposedResult, ResultComposer
from repro.partix.decomposer import QueryDecomposer
from repro.partix.fragments import FragmentationSchema
from repro.partix.publisher import DataPublisher, FragMode, PublicationReport
from repro.plan.cache import PlanCache
from repro.plan.cost import CostModel
from repro.plan.executor import ExecutionMode, PlanExecutor
from repro.plan.lower import lower
from repro.plan.physical import PhysicalPlan
from repro.plan.spec import SubQuery


@dataclass
class PartixResult:
    """Outcome of one distributed query."""

    query: str
    result_text: str
    result_bytes: int
    round: ParallelRound
    composed: ComposedResult
    transmission_seconds: float
    plan: Optional[PhysicalPlan] = None
    notes: list[str] = field(default_factory=list)

    @property
    def parallel_seconds(self) -> float:
        """Slowest-site time + composition (no transmission)."""
        return self.round.parallel_seconds + self.composed.compose_seconds

    @property
    def total_seconds(self) -> float:
        """Parallel time including estimated transmission."""
        return self.parallel_seconds + self.transmission_seconds

    @property
    def sequential_seconds(self) -> float:
        """Sum of all sub-query times (a one-site-at-a-time lower bound)."""
        return self.round.sequential_seconds + self.composed.compose_seconds

    @property
    def measured_wall_seconds(self) -> float:
        """Real wall-clock of the round + composition on this machine
        (concurrent in ``"threads"``/``"tcp"`` mode, sequential in
        ``"simulated"``)."""
        return self.round.measured_wall_seconds + self.composed.compose_seconds

    @property
    def bytes_sent(self) -> int:
        """Transport bytes sent dispatching the round's sub-queries —
        real framed socket bytes when :attr:`wire_measured`, otherwise
        the payload sizes that would have traveled."""
        return self.round.total_bytes_sent

    @property
    def bytes_received(self) -> int:
        """Transport bytes received gathering the round's results."""
        return self.round.total_bytes_received

    @property
    def wire_measured(self) -> bool:
        """True when the byte counts were measured on real sockets."""
        return self.round.wire_measured

    @property
    def peak_buffered_bytes(self) -> int:
        """Bytes the round's lanes held as undecoded reply chunks (0
        when every site answered inline or in process)."""
        return self.round.peak_buffered_bytes

    @property
    def first_chunk_seconds(self) -> Optional[float]:
        """The earliest lane's wait for its first reply chunk (``None``
        when no reply was chunked)."""
        return self.round.first_chunk_seconds

    @property
    def failover_count(self) -> int:
        """Replica failovers the round's retries performed (0 = every
        sub-query was answered by the site the plan targeted)."""
        return self.round.failover_count



class Partix:
    """Coordinator for distributed XQuery over fragmented repositories."""

    def __init__(
        self,
        cluster: Cluster,
        network: Optional[NetworkModel] = None,
        schema_catalog: Optional[SchemaCatalog] = None,
        distribution_catalog: Optional[DistributionCatalog] = None,
        dispatcher: Optional[ParallelDispatcher] = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        plan_cache: Optional[PlanCache] = None,
    ):
        self.cluster = cluster
        #: LRU of logical plans keyed on (query, collection, catalog
        #: version), so a repeated query skips parse/analyze/decompose.
        #: ``None`` (the default) gives this instance a private one; a
        #: caller-supplied cache is shared (the coordinator service
        #: reports from the one it serves through). Hits re-lower
        #: against the live site health, so cached plans still avoid
        #: ejected sites.
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        #: How many times cached planning retries when a concurrent
        #: catalog replace invalidates the version it read mid-decompose,
        #: before raising :class:`~repro.errors.CatalogContention`.
        self.plan_retry_attempts = 4
        #: The reply-chunk size :meth:`start_tcp` proposes to its site
        #: servers (a deployment setting: the answer size from which a
        #: site chunks its reply).
        self.chunk_bytes = chunk_bytes
        self._in_process = InProcessTransport(cluster)
        self.network = network if network is not None else NetworkModel()
        #: :meth:`close` ends the lane threads of a dispatcher created
        #: here; a caller-supplied one stays the caller's to close.
        self._owns_dispatcher = dispatcher is None
        self.dispatcher = (
            dispatcher if dispatcher is not None else ParallelDispatcher()
        )
        #: Shared site-health tracker: the dispatcher reports attempt
        #: outcomes into it, lowering reads it back so new plans avoid
        #: ejected sites. A caller-supplied dispatcher brings its own;
        #: exotic dispatcher substitutes without one get a private
        #: tracker (lowering still works, it just never sees ejections).
        self.site_health = getattr(self.dispatcher, "site_health", None)
        if self.site_health is None:
            from repro.cluster.health import SiteHealth

            self.site_health = SiteHealth()
        self.schema_catalog = (
            schema_catalog if schema_catalog is not None else SchemaCatalog()
        )
        self.distribution_catalog = (
            distribution_catalog
            if distribution_catalog is not None
            else DistributionCatalog()
        )
        self.publisher = DataPublisher(cluster, self.distribution_catalog)
        #: Cost model fed by the catalog's fragment statistics and this
        #: instance's network model; lowering uses it for site selection
        #: and the per-node estimates shown by ``explain``.
        self.cost_model = CostModel(self.distribution_catalog, self.network)
        self.decomposer = QueryDecomposer(
            self.distribution_catalog,
            cost_model=self.cost_model,
            site_health=self.site_health,
        )
        self.composer = ResultComposer()
        self.plan_executor = PlanExecutor(self.composer)
        self._tcp: Optional["TcpSiteCluster"] = None
        #: What each site answered through before :meth:`start_tcp` put
        #: a mirrored driver in its place; :meth:`stop_tcp` restores it.
        self._plain_drivers: dict = {}

    def close(self) -> None:
        """Give back what this instance started: the site-server
        processes of :meth:`start_tcp` and the lane threads of the
        dispatcher it created. Idempotent, and the instance stays usable
        (lane threads restart on demand). ``with Partix(...) as partix:``
        closes on exit."""
        self.stop_tcp()
        if self._owns_dispatcher:
            self.dispatcher.close()

    def __enter__(self) -> "Partix":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(
        self,
        collection: Collection,
        fragmentation: FragmentationSchema,
        allocations: Optional[Sequence[FragmentAllocation]] = None,
        frag_mode: FragMode = FragMode.SINGLE_DOCUMENT,
        verify: bool = False,
        require_homogeneous: bool = True,
        replace: bool = False,
    ) -> PublicationReport:
        """Fragment and distribute a collection (see :class:`DataPublisher`).

        ``replace=True`` republishes over an existing design: data is
        stored before the catalog registration is swapped, and the
        resulting catalog-version bump invalidates cached plans.
        """
        return self.publisher.publish(
            collection,
            fragmentation,
            allocations=allocations,
            frag_mode=frag_mode,
            verify=verify,
            require_homogeneous=require_homogeneous,
            replace=replace,
        )

    def publish_centralized(
        self,
        collection: Collection,
        site_name: str,
        stored_collection: Optional[str] = None,
    ):
        """Store a whole collection at one site (baseline configuration)."""
        return self.publisher.publish_centralized(
            collection, site_name, stored_collection=stored_collection
        )

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: str,
        collection: Optional[str] = None,
        plan: Optional[PhysicalPlan] = None,
        execution_mode: str = "simulated",
        dispatcher: Optional[ParallelDispatcher] = None,
        deadline_seconds: Optional[float] = None,
    ) -> PartixResult:
        """Run a query over the fragmented repository.

        Without an explicit ``plan``, the automatic decomposer derives one
        from the distribution catalog (our extension); passing a plan
        reproduces the paper's annotated mode ("data location is provided
        along with sub-queries").

        ``execution_mode`` selects how sub-queries run: ``"simulated"``
        executes them sequentially in-process (paper methodology),
        ``"threads"`` dispatches them concurrently — one worker lane per
        site — through ``dispatcher`` (default: this instance's
        :class:`ParallelDispatcher`), and ``"tcp"`` sends them through
        the same dispatcher to real site-server processes (requires
        :meth:`start_tcp`). All modes compose partial results in plan
        order, so the answer is byte-identical.

        ``deadline_seconds`` bounds this query: it is handed to the
        dispatcher as the round's per-sub-query budget override (lanes
        run in parallel, so it bounds the round's wall time through the
        PR 6 shared-budget machinery). The coordinator threads each
        client's remaining deadline through here.

        Whether a site probes its indexes or scans every document is that
        site's own engine setting; no plan or query overrides it.
        """
        mode = ExecutionMode.parse(execution_mode)
        if plan is None:
            plan = self._plan_for(query, collection)
        notes = list(plan.notes)
        active = dispatcher if dispatcher is not None else self.dispatcher
        executed = self.plan_executor.run(
            plan,
            self._transport_for(mode),
            active,
            subquery_timeout=deadline_seconds,
        )
        notes.extend(executed.notes)
        round_ = executed.round
        composed = executed.composed
        # Priced on the texts that were sent: a semi-join's answer stage
        # carries its keys, and is not sent at all when there are none.
        transmission = self.network.gather_seconds(
            round_.result_sizes,
            query_sizes=[
                len(execution.query.encode("utf-8"))
                for execution in round_.executions
            ],
        )
        return PartixResult(
            query=query,
            result_text=composed.result_text,
            result_bytes=composed.result_bytes,
            round=round_,
            composed=composed,
            transmission_seconds=transmission,
            plan=plan,
            notes=notes,
        )

    def _plan_for(
        self, query: str, collection: Optional[str]
    ) -> PhysicalPlan:
        """Plan a query through :attr:`plan_cache`.

        The cache stores the *logical* plan keyed on the catalog version;
        every execution (hit or miss) re-lowers it against the live cost
        model and site health, so routing decisions — ejected sites,
        replica choice — are always current. A version change observed
        across the decompose (a concurrent republish swapping the design
        mid-read) discards the possibly-mixed plan and retries against
        the new design. The retry loop is bounded by
        :attr:`plan_retry_attempts`: if replaces keep racing planning, a
        typed :class:`~repro.errors.CatalogContention` is raised instead
        of silently planning against a design that may be mixed — the
        caller can retry once the replace storm settles.
        """
        catalog = self.distribution_catalog
        for _ in range(self.plan_retry_attempts):
            version = catalog.version
            logical = self.plan_cache.get(query, collection, version)
            if logical is None:
                try:
                    logical = self.decomposer.decompose_logical(
                        query, collection
                    )
                except CatalogError:
                    if catalog.version != version:
                        continue  # design swapped mid-decompose; replan
                    raise
                if catalog.version != version:
                    continue  # may mix old and new designs; replan
                self.plan_cache.put(query, collection, version, logical)
            return lower(
                logical,
                cost_model=self.cost_model,
                site_health=self.site_health,
            )
        raise CatalogContention(
            f"catalog version changed across {self.plan_retry_attempts}"
            f" consecutive planning attempts for query {query!r}"
            " (concurrent replaces/rebalances kept invalidating the"
            " design mid-decompose); retry once the catalog settles"
        )

    def _transport_for(self, mode: ExecutionMode) -> Transport:
        """The Transport a parsed mode runs over — the *only* thing that
        differs between modes; planning, dispatch and composition are
        shared."""
        if mode.transport == "tcp":
            if self._tcp is None:
                raise ClusterError(
                    "execution_mode='tcp' requires running site servers;"
                    " call Partix.start_tcp() first"
                )
            return self._tcp.transport()
        if not mode.concurrent:
            # The paper's sequential "simulated" round: same dispatcher,
            # same lanes, one at a time on the calling thread. The
            # wrapper is per query, so concurrent callers serialize
            # their own lanes, not each other's.
            return SerialTransport(self._in_process)
        return self._in_process

    # ------------------------------------------------------------------
    # Real networked sites (execution_mode="tcp")
    # ------------------------------------------------------------------
    def start_tcp(
        self,
        startup_timeout: float = 15.0,
        context=None,
    ) -> "TcpSiteCluster":
        """Spawn one site-server process per cluster site and mirror the
        published data to them.

        Each server runs a private engine configured like its local twin
        (indexes, per-document overhead). Every collection stored at a
        local site is republished to the matching server through the
        driver path — the serialized fragment documents themselves
        travel, so the remote repositories are byte-identical — and they
        stay so: until :meth:`stop_tcp` each site answers through a
        :class:`~repro.net.bootstrap.MirroredDriver`, so a later publish
        or migration writing through ``site.driver`` reaches the server
        too. Idempotent until :meth:`stop_tcp`.
        """
        if self._tcp is not None:
            return self._tcp
        from repro.net.bootstrap import (
            MirroredDriver,
            TcpSiteCluster,
            mirror_site,
        )

        sites = self.cluster.sites()
        tcp = TcpSiteCluster.spawn(
            {site.name: site.engine_config() for site in sites},
            startup_timeout=startup_timeout,
            context=context,
            chunk_bytes=self.chunk_bytes,
        )
        try:
            for site in sites:
                mirror_site(site, tcp.clients[site.name])
        except BaseException:
            tcp.shutdown()
            raise
        for site in sites:
            self._plain_drivers[site.name] = site.driver
            site.driver = MirroredDriver(
                site.driver.engine, tcp.clients[site.name]
            )
        self._tcp = tcp
        return tcp

    def stop_tcp(self) -> None:
        """Drain and reap the site-server processes and give every site
        its plain driver back (no-op when absent)."""
        if self._tcp is not None:
            for name, driver in self._plain_drivers.items():
                self.cluster.site(name).driver = driver
            self._plain_drivers.clear()
            self._tcp.shutdown()
            self._tcp = None

    @property
    def tcp(self) -> Optional["TcpSiteCluster"]:
        """The running TCP site cluster, if :meth:`start_tcp` was called."""
        return self._tcp

    def explain(
        self, query: str, collection: Optional[str] = None
    ) -> PhysicalPlan:
        """The physical plan the middleware would execute — lanes, target
        sites, composition and per-node cost estimates — without running
        anything. ``.render()`` formats it as an indented tree."""
        return self.decomposer.decompose(query, collection)

    def execute_centralized(
        self,
        query: str,
        site_name: str,
    ) -> PartixResult:
        """Run a query directly at one site (the centralized baseline):
        a one-lane round through the in-process transport, like every
        other lane, with nothing to decompose or compose."""
        subquery = SubQuery(
            fragment="(centralized)", site=site_name, collection="", query=query
        )
        started = time.perf_counter()
        execution = self._in_process.execute(subquery)
        round_ = ParallelRound(
            executions=[execution],
            measured_wall_seconds=time.perf_counter() - started,
        )
        composed = ComposedResult(
            result_text=execution.result.result_text,
            result_bytes=execution.result_bytes,
            compose_seconds=0.0,
        )
        return PartixResult(
            query=query,
            result_text=composed.result_text,
            result_bytes=composed.result_bytes,
            round=round_,
            composed=composed,
            transmission_seconds=self.network.gather_seconds(
                round_.result_sizes, query_sizes=[execution.bytes_sent]
            ),
        )
