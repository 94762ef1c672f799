"""Spawn a local cluster of real site-server processes.

:class:`TcpSiteCluster` turns a set of site names into one OS process
per site, each running a :class:`~repro.net.server.SiteServer` with its
own private engine — separate Python heaps, real sockets in between.
Children bind to port 0 on localhost and report the chosen port back
over a ``multiprocessing`` pipe, so no port coordination is needed.

:func:`mirror_site` republishes a local site's stored collections to its
remote twin *through the driver path*: the bytes that travel are exactly
the serialized fragment documents the publisher produced (annotations
included), so the remote engines hold byte-identical repositories.
:class:`MirroredDriver` keeps them that way afterwards: it is the driver
a site answers through while its server runs, and every write through it
reaches the local engine and the server.

Shutdown is graceful first (SHUTDOWN frame → drain → exit), with
``terminate()`` as the fallback for unresponsive or killed processes.
"""

from __future__ import annotations

import multiprocessing
import signal
from dataclasses import dataclass
from typing import Iterable, Optional, TYPE_CHECKING, Union

from repro.errors import TransportError
from repro.net.client import RemoteSiteDriver, SiteClient, TcpTransport
from repro.partix.driver import MiniXDriver
from repro.xmltext.serializer import serialize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.site import Cluster, Site
    from repro.datamodel.document import XMLDocument
    from repro.engine.database import XMLEngine
    from repro.engine.store import StoredDocument


def _serve_site(name: str, engine_config: dict, conn) -> None:
    """Child-process entry point: build an engine, serve, drain, exit."""
    from repro.engine.database import XMLEngine
    from repro.net.server import SiteServer

    try:
        engine = XMLEngine(name, **engine_config)
        server = SiteServer(MiniXDriver(engine), site=name)
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        conn.send(("error", name, f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    signal.signal(signal.SIGTERM, lambda *_: server.request_shutdown())
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    conn.send(("ready", name, server.port))
    conn.close()
    server.serve_forever()


@dataclass
class SpawnedSite:
    """One running site-server process and the client speaking to it."""

    name: str
    process: multiprocessing.process.BaseProcess
    client: SiteClient

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


def _ship(client: SiteClient, collection: str, stored: "StoredDocument") -> None:
    """Send one stored document to a server: the text of the table the
    local engine holds, under the name and origin it holds it."""
    client.store_document(
        collection,
        serialize(stored.binary.root),
        name=stored.name,
        origin=stored.origin,
    )


def mirror_site(site: "Site", client: SiteClient) -> tuple[int, int]:
    """Republish a local site's collections to its remote twin.

    Returns ``(collections, documents)`` mirrored. Each document ships
    as its serialized text — the remote engine parses and indexes it on
    ingestion, exactly as it would for a direct publication.
    """
    engine = getattr(site.driver, "engine", None)
    if engine is None:
        raise TransportError(
            f"cannot mirror site {site.name!r}: its driver has no local"
            " engine to read collections from"
        )
    documents = 0
    names = engine.collection_names()
    for collection_name in names:
        client.create_collection(collection_name)
        collection = engine.store.collection(collection_name)
        for doc_name in collection.names():
            _ship(client, collection_name, collection.get(doc_name))
            documents += 1
    return len(names), documents


class MirroredDriver(MiniXDriver):
    """A site's local engine plus its running server twin.

    Reads and queries are the local engine's; a write — create, store,
    retain — reaches the engine **and** the server, so whoever writes
    through ``site.driver`` (publisher, rebalancer) writes once and the
    in-process and tcp modes keep answering from identical repositories.
    The server receives the bytes the engine stored, under the name the
    engine stored them, exactly as :func:`mirror_site` ships them.
    """

    def __init__(self, engine: "XMLEngine", client: SiteClient):
        super().__init__(engine)
        self.client = client

    def create_collection(self, name: str) -> None:
        super().create_collection(name)
        self.client.create_collection(name)

    def store_document(
        self,
        collection: str,
        document: Union["XMLDocument", str, bytes],
        name: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> None:
        stored = self.engine.store_document(
            collection, document, name=name, origin=origin
        )
        _ship(self.client, collection, stored)

    def retain_documents(self, collection: str, keep: Iterable[str]) -> None:
        keep = set(keep)
        super().retain_documents(collection, keep)
        self.client.retain_documents(collection, keep)


class TcpSiteCluster:
    """A set of spawned site-server processes plus their clients."""

    def __init__(self, sites: dict[str, SpawnedSite]):
        self.sites = sites

    @classmethod
    def spawn(
        cls,
        site_configs: dict[str, dict],
        startup_timeout: float = 15.0,
        context: Optional[multiprocessing.context.BaseContext] = None,
        connect_timeout: float = 5.0,
        chunk_bytes: Optional[int] = None,
    ) -> "TcpSiteCluster":
        """Start one server process per entry in ``site_configs``
        (site name → engine keyword arguments) and wait until every
        server reports its bound port. ``chunk_bytes``, when given, is
        proposed by every client at connect time as the RESULT_CHUNK
        size."""
        if context is None:
            # fork is much cheaper than spawn and available on the
            # platforms CI runs on; fall back to the default elsewhere.
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
            context = multiprocessing.get_context(method)
        spawned: dict[str, SpawnedSite] = {}
        pending = []
        try:
            for name, config in site_configs.items():
                parent_conn, child_conn = context.Pipe(duplex=False)
                process = context.Process(
                    target=_serve_site,
                    args=(name, config, child_conn),
                    name=f"repro-site-{name}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                pending.append((name, process, parent_conn))
            for name, process, conn in pending:
                if not conn.poll(startup_timeout):
                    raise TransportError(
                        f"site server {name!r} did not report a port within"
                        f" {startup_timeout:.1f}s"
                    )
                status, _, detail = conn.recv()
                conn.close()
                if status != "ready":
                    raise TransportError(
                        f"site server {name!r} failed to start: {detail}"
                    )
                client = SiteClient(
                    "127.0.0.1",
                    detail,
                    site=name,
                    connect_timeout=connect_timeout,
                    chunk_bytes=chunk_bytes,
                )
                spawned[name] = SpawnedSite(
                    name=name, process=process, client=client
                )
        except BaseException:
            for name, process, _ in pending:
                if process.is_alive():
                    process.terminate()
            for site in spawned.values():
                site.client.close()
            raise
        return cls(spawned)

    # ------------------------------------------------------------------
    @property
    def clients(self) -> dict[str, SiteClient]:
        return {name: site.client for name, site in self.sites.items()}

    def transport(self) -> TcpTransport:
        """Socket lanes for the dispatcher."""
        return TcpTransport(self.clients)

    def cluster(self) -> "Cluster":
        """A :class:`Cluster` of remote-driver sites (publisher-compatible)."""
        from repro.cluster.site import Cluster, Site

        return Cluster(
            Site(name, driver=RemoteSiteDriver(site.client))
            for name, site in self.sites.items()
        )

    def ping_all(self) -> dict[str, dict]:
        """Health-check every site; raises TransportError on a dead one."""
        return {name: site.client.ping() for name, site in self.sites.items()}

    def kill(self, name: str) -> None:
        """Hard-kill one site server (fault-injection tests)."""
        site = self.sites[name]
        site.process.kill()
        site.process.join(timeout=5.0)
        site.client.close()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Drain every server (graceful), then reap the processes."""
        for site in self.sites.values():
            if site.process.is_alive():
                site.client.shutdown_server()
            site.client.close()
        for site in self.sites.values():
            site.process.join(timeout=timeout)
            if site.process.is_alive():
                site.process.terminate()
                site.process.join(timeout=timeout)
