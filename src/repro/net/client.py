"""Client side of the PartiX wire protocol.

:class:`SiteClient` talks to one site server through a small connection
pool: each request borrows an idle connection (or dials a new one, with
a connect timeout and the HELLO/WELCOME handshake), sends one frame, and
reads one reply under the caller's read timeout. Transport-level
failures — refused/reset connections, mid-frame EOF, read timeouts —
surface as :class:`~repro.errors.TransportError` /
:class:`~repro.errors.TransportTimeout`, which the dispatcher treats as
retryable; the broken connection is discarded, never repooled.

Every request records its real bytes on the wire (frames in both
directions). :class:`RemoteSiteDriver` adapts the client to the
:class:`~repro.partix.driver.PartixDriver` interface so the existing
publisher stores fragments through the very same path it uses for local
engines, and :class:`TcpTransport` plugs the client pool into
:class:`~repro.cluster.dispatch.ParallelDispatcher`.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Iterable, Optional, Sequence, Union, TYPE_CHECKING

from repro.cluster.dispatch import Transport
from repro.cluster.site import SubQueryExecution
from repro.engine.database import utf8_length
from repro.engine.stats import ExecOptions, QueryResult
from repro.errors import (
    ClusterError,
    CollectionNotFoundError,
    ProtocolError,
    TransportError,
    TransportTimeout,
)
from repro.net.protocol import (
    Frame,
    FrameType,
    PROTOCOL_VERSION,
    payload_to_exception,
    recv_frame,
    send_frame,
)
from repro.partix.driver import PartixDriver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datamodel.document import XMLDocument
    from repro.plan.spec import SubQuery


class SiteClient:
    """Pooled connections to one site server."""

    def __init__(
        self,
        host: str,
        port: int,
        site: str = "",
        connect_timeout: float = 5.0,
        read_timeout: Optional[float] = None,
        pool_size: int = 8,
        chunk_bytes: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        self.site = site
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.pool_size = pool_size
        #: Proposed reply-chunk size, sent in HELLO; ``None`` leaves the
        #: server at its default. The server's clamped answer lands in
        #: :attr:`negotiated_chunk_bytes` after the first connection.
        self.chunk_bytes = chunk_bytes
        self.negotiated_chunk_bytes: Optional[int] = None
        self._idle: list[socket.socket] = []
        self._lock = threading.Lock()
        self._request_id = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.requests = 0
        #: Connections dialed over this client's lifetime. With pooling
        #: shared across in-flight queries this stays near ``pool_size``
        #: no matter how many queries run — the coordinator's serving
        #: stats surface it per site to prove pool reuse.
        self.connections_created = 0

    # ------------------------------------------------------------------
    # Connection pool
    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError as exc:
            raise TransportError(
                f"cannot connect to site {self.site or self.host!r} at"
                f" {self.host}:{self.port}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello: dict = {"version": PROTOCOL_VERSION}
        if self.chunk_bytes is not None:
            hello["chunk_bytes"] = self.chunk_bytes
        try:
            sent = send_frame(
                sock,
                Frame(
                    type=FrameType.HELLO,
                    request_id=self._next_request_id(),
                    payload=hello,
                ),
            )
            reply, received = recv_frame(sock)
        except (OSError, ProtocolError) as exc:
            sock.close()
            raise TransportError(
                f"handshake with site {self.site or self.host!r} failed: {exc}"
            ) from exc
        self._count(sent, received)
        if reply.type is FrameType.REJECT:
            sock.close()
            raise ProtocolError(
                f"site {self.site or self.host!r} rejected the connection:"
                f" {reply.payload.get('reason', 'no reason given')}"
            )
        if reply.type is not FrameType.WELCOME:
            sock.close()
            raise ProtocolError(
                f"expected WELCOME from site {self.site or self.host!r},"
                f" got {reply.type.name}"
            )
        if "chunk_bytes" in reply.payload:
            self.negotiated_chunk_bytes = reply.payload["chunk_bytes"]
        with self._lock:
            self.connections_created += 1
        return sock

    def _borrow(self) -> socket.socket:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return self._connect()

    def _repool(self, sock: socket.socket) -> None:
        with self._lock:
            if len(self._idle) < self.pool_size:
                self._idle.append(sock)
                return
        sock.close()

    def _next_request_id(self) -> int:
        with self._lock:
            self._request_id += 1
            return self._request_id

    def _count(self, sent: int, received: int) -> None:
        with self._lock:
            self.bytes_sent += sent
            self.bytes_received += received

    def pool_stats(self) -> dict:
        """This client's connection-pool counters (serving stats)."""
        with self._lock:
            return {
                "site": self.site,
                "pool_size": self.pool_size,
                "idle_connections": len(self._idle),
                "connections_created": self.connections_created,
                "requests": self.requests,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
            }

    def close(self) -> None:
        """Close every pooled connection."""
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            try:
                sock.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _peer(self) -> str:
        """How error messages name the other end."""
        return f"site {self.site or self.host!r}"

    def _exchange(
        self,
        type_: FrameType,
        payload: dict,
        read_timeout: Optional[float],
        terminal: Sequence[FrameType] = (),
        on_chunk=None,
    ) -> tuple[Frame, int, int]:
        """One request and its replies — the round trip under every
        public operation of this client and of the coordinator client.

        Borrows a pooled connection, sends the request and reads replies
        until a frame whose type is in ``terminal`` (success type first;
        empty means the first reply ends the exchange). Before that only
        RESULT_CHUNK frames may arrive; their raw bytes go to
        ``on_chunk``. Every reply must echo the request id. Returns
        ``(last_reply, bytes_sent, bytes_received)`` with the connection
        repooled and the bytes counted; ERROR-class replies are returned,
        not raised — the connection is clean after one, and the caller
        knows which exception they map to. A read timeout, socket error,
        garbage frame, foreign request id or unexpected frame type closes
        the connection instead and raises :class:`TransportTimeout` /
        :class:`TransportError`, so a truncated stream can never pass
        for a short answer.
        """
        rid = self._next_request_id()
        sock = self._borrow()
        timeout = read_timeout if read_timeout is not None else self.read_timeout
        awaited = terminal[0].name if terminal else "a reply"
        received = 0
        clean = False
        try:
            sock.settimeout(timeout)
            sent = send_frame(
                sock, Frame(type=type_, request_id=rid, payload=payload)
            )
            while True:
                reply, size = recv_frame(sock)
                received += size
                if reply.request_id != rid:
                    raise TransportError(
                        f"{self._peer()} answered request {reply.request_id},"
                        f" expected {rid} — stream desynchronized"
                    )
                if not terminal or reply.type in terminal:
                    break
                if reply.type is not FrameType.RESULT_CHUNK:
                    raise TransportError(
                        f"{type_.name} awaiting {awaited} answered with"
                        f" {reply.type.name}"
                    )
                if on_chunk is not None:
                    on_chunk(reply.raw)
            clean = True
        except socket.timeout as exc:
            raise TransportTimeout(
                f"{self._peer()} did not answer a {type_.name} within"
                f" {timeout:.3f}s"
            ) from exc
        except (OSError, ProtocolError) as exc:
            raise TransportError(
                f"{type_.name} to {self._peer()} truncated before {awaited}"
                f" ({received} reply bytes received): {exc}"
            ) from exc
        finally:
            if clean:
                self._repool(sock)
            else:
                sock.close()
        self._count(sent, received)
        with self._lock:
            self.requests += 1
        return reply, sent, received

    def request(
        self,
        type_: FrameType,
        payload: dict,
        read_timeout: Optional[float] = None,
    ) -> tuple[Frame, int, int]:
        """One request/reply round trip.

        Returns ``(reply, bytes_sent, bytes_received)``. ERROR replies are
        *not* raised here — :meth:`call` does that — so callers that need
        the raw frame (health checks, tests) can inspect it.
        """
        return self._exchange(type_, payload, read_timeout)

    def call(
        self,
        type_: FrameType,
        payload: dict,
        read_timeout: Optional[float] = None,
    ) -> tuple[Frame, int, int]:
        """Like :meth:`request`, but ERROR replies raise their mapped
        exception (the same class the site raised locally)."""
        reply, sent, received = self.request(type_, payload, read_timeout)
        if reply.type is FrameType.ERROR:
            raise payload_to_exception(reply.payload)
        return reply, sent, received

    # ------------------------------------------------------------------
    # Typed operations
    # ------------------------------------------------------------------
    def ping(self, read_timeout: Optional[float] = 5.0) -> dict:
        """Health check; returns the site's stats payload."""
        reply, _, _ = self.call(FrameType.PING, {}, read_timeout)
        if reply.type is not FrameType.PONG:
            raise TransportError(f"PING answered with {reply.type.name}")
        return reply.payload

    def server_stats(self) -> dict:
        reply, _, _ = self.call(FrameType.STATS, {})
        return reply.payload

    def _answer(
        self,
        type_: FrameType,
        payload: dict,
        read_timeout: Optional[float],
        terminal: tuple[FrameType, FrameType],
    ) -> tuple[dict, int, int, int, Optional[float]]:
        """One request answered under the reply rule (see
        :func:`~repro.net.protocol.reply_frames`) — the one assembly of
        a site's EXECUTE reply and the coordinator's QUERY reply.

        ``terminal`` is ``(success, error)``; an error frame raises its
        mapped exception. Returns ``(answer, sent, received,
        chunked_bytes, first_chunk_seconds)``: ``answer`` is the
        terminal payload with ``result_text`` and ``result_bytes`` both
        filled, whichever of them travelled. RESULT_CHUNK payloads are
        kept as they arrive — one may end inside a multi-byte character
        — and joined and decoded once at the terminal frame; an inline
        answer leaves ``0`` / ``None``. A terminal frame carrying text
        after chunks (two answers in one reply) and a connection that
        dies before the terminal frame raise :class:`TransportError`,
        so a truncated reply never passes for a short answer, and the
        chunk list dies with the call: a retry starts from nothing.
        """
        chunks: list[bytes] = []
        first_chunk_seconds: Optional[float] = None
        started = time.perf_counter()

        def collect(raw: bytes) -> None:
            nonlocal first_chunk_seconds
            if not chunks:
                first_chunk_seconds = time.perf_counter() - started
            chunks.append(raw)

        reply, sent, received = self._exchange(
            type_, payload, read_timeout, terminal=terminal, on_chunk=collect
        )
        if reply.type is not terminal[0]:
            raise payload_to_exception(reply.payload)
        answer = reply.payload
        if "result_text" in answer:
            if chunks:
                raise TransportError(
                    f"{self._peer()} sent RESULT_CHUNK frames before an"
                    f" inline {reply.type.name}"
                )
            size = utf8_length(answer["result_text"])
            return {**answer, "result_bytes": size}, sent, received, 0, None
        data = b"".join(chunks)
        chunks.clear()  # hold the answer twice (bytes, text), not thrice
        answer = {**answer, "result_text": data.decode("utf-8")}
        return answer, sent, received, len(data), first_chunk_seconds

    def execute(
        self,
        query: str,
        options: Optional[ExecOptions] = None,
        read_timeout: Optional[float] = None,
        debug_sleep_seconds: Optional[float] = None,
    ) -> tuple[QueryResult, int, int, int, Optional[float]]:
        """Run a query remotely; returns ``(result, sent, received,
        chunked_bytes, first_chunk_seconds)`` — the last two are what
        :class:`TcpTransport` records of the reply's form.

        The result's ``items`` stay empty — only the serialized text
        crosses the wire, as with any real remote DBMS.
        """
        payload = {"query": query}
        payload.update((options or ExecOptions()).to_payload())
        if debug_sleep_seconds:
            payload["debug_sleep_seconds"] = debug_sleep_seconds
        answer, *counts = self._answer(
            FrameType.EXECUTE,
            payload,
            read_timeout,
            (FrameType.RESULT, FrameType.ERROR),
        )
        return (QueryResult.from_payload(answer), *counts)

    def create_collection(self, name: str) -> None:
        self.call(FrameType.CREATE_COLLECTION, {"collection": name})

    def store_document(
        self,
        collection: str,
        document: str,
        name: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> None:
        self.call(
            FrameType.STORE_DOCUMENT,
            {
                "collection": collection,
                "document": document,
                "name": name,
                "origin": origin,
            },
        )

    def retain_documents(self, collection: str, keep: Iterable[str]) -> None:
        self.call(
            FrameType.RETAIN_DOCUMENTS,
            {"collection": collection, "keep": sorted(keep)},
        )

    def document_count(self, collection: str) -> int:
        reply, _, _ = self.call(FrameType.DOCUMENT_COUNT, {"collection": collection})
        return reply.payload["count"]

    def collection_bytes(self, collection: str) -> int:
        reply, _, _ = self.call(FrameType.COLLECTION_BYTES, {"collection": collection})
        return reply.payload["bytes"]

    def shutdown_server(self, read_timeout: Optional[float] = 5.0) -> bool:
        """Ask the server to drain and exit; False if it was unreachable."""
        try:
            self.request(FrameType.SHUTDOWN, {}, read_timeout)
        except (TransportError, ProtocolError):
            return False
        return True


class RemoteSiteDriver(PartixDriver):
    """The PartiX driver contract over a :class:`SiteClient`.

    This is the piece §4 promised: "a PartiX Driver, which allows
    accessing remote DBMSs to store and retrieve XML documents" — the
    publisher and middleware use it exactly like the in-process
    :class:`~repro.partix.driver.MiniXDriver`.
    """

    def __init__(self, client: SiteClient):
        self.client = client

    def create_collection(self, name: str) -> None:
        self.client.create_collection(name)

    def store_document(
        self,
        collection: str,
        document: Union["XMLDocument", str, bytes],
        name: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> None:
        from repro.datamodel.document import XMLDocument
        from repro.xmltext.serializer import serialize

        if isinstance(document, XMLDocument):
            name = name or document.name
            origin = origin or document.origin
            text = serialize(document)
        elif isinstance(document, bytes):
            text = document.decode("utf-8")
        else:
            text = document
        self.client.store_document(collection, text, name=name, origin=origin)

    def execute(
        self, query: str, options: Optional[ExecOptions] = None
    ) -> QueryResult:
        return self.client.execute(query, options)[0]

    def retain_documents(self, collection: str, keep: Iterable[str]) -> None:
        self.client.retain_documents(collection, keep)

    def document_count(self, collection: str) -> int:
        # The ERROR-frame class mapping resurfaces the server's typed
        # exception, so a missing collection is matched by class — an
        # unrelated error whose text happens to mention "no collection"
        # propagates instead of being swallowed as 0.
        try:
            return self.client.document_count(collection)
        except CollectionNotFoundError:
            return 0

    def collection_bytes(self, collection: str) -> int:
        try:
            return self.client.collection_bytes(collection)
        except CollectionNotFoundError:
            return 0


class TcpTransport(Transport):
    """Socket lanes for :class:`ParallelDispatcher`: one client per site.

    ``execute`` applies the dispatcher's per-sub-query timeout as the
    socket *read* timeout, so over TCP the budget is enforced on the
    wire (the in-process transport can only check it after the fact).
    """

    def __init__(self, clients: dict[str, SiteClient]):
        self.clients = dict(clients)

    def resolve(self, site_names: Sequence[str]) -> None:
        for name in site_names:
            if name not in self.clients:
                raise ClusterError(f"no site named {name!r}")

    def ping(self, site: str) -> bool:
        """A real PING/PONG round-trip — the health probe that readmits
        an ejected site once it answers again."""
        client = self.clients.get(site)
        if client is None:
            return False
        try:
            client.ping(read_timeout=2.0)
        except (TransportError, ProtocolError, OSError):
            return False
        return True

    def execute(
        self,
        subquery: "SubQuery",
        default_collection: Optional[str] = None,
        timeout: Optional[float] = None,
        on_chunk=None,  # unused: benchmarks/e2e/tracing.py passes it
    ) -> SubQueryExecution:
        client = self.clients.get(subquery.site)
        if client is None:
            raise ClusterError(f"no site named {subquery.site!r}")
        result, sent, received, chunked, first_chunk = client.execute(
            subquery.query,
            ExecOptions(default_collection=default_collection),
            read_timeout=timeout,
        )
        return SubQueryExecution(
            site=subquery.site,
            fragment=subquery.fragment,
            query=subquery.query,
            result=result,
            bytes_sent=sent,
            bytes_received=received,
            on_wire=True,
            chunked_bytes=chunked,
            first_chunk_seconds=first_chunk,
        )
