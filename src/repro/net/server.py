"""A standalone PartiX site server: one engine database per process.

``SiteServer`` hosts one :class:`~repro.partix.driver.PartixDriver`
(by default a fresh MiniX engine) behind the frame protocol of
:mod:`repro.net.protocol`. Connections are handled on threads — the
engine is concurrency-correct since PR 1 — so one server serves the
coordinator's publisher and several dispatcher lanes at once.

Lifecycle
---------
* every connection starts with the HELLO/WELCOME version handshake;
  a version mismatch gets a REJECT frame and a closed socket;
* ``SHUTDOWN`` answers OK, then the server stops accepting connections
  and drains: in-flight requests finish before the process exits
  (``ThreadingTCPServer`` joins its handler threads on close);
* SIGTERM/SIGINT trigger the same graceful drain when serving as a
  process (``python -m repro.serve``).

The server keeps cumulative *site stats* — queries executed, frames and
bytes in/out — returned by the ``STATS`` frame, so measured transfer
sizes can be audited from the site side as well as the client side.
"""

from __future__ import annotations

import argparse
import signal
import socket
import socketserver
import threading
import time
from collections import Counter
from typing import Optional

from repro.engine.stats import ExecOptions
from repro.errors import ProtocolError
from repro.net.protocol import (
    Frame,
    FrameType,
    PROTOCOL_VERSION,
    answer_hello,
    exception_to_payload,
    frame_size_bucket,
    recv_frame,
    reply_frames,
    send_frame,
)
from repro.partix.driver import MiniXDriver, PartixDriver


#: How often an idle handler re-checks the server's shutdown flag while
#: waiting for the connection's next frame.
_IDLE_POLL_SECONDS = 0.05


class _SiteHandler(socketserver.BaseRequestHandler):
    """One client connection: handshake, then a request/reply loop."""

    server: "_SiteTCPServer"

    def handle(self) -> None:  # noqa: C901 - one branch per frame type
        sock = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        owner = self.server.owner
        if not self._handshake(sock, owner):
            return
        while True:
            if not self._await_frame(sock, owner):
                return
            try:
                frame, received = recv_frame(sock)
            except ProtocolError as exc:
                # EOF between frames is a normal disconnect; anything
                # else gets a best-effort ERROR before closing.
                if "connection closed mid-frame (0 of" not in str(exc):
                    self._reply(
                        sock, 0, FrameType.ERROR, exception_to_payload(exc)
                    )
                return
            except OSError:
                return
            owner._count_in(received)
            if not self._serve_frame(sock, owner, frame):
                return

    # ------------------------------------------------------------------
    def _await_frame(self, sock: socket.socket, owner: "SiteServer") -> bool:
        """Wait until the connection has bytes to read; False closes it.

        A handler blocked in ``recv_frame`` on an *idle* connection — a
        pooled client socket between requests, or a connection accepted
        but not yet past HELLO — used to block forever, wedging the
        drain join at shutdown (the accept loop's swallowed ``OSError``
        hid the stuck handshake). Waiting is now a short-timeout
        ``MSG_PEEK`` poll that abandons the connection once the server
        starts draining; an in-flight request (already past this wait)
        still finishes, which is exactly the drain contract.
        """
        try:
            sock.settimeout(_IDLE_POLL_SECONDS)
            while True:
                try:
                    if sock.recv(1, socket.MSG_PEEK) == b"":
                        return False  # peer closed
                    break
                except socket.timeout:
                    if owner._shutdown_requested.is_set():
                        return False
            sock.settimeout(None)
        except OSError:
            return False
        return True

    def _handshake(self, sock: socket.socket, owner: "SiteServer") -> bool:
        if not self._await_frame(sock, owner):
            return False
        try:
            frame, received = recv_frame(sock)
        except (ProtocolError, OSError):
            return False
        owner._count_in(received)
        reply, chunk_bytes = answer_hello(frame, owner.site)
        self._send(sock, reply)
        if chunk_bytes is None:
            return False
        self.chunk_bytes = chunk_bytes
        return True

    def _serve_frame(
        self, sock: socket.socket, owner: "SiteServer", frame: Frame
    ) -> bool:
        """Handle one request frame; False ends the connection."""
        rid = frame.request_id
        payload = frame.payload
        try:
            if frame.type is FrameType.PING:
                self._reply(sock, rid, FrameType.PONG, owner.stats_payload())
            elif frame.type is FrameType.STATS:
                self._reply(sock, rid, FrameType.OK, owner.stats_payload())
            elif frame.type is FrameType.EXECUTE:
                self._execute(sock, owner, rid, payload)
            elif frame.type is FrameType.CREATE_COLLECTION:
                owner.driver.create_collection(payload["collection"])
                self._reply(sock, rid, FrameType.OK, {})
            elif frame.type is FrameType.STORE_DOCUMENT:
                owner.driver.store_document(
                    payload["collection"],
                    payload["document"],
                    name=payload.get("name"),
                    origin=payload.get("origin"),
                )
                owner._count_stored()
                self._reply(sock, rid, FrameType.OK, {})
            elif frame.type is FrameType.RETAIN_DOCUMENTS:
                owner.driver.retain_documents(
                    payload["collection"], payload["keep"]
                )
                self._reply(sock, rid, FrameType.OK, {})
            elif frame.type is FrameType.DOCUMENT_COUNT:
                count = owner.driver.document_count(payload["collection"])
                self._reply(sock, rid, FrameType.OK, {"count": count})
            elif frame.type is FrameType.COLLECTION_BYTES:
                size = owner.driver.collection_bytes(payload["collection"])
                self._reply(sock, rid, FrameType.OK, {"bytes": size})
            elif frame.type is FrameType.SHUTDOWN:
                self._reply(sock, rid, FrameType.OK, {"draining": True})
                owner.request_shutdown()
                return False
            else:
                self._reply(
                    sock,
                    rid,
                    FrameType.ERROR,
                    {
                        "error_type": "ProtocolError",
                        "message": f"unexpected frame type {frame.type.name}",
                    },
                )
        except Exception as exc:  # noqa: BLE001 - becomes an ERROR frame
            self._reply(sock, rid, FrameType.ERROR, exception_to_payload(exc))
        return True

    def _execute(
        self, sock: socket.socket, owner: "SiteServer", rid: int, payload: dict
    ) -> None:
        delay = payload.get("debug_sleep_seconds")
        if delay:
            # Test hook: lets fault-injection tests hold a query in
            # flight while they kill the server.
            time.sleep(float(delay))
        if "extra_predicate" in payload:
            # Removed from the protocol: the hint changed answers, so an
            # old client still sending it must hear a refusal rather than
            # get a silently different (unpruned) result.
            raise ProtocolError(
                "EXECUTE no longer accepts 'extra_predicate': this site"
                " would ignore the hint and answer a different query"
            )
        result = owner.driver.execute(
            payload["query"], ExecOptions.from_payload(payload)
        )
        owner._count_query()
        for frame in reply_frames(
            FrameType.RESULT, rid, result.to_payload(), self.chunk_bytes
        ):
            self._send(sock, frame)

    def _reply(
        self,
        sock: socket.socket,
        rid: int,
        type_: FrameType,
        payload: dict,
    ) -> None:
        self._send(sock, Frame(type_, rid, payload))

    def _send(self, sock: socket.socket, frame: Frame) -> None:
        try:
            sent = send_frame(sock, frame)
        except OSError:
            return
        self.server.owner._count_out(sent)


class _SiteTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = False  # drain: join in-flight handlers on close
    # server_close() closes the *listener* first, then joins the handler
    # threads — no new connection can arrive while the drain waits, and
    # idle handlers notice _shutdown_requested within one poll interval
    # (see _SiteHandler._await_frame), so the join always terminates.
    block_on_close = True

    def __init__(self, address, owner: "SiteServer"):
        self.owner = owner
        super().__init__(address, _SiteHandler)


class SiteServer:
    """One site's frame-protocol server over one local driver."""

    def __init__(
        self,
        driver: Optional[PartixDriver] = None,
        site: str = "site",
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.site = site
        self.driver = driver if driver is not None else MiniXDriver(name=site)
        self._server = _SiteTCPServer((host, port), self)
        self._stats_lock = threading.Lock()
        self._queries_executed = 0
        self._documents_stored = 0
        self._bytes_received = 0
        self._bytes_sent = 0
        self._frame_sizes_in: Counter = Counter()
        self._frame_sizes_out: Counter = Counter()
        self._started = time.perf_counter()
        self._thread: Optional[threading.Thread] = None
        self._shutdown_requested = threading.Event()

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def stats_payload(self) -> dict:
        with self._stats_lock:
            return {
                "site": self.site,
                "queries_executed": self._queries_executed,
                "documents_stored": self._documents_stored,
                "bytes_received": self._bytes_received,
                "bytes_sent": self._bytes_sent,
                "frame_sizes_received": dict(self._frame_sizes_in),
                "frame_sizes_sent": dict(self._frame_sizes_out),
                "uptime_seconds": time.perf_counter() - self._started,
            }

    def _count_in(self, count: int) -> None:
        with self._stats_lock:
            self._bytes_received += count
            self._frame_sizes_in[frame_size_bucket(count)] += 1

    def _count_out(self, count: int) -> None:
        with self._stats_lock:
            self._bytes_sent += count
            self._frame_sizes_out[frame_size_bucket(count)] += 1

    def _count_query(self) -> None:
        with self._stats_lock:
            self._queries_executed += 1

    def _count_stored(self) -> None:
        with self._stats_lock:
            self._documents_stored += 1

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Serve until :meth:`request_shutdown` (blocking)."""
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self._server.server_close()

    def serve_in_thread(self) -> "SiteServer":
        """Serve on a background thread (in-process tests)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"site-server-{self.site}"
        )
        self._thread.start()
        return self

    def request_shutdown(self) -> None:
        """Stop accepting connections and drain (idempotent, non-blocking)."""
        if self._shutdown_requested.is_set():
            return
        self._shutdown_requested.set()
        # shutdown() blocks until serve_forever exits; never call it from
        # a handler thread directly.
        threading.Thread(target=self._server.shutdown, daemon=True).start()

    def close(self) -> bool:
        """Shut down and wait for the serving thread (if any) to finish.

        Returns True when the drain completed cleanly — the serving
        thread (which joins every handler on exit) actually terminated —
        so tests can assert shutdown never leaks a wedged handler.
        """
        self.request_shutdown()
        clean = True
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            clean = not self._thread.is_alive()
            self._thread = None
        return clean


# ----------------------------------------------------------------------
# CLI (``python -m repro.serve`` delegates here)
# ----------------------------------------------------------------------
def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run one PartiX site server (one engine per process).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks a free port (default)"
    )
    parser.add_argument("--site", default="site", help="site name")
    parser.add_argument(
        "--storage-dir", default=None, help="persist collections on disk"
    )
    parser.add_argument(
        "--no-indexes",
        action="store_true",
        help="disable index-assisted document pruning (paper-faithful)",
    )
    parser.add_argument(
        "--per-document-overhead",
        type=float,
        default=0.0,
        help="simulated per-document access cost in seconds",
    )
    options = parser.parse_args(argv)

    from repro.engine.database import XMLEngine

    engine = XMLEngine(
        options.site,
        storage_dir=options.storage_dir,
        use_indexes=not options.no_indexes,
        per_document_overhead=options.per_document_overhead,
    )
    server = SiteServer(
        MiniXDriver(engine), site=options.site, host=options.host, port=options.port
    )

    def _graceful(signum, _frame):
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    print(
        f"repro.serve: site {options.site!r} listening on"
        f" {server.host}:{server.port} (protocol v{PROTOCOL_VERSION})",
        flush=True,
    )
    server.serve_forever()
    return 0
