"""The frame servers: one threaded connection loop behind both ends.

:class:`FrameServer` accepts connections on a ``ThreadingTCPServer``
and serves each on its own thread with the frame protocol of
:mod:`repro.net.protocol`. It owns what every server shares:

* the HELLO/WELCOME handshake (:func:`~repro.net.protocol.answer_hello`);
  a version mismatch gets a REJECT frame and a closed socket;
* the idle poll: a handler waiting for a connection's next frame
  re-checks the shutdown flag every 50 ms;
* the common frames: PING→PONG and STATS→OK with :meth:`stats_payload`,
  SHUTDOWN→OK then drain, a frame type the server does not serve→ERROR
  (the connection stays), a malformed frame→ERROR then close;
* one counter block under one lock — bytes and frame sizes in/out and
  each server's own :attr:`~FrameServer.TALLIES` — reported by STATS;
* the lifecycle: :meth:`~FrameServer.serve_forever`,
  :meth:`~FrameServer.serve_in_thread`,
  :meth:`~FrameServer.request_shutdown`, :meth:`~FrameServer.close`.

A server adds only its own request frames (:meth:`request_handlers`):
:class:`SiteServer` the driver frames of one engine database per
process (``python -m repro.serve``), the coordinator
(:mod:`repro.coordinate.service`) QUERY and REBALANCE.

Drain: SHUTDOWN, :meth:`~FrameServer.request_shutdown` or SIGTERM stop
the accept loop and close the listener; idle handlers give up within
one poll; a handler busy with a request finishes it and returns only
once every reply its connection is owed has been sent. ``server_close``
joins every handler, so a served request's reply always reaches its
client before the process exits.
"""

from __future__ import annotations

import argparse
import select
import signal
import socket
import socketserver
import threading
import time
from collections import Counter
from concurrent import futures
from typing import Callable, Iterable, Optional

from repro.engine.stats import ExecOptions
from repro.errors import ProtocolError
from repro.net.protocol import (
    DEFAULT_CHUNK_BYTES,
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
#: waiting for the connection's next frame (and the accept loop while
#: waiting for a connection).
_IDLE_POLL_SECONDS = 0.05

#: One request handler: answers a frame on a connection. It returns the
#: payload of its OK reply, or None when it sends its own reply.
RequestHandler = Callable[["Connection", Frame], Optional[dict]]


class Connection:
    """One accepted connection: its socket, its negotiated chunk size,
    the lock every reply goes out under, and the replies it is owed."""

    def __init__(self, sock: socket.socket, server: "FrameServer"):
        self.sock = sock
        self.server = server
        self.chunk_bytes = DEFAULT_CHUNK_BYTES
        self._send_lock = threading.Lock()
        #: Futures that will send a reply on this connection.
        self.owed: list[futures.Future] = []
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)

    def send(self, frames: Iterable[Frame]) -> None:
        """Send one reply's frames back to back; a reply another thread
        sends on this connection waits for the lock."""
        with self._send_lock:
            for frame in frames:
                try:
                    sent = send_frame(self.sock, frame)
                except OSError:
                    return
                self.server._count_out(sent)

    def reply(self, request_id: int, type_: FrameType, payload: dict) -> None:
        self.send([Frame(type_, request_id, payload)])

    def owe(self, future: futures.Future) -> None:
        """Keep the connection open until ``future``, which sends a
        reply on it, is done (only the connection's thread calls this)."""
        self.owed = [owed for owed in self.owed if not owed.done()]
        self.owed.append(future)

    def await_frame(self) -> bool:
        """Wait until the connection has bytes to read; False closes it.

        A handler blocked reading an *idle* connection — a pooled client
        socket between requests, or a connection accepted but not yet
        past HELLO — would wedge the drain join at shutdown. Waiting is
        a short-timeout poll that abandons the connection once the
        server starts draining, and a ``MSG_PEEK`` that tells a peer's
        close from its next frame; an in-flight request (already past
        this wait) still finishes, which is exactly the drain contract.
        The socket's own timeout is never touched, so a reply another
        thread is sending meanwhile cannot time out.
        """
        try:
            while not self._poll.poll(_IDLE_POLL_SECONDS * 1000):
                if self.server._shutdown_requested.is_set():
                    return False
            return self.sock.recv(1, socket.MSG_PEEK) != b""
        except OSError:
            return False


class _Handler(socketserver.BaseRequestHandler):
    server: "_TCPServer"

    def handle(self) -> None:
        self.server.owner._serve_connection(self.request)


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = False  # drain: join in-flight handlers on close
    # server_close() closes the *listener* first, then joins the handler
    # threads — no new connection can arrive while the drain waits, and
    # idle handlers notice the shutdown flag within one poll interval
    # (see Connection.await_frame), so the join always terminates.
    block_on_close = True
    timeout = _IDLE_POLL_SECONDS  # handle_request()'s accept wait

    def __init__(self, address, owner: "FrameServer"):
        self.owner = owner
        super().__init__(address, _Handler)


class FrameServer:
    """The threaded frame-protocol connection loop every server runs."""

    #: This server's own counters, reported by STATS beside the wire's.
    TALLIES: tuple[str, ...] = ()

    def __init__(self, site: str, host: str, port: int):
        self.site = site
        self._server = _TCPServer((host, port), self)
        #: Every thread of this server is named with this prefix.
        self.thread_name = f"frame-server-{site}:{self.port}"
        self._handlers = self.request_handlers()
        self._stats_lock = threading.Lock()
        self._tallies = dict.fromkeys(self.TALLIES, 0)
        self._bytes_received = 0
        self._bytes_sent = 0
        self._frame_sizes_in: Counter = Counter()
        self._frame_sizes_out: Counter = Counter()
        self._started = time.perf_counter()
        self._thread: Optional[threading.Thread] = None
        self._shutdown_requested = threading.Event()

    def request_handlers(self) -> dict[FrameType, RequestHandler]:
        """The request frames this server serves beyond the common ones."""
        return {}

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
                **self._tallies,
                "bytes_received": self._bytes_received,
                "bytes_sent": self._bytes_sent,
                "frame_sizes_received": dict(self._frame_sizes_in),
                "frame_sizes_sent": dict(self._frame_sizes_out),
                "uptime_seconds": time.perf_counter() - self._started,
            }

    def _tally(self, name: str) -> None:
        with self._stats_lock:
            self._tallies[name] += 1

    def _count_in(self, count: int) -> None:
        with self._stats_lock:
            self._bytes_received += count
            self._frame_sizes_in[frame_size_bucket(count)] += 1

    def _count_out(self, count: int) -> None:
        with self._stats_lock:
            self._bytes_sent += count
            self._frame_sizes_out[frame_size_bucket(count)] += 1

    # ------------------------------------------------------------------
    # One connection: handshake, then a request/reply loop
    # ------------------------------------------------------------------
    def _serve_connection(self, sock: socket.socket) -> None:
        threading.current_thread().name = f"{self.thread_name}-conn"
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection = Connection(sock, self)
        try:
            if self._handshake(connection):
                while self._serve_next(connection):
                    pass
        finally:
            # The socket closes when this returns: not before every
            # reply the connection is owed has been sent.
            futures.wait(connection.owed)

    def _read(self, connection: Connection) -> Optional[Frame]:
        """The connection's next frame, or None once it should close."""
        if not connection.await_frame():
            return None
        frame, received = recv_frame(connection.sock)
        self._count_in(received)
        return frame

    def _handshake(self, connection: Connection) -> bool:
        try:
            hello = self._read(connection)
        except (ProtocolError, OSError):
            return False
        if hello is None:
            return False
        reply, chunk_bytes = answer_hello(hello, self.site)
        connection.send([reply])
        if chunk_bytes is None:
            return False
        connection.chunk_bytes = chunk_bytes
        return True

    def _serve_next(self, connection: Connection) -> bool:
        """Read and answer one frame; False ends the connection."""
        try:
            frame = self._read(connection)
        except ProtocolError as exc:
            # EOF between frames is a normal disconnect; a malformed
            # frame gets a best-effort ERROR before the close.
            if "connection closed mid-frame (0 of" not in str(exc):
                connection.reply(0, FrameType.ERROR, exception_to_payload(exc))
            return False
        except OSError:
            return False
        if frame is None:
            return False
        rid = frame.request_id
        try:
            if frame.type is FrameType.SHUTDOWN:
                connection.reply(rid, FrameType.OK, {"draining": True})
                self.request_shutdown()
                return False
            if frame.type is FrameType.PING:
                connection.reply(rid, FrameType.PONG, self.stats_payload())
            elif frame.type is FrameType.STATS:
                connection.reply(rid, FrameType.OK, self.stats_payload())
            elif frame.type in self._handlers:
                answer = self._handlers[frame.type](connection, frame)
                if answer is not None:
                    connection.reply(rid, FrameType.OK, answer)
            else:
                raise ProtocolError(f"unexpected frame type {frame.type.name}")
        except Exception as exc:  # noqa: BLE001 - becomes an ERROR frame
            connection.reply(rid, FrameType.ERROR, exception_to_payload(exc))
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain (blocking)."""
        try:
            while not self._shutdown_requested.is_set():
                self._server.handle_request()
        finally:
            self._server.server_close()
            self._drained()

    def _drained(self) -> None:
        """Runs once the listener is closed and every handler returned."""

    def serve_in_thread(self) -> "FrameServer":
        """Serve on a background thread (in-process use); returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever, name=self.thread_name
        )
        self._thread.start()
        return self

    def request_shutdown(self) -> None:
        """Stop accepting connections and drain (idempotent, non-blocking,
        safe from a handler thread or a signal handler)."""
        self._shutdown_requested.set()

    def close(self) -> bool:
        """Shut down and wait for the serving thread (if any) to finish.

        Returns True when the drain completed cleanly — the serving
        thread (which joins every handler on exit) actually terminated —
        so tests can assert shutdown never leaks a wedged handler.
        """
        self.request_shutdown()
        clean = True
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            clean = not self._thread.is_alive()
            self._thread = None
        return clean


class SiteServer(FrameServer):
    """One site's frame-protocol server over one local driver."""

    TALLIES = ("queries_executed", "documents_stored")

    def __init__(
        self,
        driver: Optional[PartixDriver] = None,
        site: str = "site",
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.driver = driver if driver is not None else MiniXDriver(name=site)
        super().__init__(site, host, port)

    def request_handlers(self) -> dict[FrameType, RequestHandler]:
        return {
            FrameType.EXECUTE: self._execute,
            FrameType.CREATE_COLLECTION: self._create_collection,
            FrameType.STORE_DOCUMENT: self._store_document,
            FrameType.RETAIN_DOCUMENTS: self._retain_documents,
            FrameType.DOCUMENT_COUNT: self._document_count,
            FrameType.COLLECTION_BYTES: self._collection_bytes,
        }

    def _execute(self, connection: Connection, frame: Frame) -> None:
        payload = frame.payload
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
        result = self.driver.execute(
            payload["query"], ExecOptions.from_payload(payload)
        )
        self._tally("queries_executed")
        connection.send(
            reply_frames(
                FrameType.RESULT,
                frame.request_id,
                result.to_payload(),
                connection.chunk_bytes,
            )
        )

    def _create_collection(self, connection: Connection, frame: Frame) -> dict:
        self.driver.create_collection(frame.payload["collection"])
        return {}

    def _store_document(self, connection: Connection, frame: Frame) -> dict:
        payload = frame.payload
        self.driver.store_document(
            payload["collection"],
            payload["document"],
            name=payload.get("name"),
            origin=payload.get("origin"),
        )
        self._tally("documents_stored")
        return {}

    def _retain_documents(self, connection: Connection, frame: Frame) -> dict:
        payload = frame.payload
        self.driver.retain_documents(payload["collection"], payload["keep"])
        return {}

    def _document_count(self, connection: Connection, frame: Frame) -> dict:
        return {"count": self.driver.document_count(frame.payload["collection"])}

    def _collection_bytes(self, connection: Connection, frame: Frame) -> dict:
        return {"bytes": self.driver.collection_bytes(frame.payload["collection"])}


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
