"""End-to-end tests for repro.net: servers, clients, faults, tcp mode.

The in-thread tests exercise the server/client pair without process
overhead; the ``TestSpawnedCluster``/``TestPartixTcp`` classes spawn real
site-server *processes* and drive them through the same dispatcher the
middleware uses, including fault injection (killed servers).
"""

import dataclasses
import socket
import struct
import sys
import threading
import time

import pytest

from repro.cluster import ParallelDispatcher
from repro.coordinate import Coordinator
from repro.errors import (
    DispatchError,
    ProtocolError,
    StorageError,
    TransportError,
    TransportTimeout,
    XQuerySyntaxError,
)
from repro.net import SiteClient, SiteServer, TcpSiteCluster
from repro.net.protocol import (
    Frame,
    FrameType,
    PROTOCOL_VERSION,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.partix.decomposer import SubQuery
from repro.partix.middleware import Partix
from repro.cluster.site import Cluster, Site
from repro.workloads.virtual_store import (
    build_items_collection,
    items_horizontal_fragmentation,
)
from tests.lane_threads import live_threads

ITEM_QUERY = 'for $i in collection("C")//Item return $i/Code'


@pytest.fixture()
def server():
    srv = SiteServer(site="s0").serve_in_thread()
    yield srv
    srv.close()


@pytest.fixture()
def coordinator():
    with Partix(Cluster.with_sites(2)) as partix:
        partix.publish(
            build_items_collection(4, kind="small", seed=9),
            items_horizontal_fragmentation(2),
        )
        srv = Coordinator(partix, site="s0").serve_in_thread()
        yield srv
        srv.close()


@pytest.fixture(params=["site", "coordinator"])
def either_server(request):
    """A site server, then a coordinator: the one frame server twice."""
    return request.getfixturevalue(
        "server" if request.param == "site" else "coordinator"
    )


@pytest.fixture()
def client(server):
    cli = SiteClient("127.0.0.1", server.port, site="s0")
    yield cli
    cli.close()


class _ServerLifecycle:
    """How every frame server closes, whatever it serves (``server``)."""

    def test_graceful_shutdown_drains(self, server, client):
        assert client.shutdown_server()
        deadline = time.perf_counter() + 5.0
        while time.perf_counter() < deadline:
            try:
                SiteClient("127.0.0.1", server.port, connect_timeout=0.2).ping(
                    read_timeout=0.2
                )
            except (TransportError, ProtocolError):
                break
            time.sleep(0.05)
        else:
            pytest.fail("server kept answering after SHUTDOWN")

    def test_close_is_clean_with_an_idle_connection_open(self, server, client):
        # Regression: close() used to race the accept loop — a handler
        # parked in recv on an idle connection kept the serve thread
        # alive past the join, and the swallowed OSError hid it.
        client.ping()  # leaves a pooled, idle connection open
        assert server.close()

    def test_close_is_clean_mid_handshake(self, server):
        # A connection that dialed but never sent its HELLO must not
        # wedge shutdown either: the handshake poll notices the
        # shutdown request and gives up on the silent peer.
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0):
            time.sleep(0.05)  # let the server park in its HELLO read
            assert server.close()


class TestServerOperations(_ServerLifecycle):
    def test_store_count_bytes_and_execute(self, server, client):
        client.create_collection("C")
        client.store_document("C", "<Item><Code>7</Code></Item>", name="d0")
        client.store_document("C", "<Item><Code>8</Code></Item>", name="d1")
        assert client.document_count("C") == 2
        assert client.collection_bytes("C") > 0
        result, sent, received, _, _ = client.execute(ITEM_QUERY)
        assert "<Code>7</Code>" in result.result_text
        assert "<Code>8</Code>" in result.result_text
        assert sent > 0 and received > len(result.result_text.encode())
        assert result.items == []  # only serialized text crosses the wire

    def test_retain_documents_deletes_the_unlisted(self, client):
        from repro.net.client import RemoteSiteDriver

        driver = RemoteSiteDriver(client)
        for index in range(4):
            driver.store_document(
                "C", f"<Item><Code>{index}</Code></Item>", name=f"d{index}"
            )
        driver.retain_documents("C", {"d1", "d3", "never-stored"})
        assert driver.document_count("C") == 2
        assert driver.execute(ITEM_QUERY).result_text == (
            "<Code>1</Code>\n<Code>3</Code>"
        )
        driver.retain_documents("missing", set())  # lenient, like counts

    def test_remote_error_raises_same_class_as_local(self, client):
        # StorageError is exactly what the local engine raises for a
        # missing collection — the fuzz oracle depends on this symmetry.
        with pytest.raises(StorageError):
            client.execute('collection("missing")//Item')
        with pytest.raises(XQuerySyntaxError):
            client.execute("for for for")

    @pytest.mark.parametrize("stream", [False, True])
    def test_removed_extra_predicate_is_refused_not_ignored(
        self, client, stream
    ):
        # An old client's pruning hint changed answers; a server that
        # dropped it silently would return a different result, so it
        # answers with a typed ERROR frame — and keeps the connection.
        client.create_collection("C")
        client.store_document("C", "<Item><Code>7</Code></Item>", name="d0")
        payload = {
            "query": ITEM_QUERY,
            "extra_predicate": {"type": "exists", "path": "/Item/Code"},
        }
        if stream:
            payload["stream"] = True
        reply, _, _ = client.request(FrameType.EXECUTE, payload)
        assert reply.type is FrameType.ERROR
        assert reply.payload["error_type"] == "ProtocolError"
        assert "extra_predicate" in reply.payload["message"]
        result = client.execute(ITEM_QUERY)[0]
        assert result.result_text == "<Code>7</Code>"
        assert client.connections_created == 1  # same connection, still usable

    def test_execute_ignores_a_removed_option_an_older_peer_sends(self, client):
        # ``parallel_degree`` never changed answers, so unlike
        # ``extra_predicate`` a payload still carrying it is served.
        client.create_collection("C")
        client.store_document("C", "<Item><Code>7</Code></Item>", name="d0")
        reply, _, _ = client.request(
            FrameType.EXECUTE, {"query": ITEM_QUERY, "parallel_degree": 2}
        )
        assert reply.type is FrameType.RESULT
        assert reply.payload["result_text"] == "<Code>7</Code>"

    def test_ping_and_stats(self, server, client):
        payload = client.ping()
        assert payload["site"] == "s0"
        client.create_collection("C")
        client.store_document("C", "<Item/>", name="d0")
        client.execute(ITEM_QUERY)
        stats = client.server_stats()
        assert stats["queries_executed"] == 1
        assert stats["documents_stored"] == 1
        assert stats["bytes_received"] > 0
        assert stats["bytes_sent"] > 0

    def test_client_counts_real_bytes_both_ways(self, server, client):
        before_sent, before_received = client.bytes_sent, client.bytes_received
        client.ping()
        assert client.bytes_sent > before_sent
        assert client.bytes_received > before_received

    def test_read_timeout_surfaces_as_transport_timeout(self, server, client):
        with pytest.raises(TransportTimeout):
            client.execute(
                ITEM_QUERY, read_timeout=0.05, debug_sleep_seconds=1.0
            )


class TestHandshake:
    def test_version_mismatch_is_refused(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            send_frame(
                sock,
                Frame(
                    type=FrameType.HELLO,
                    request_id=1,
                    payload={"version": PROTOCOL_VERSION + 1},
                ),
            )
            reply, _ = recv_frame(sock)
            assert reply.type is FrameType.REJECT
            assert "version mismatch" in reply.payload["reason"]
            # The server closes its end after the REJECT.
            sock.settimeout(5.0)
            assert sock.recv(1) == b""

    def test_first_frame_must_be_hello(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            send_frame(sock, Frame(type=FrameType.PING, request_id=1))
            reply, _ = recv_frame(sock)
            assert reply.type is FrameType.REJECT
            assert "expected HELLO" in reply.payload["reason"]

    def test_garbage_bytes_do_not_wedge_the_server(self, server, client):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 32)
            sock.settimeout(5.0)
            assert sock.recv(4096) is not None  # REJECT or close, not a hang
        # A well-behaved client still gets service afterwards.
        assert client.ping()["site"] == "s0"


class TestTheCoordinatorIsTheSameFrameServer(_ServerLifecycle, TestHandshake):
    """The handshake and close() battery again, against a coordinator."""

    @pytest.fixture()
    def server(self, coordinator):
        return coordinator


def _handshaken(server) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
    send_frame(
        sock,
        Frame(FrameType.HELLO, 1, {"version": PROTOCOL_VERSION}),
    )
    assert recv_frame(sock)[0].type is FrameType.WELCOME
    return sock


def _in_flight_request(server):
    """A request that takes ~0.3 s to answer, and the reply it gets."""
    if isinstance(server, Coordinator):
        partix = server.partix

        def slow_execute(query, **kwargs):
            time.sleep(0.3)
            return Partix.execute(partix, query, **kwargs)

        partix.execute = slow_execute  # served queries look it up afresh
        query = 'count(collection("Citems")//Item)'
        return (
            Frame(FrameType.QUERY, 7, {"query": query, "collection": "Citems"}),
            FrameType.QUERY_RESULT,
        )
    return (
        Frame(
            FrameType.EXECUTE,
            7,
            {"query": "1 + 1", "debug_sleep_seconds": 0.3},
        ),
        FrameType.RESULT,
    )


class TestOneFrameServer:
    def test_a_malformed_frame_gets_an_error_then_eof(self, either_server):
        with _handshaken(either_server) as sock:
            sock.sendall(
                struct.pack("!2sBBQI", b"XX", PROTOCOL_VERSION, 4, 1, 0)
            )
            reply, _ = recv_frame(sock)
            assert reply.type is FrameType.ERROR
            assert reply.payload["error_type"] == "ProtocolError"
            assert "bad frame magic b'XX'" in reply.payload["message"]
            assert sock.recv(1) == b""

    def test_an_unserved_frame_type_gets_an_error_and_the_connection_stays(
        self, either_server
    ):
        with _handshaken(either_server) as sock:
            send_frame(sock, Frame(FrameType.WELCOME, 3, {}))
            reply, _ = recv_frame(sock)
            assert reply.type is FrameType.ERROR and reply.request_id == 3
            assert "unexpected frame type WELCOME" in reply.payload["message"]
            send_frame(sock, Frame(FrameType.PING, 4))
            assert recv_frame(sock)[0].type is FrameType.PONG

    def test_both_byte_counters_count_every_frame_handshake_included(
        self, either_server
    ):
        before = either_server.stats_payload()
        with _handshaken(either_server) as sock:
            ping = Frame(FrameType.PING, 2)
            send_frame(sock, ping)
            _, pong_bytes = recv_frame(sock)
            # Read the counters on this connection: the server reads the
            # STATS frame only once it has sent and counted the PONG.
            stats = Frame(FrameType.STATS, 3)
            send_frame(sock, stats)
            after = recv_frame(sock)[0].payload
        hello = Frame(FrameType.HELLO, 1, {"version": PROTOCOL_VERSION})
        assert after["bytes_received"] - before["bytes_received"] == len(
            encode_frame(hello)
        ) + len(encode_frame(ping)) + len(encode_frame(stats))
        # WELCOME (its size is the server's business) plus the PONG.
        assert after["bytes_sent"] - before["bytes_sent"] > pong_bytes

    def test_the_counters_lose_no_update_under_concurrent_connections(
        self, either_server
    ):
        hello = Frame(FrameType.HELLO, 1, {"version": PROTOCOL_VERSION})
        ping = Frame(FrameType.PING, 2)
        connections, pings = 8, 40
        before = either_server.stats_payload()["bytes_received"]

        def _pinger():
            with _handshaken(either_server) as sock:
                for _ in range(pings):
                    send_frame(sock, ping)
                    assert recv_frame(sock)[0].type is FrameType.PONG

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=_pinger) for _ in range(connections)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        received = either_server.stats_payload()["bytes_received"] - before
        assert received == connections * (
            len(encode_frame(hello)) + pings * len(encode_frame(ping))
        )

    def test_close_leaves_no_thread_and_no_listener(self, either_server):
        # One idle, one mid-handshake and one in-flight connection: close()
        # answers the in-flight request, then nothing of the server lives.
        request, answered = _in_flight_request(either_server)
        idle = _handshaken(either_server)
        silent = socket.create_connection(
            ("127.0.0.1", either_server.port), timeout=5.0
        )
        busy = _handshaken(either_server)
        try:
            send_frame(busy, request)
            time.sleep(0.1)  # the request is being served
            assert either_server.close()
            reply, _ = recv_frame(busy)
            assert reply.type is answered and reply.request_id == 7
            assert live_threads(either_server.thread_name) == set()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(
                    ("127.0.0.1", either_server.port), timeout=5.0
                ).close()
        finally:
            for sock in (idle, silent, busy):
                sock.close()


def _spawn(names=("s0", "s1")):
    return TcpSiteCluster.spawn({name: {} for name in names})


def _seed_cluster(tcp):
    """Store one distinct document at every spawned site."""
    for index, (name, client) in enumerate(sorted(tcp.clients.items())):
        client.create_collection("C")
        client.store_document(
            "C", f"<Item><Code>{index}</Code></Item>", name=f"d{index}"
        )


def _subqueries(names):
    return [
        SubQuery(fragment=f"F{i}", site=name, collection="C", query=ITEM_QUERY)
        for i, name in enumerate(sorted(names))
    ]


class TestSpawnedCluster:
    def test_spawn_ping_dispatch_shutdown(self):
        tcp = _spawn()
        try:
            health = tcp.ping_all()
            assert set(health) == {"s0", "s1"}
            _seed_cluster(tcp)
            outcome = ParallelDispatcher().dispatch(
                tcp.transport(), _subqueries(tcp.clients)
            )
            assert len(outcome.round.executions) == 2
            assert outcome.round.wire_measured
            assert outcome.round.total_bytes_sent > 0
            assert outcome.round.total_bytes_received > 0
            texts = [e.result.result_text for e in outcome.round.executions]
            assert "<Code>0</Code>" in texts[0]
            assert "<Code>1</Code>" in texts[1]
        finally:
            tcp.shutdown()
        assert not any(site.alive for site in tcp.sites.values())

    def test_dead_site_fail_fast_raises(self):
        tcp = _spawn()
        try:
            _seed_cluster(tcp)
            tcp.kill("s1")
            dispatcher = ParallelDispatcher(sleep=lambda s: None)
            with pytest.raises(DispatchError) as info:
                dispatcher.dispatch(tcp.transport(), _subqueries(tcp.clients))
            assert "s1" in str(info.value)
        finally:
            tcp.shutdown()

    def test_dead_site_degrade_returns_partial_with_note(self):
        tcp = _spawn()
        try:
            _seed_cluster(tcp)
            tcp.kill("s1")
            # No partial answer: s0 answered, yet the dead s1 fails the
            # round once its retry is spent.
            dispatcher = ParallelDispatcher(sleep=lambda s: None)
            with pytest.raises(DispatchError) as info:
                dispatcher.dispatch(tcp.transport(), _subqueries(tcp.clients))
            (failure,) = info.value.failures
            assert failure.site == "s1"
            assert failure.attempts == 2  # the dead site was retried
            assert failure.attempt_sites == ["s1", "s1"]
            assert isinstance(failure.error, TransportError)
        finally:
            tcp.shutdown()

    def test_kill_mid_query_surfaces_as_transport_error(self):
        tcp = _spawn(("s0",))
        try:
            _seed_cluster(tcp)
            killer = threading.Timer(0.3, lambda: tcp.kill("s0"))
            killer.start()
            try:
                with pytest.raises((TransportError, ProtocolError)):
                    tcp.clients["s0"].execute(
                        ITEM_QUERY, debug_sleep_seconds=5.0, read_timeout=10.0
                    )
            finally:
                killer.join()
        finally:
            tcp.shutdown()


def _published_partix(fragment_count=2, item_count=24):
    collection = build_items_collection(item_count, kind="small", seed=9)
    cluster = Cluster.with_sites(fragment_count)
    cluster.add(Site("central"))
    partix = Partix(cluster)
    partix.publish(collection, items_horizontal_fragmentation(fragment_count))
    partix.publish_centralized(collection, "central")
    return partix, collection


class TestPartixTcp:
    def test_tcp_mode_requires_start_tcp(self):
        partix, collection = _published_partix()
        from repro.errors import ClusterError

        with pytest.raises(ClusterError, match="start_tcp"):
            partix.execute(
                'collection("%s")//Item' % collection.name,
                collection=collection.name,
                execution_mode="tcp",
            )

    def test_tcp_answers_match_other_modes_byte_for_byte(self):
        partix, collection = _published_partix()
        queries = [
            'for $i in collection("%s")//Item where $i/Section = "CD"'
            " return $i" % collection.name,
            'count(collection("%s")//Item)' % collection.name,
            'for $i in collection("%s")//Item return $i/Code' % collection.name,
        ]
        partix.start_tcp()
        try:
            for query in queries:
                results = {
                    mode: partix.execute(
                        query,
                        collection=collection.name,
                        execution_mode=mode,
                    )
                    for mode in ("simulated", "threads", "tcp")
                }
                texts = {r.result_text for r in results.values()}
                assert len(texts) == 1, f"modes disagree on {query!r}"
                tcp_result = results["tcp"]
                assert tcp_result.wire_measured
                assert tcp_result.bytes_sent > results["simulated"].bytes_sent
                assert not results["simulated"].wire_measured
        finally:
            partix.stop_tcp()

    def test_start_tcp_is_idempotent_and_stop_reaps(self):
        partix, _ = _published_partix()
        first = partix.start_tcp()
        assert partix.start_tcp() is first
        processes = [site.process for site in first.sites.values()]
        partix.stop_tcp()
        assert partix.tcp is None
        assert not any(process.is_alive() for process in processes)

    def test_fuzz_smoke_tcp_matches_centralized(self):
        from repro.fuzz.generator import spec_for_iteration
        from repro.fuzz.runner import run_case

        for iteration in range(2):
            spec = dataclasses.replace(
                spec_for_iteration(20060806, iteration),
                transport="tcp",
                disturbance=None,
            )
            outcome = run_case(spec)
            assert outcome.ok, [m.detail for m in outcome.mismatches]
            assert outcome.comparisons > 0


class TestWritesAfterStartTcp:
    """While tcp is up a write through ``site.driver`` reaches the local
    engine and its server, so ``threads`` and ``tcp`` keep answering from
    identical repositories whoever wrote (publisher, rebalancer)."""

    @staticmethod
    def _answers(partix, name):
        queries = (
            'count(collection("%s")//Item)' % name,
            'for $i in collection("%s")//Item return $i/Code' % name,
        )
        return {
            mode: [
                partix.execute(
                    query, collection=name, execution_mode=mode
                ).result_text
                for query in queries
            ]
            for mode in ("threads", "tcp")
        }

    @pytest.mark.parametrize("republished", [40, 6], ids=["grown", "shrunk"])
    def test_republish_reaches_the_site_servers(self, republished):
        partix, collection = _published_partix(item_count=16)
        design = items_horizontal_fragmentation(2)
        with partix:
            partix.start_tcp()
            partix.publish(
                build_items_collection(republished, kind="small", seed=10),
                design,
                replace=True,
            )
            answers = self._answers(partix, collection.name)
            assert answers["threads"][0] == str(republished)
            assert answers["tcp"] == answers["threads"]

    def test_split_reaches_the_site_servers(self):
        from repro.rebalance.migrate import Rebalancer

        partix, collection = _published_partix(item_count=24)
        fragment = items_horizontal_fragmentation(2).fragments[0].name
        with partix:
            partix.start_tcp()
            before = self._answers(partix, collection.name)
            report = Rebalancer(partix).split(collection.name, fragment)
            assert report.completed
            after = self._answers(partix, collection.name)
            assert after["tcp"] == after["threads"]
            # Same documents as before the split (three lanes now, so the
            # concatenation order may differ).
            assert [sorted(text.split("\n")) for text in after["tcp"]] == [
                sorted(text.split("\n")) for text in before["threads"]
            ]

    def test_stop_tcp_restores_the_plain_drivers(self):
        partix, _ = _published_partix()
        plain = {site.name: site.driver for site in partix.cluster.sites()}
        partix.start_tcp()
        assert all(
            site.driver is not plain[site.name]
            and site.driver.engine is plain[site.name].engine
            for site in partix.cluster.sites()
        )
        partix.stop_tcp()
        assert all(
            site.driver is plain[site.name] for site in partix.cluster.sites()
        )
