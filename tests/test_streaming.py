"""The one answer path from a site to the composer.

The contract under test: a lane's answer is its text. The site — the
only party that knows the answer's size — picks the reply form (one
inline RESULT frame, or RESULT_CHUNK frames closed by a RESULT that
carries the answer's size instead), the client assembles either into
the same text, and that text equals the
in-process answer byte for byte at every negotiated chunk size —
including chunk boundaries that fall inside a multi-byte UTF-8
character. A reply that ends before its terminal frame is an error,
never a short answer, and a retried lane keeps nothing of the attempt
that died.
"""

import socket
import threading
import tracemalloc

import pytest

from repro.cluster.dispatch import ParallelDispatcher
from repro.cluster.site import Cluster, Site
from repro.coordinate import Coordinator, CoordinatorClient
from repro.datamodel import Collection, doc, elem
from repro.engine.stats import QueryResult
from repro.errors import StorageError, TransportError
from repro.net import SiteClient, SiteServer, TcpTransport
from repro.net import protocol
from repro.net.protocol import (
    DEFAULT_CHUNK_BYTES,
    Frame,
    FrameType,
    MAX_INLINE_RESULT_BYTES,
    MAX_PAYLOAD_BYTES,
    PROTOCOL_VERSION,
    answer_hello,
    frame_size_bucket,
    negotiate_chunk_bytes,
    recv_frame,
    send_frame,
)
from repro.partix.decomposer import SubQuery
from repro.partix.fragments import FragmentationSchema, HorizontalFragment
from repro.partix.middleware import Partix
from repro.paths import eq, ne
from repro.workloads.virtual_store import (
    build_items_collection,
    items_horizontal_fragmentation,
)


class TestChunkNegotiation:
    def test_clamping(self):
        assert negotiate_chunk_bytes(None) == DEFAULT_CHUNK_BYTES
        assert negotiate_chunk_bytes("garbage") == DEFAULT_CHUNK_BYTES
        assert negotiate_chunk_bytes(0) == 1
        assert negotiate_chunk_bytes(-5) == 1
        assert negotiate_chunk_bytes(7) == 7
        assert negotiate_chunk_bytes(MAX_PAYLOAD_BYTES * 10) == MAX_PAYLOAD_BYTES

    def test_frame_size_buckets_are_monotonic(self):
        assert frame_size_bucket(0) == "<=64B"
        assert frame_size_bucket(64) == "<=64B"
        assert frame_size_bucket(65) == "<=128B"
        assert frame_size_bucket(100_000) == "<=131072B"

    def test_a_version_1_peer_is_rejected_at_the_handshake(self):
        # Versions 1 and 2 selected a reply form with a "stream" key (on
        # EXECUTE, then on QUERY), version 3 closed a chunked reply with
        # a frame type of its own, version 4 had a frame type 21 and a
        # REBALANCE without an action; a peer still speaking any of them
        # would meet frames it does not expect.
        assert PROTOCOL_VERSION == 5
        for version in (1, 2, 3, 4):
            reply, chunk_bytes = answer_hello(
                Frame(FrameType.HELLO, 1, {"version": version}), "s0"
            )
            assert reply.type is FrameType.REJECT and chunk_bytes is None
            assert "version mismatch" in reply.payload["reason"]

    def test_an_inline_frame_stays_under_the_payload_ceiling(self):
        # JSON escaping grows a text at most 6x (``\\uXXXX`` for a
        # control character or a two-byte UTF-8 character).
        assert 6 * MAX_INLINE_RESULT_BYTES + 1024 * 1024 < MAX_PAYLOAD_BYTES


TEXTS = ("café ☃", "naïve \U0001f409", "plain")
NAMES_QUERY = 'for $i in collection("C")//Item return $i/Name'
NAMES_ANSWER = "\n".join(f"<Name>{text}</Name>" for text in TEXTS)


@pytest.fixture()
def server():
    srv = SiteServer(site="s0").serve_in_thread()
    srv.driver.create_collection("C")
    for index, text in enumerate(TEXTS):
        srv.driver.store_document(
            "C", f"<Item><Name>{text}</Name></Item>", name=f"d{index}"
        )
    yield srv
    srv.close()


def _reply_frames(port, chunk_bytes, query, request=FrameType.EXECUTE, **keys):
    """Every frame a real server (a site, or with ``request`` QUERY the
    coordinator) answers one request with, read off a raw socket after
    negotiating ``chunk_bytes``."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as conn:
        send_frame(
            conn,
            Frame(
                FrameType.HELLO,
                1,
                {"version": PROTOCOL_VERSION, "chunk_bytes": chunk_bytes},
            ),
        )
        welcome, _ = recv_frame(conn)
        assert welcome.payload["chunk_bytes"] == chunk_bytes
        send_frame(conn, Frame(request, 2, {"query": query, **keys}))
        frames = []
        while not frames or frames[-1].type is FrameType.RESULT_CHUNK:
            frames.append(recv_frame(conn)[0])
        assert all(frame.request_id == 2 for frame in frames)
        return frames


class TestTheSiteSizesTheReply:
    def test_an_answer_shorter_than_a_chunk_is_one_result_frame(self, server):
        size = len(NAMES_ANSWER.encode("utf-8"))
        (frame,) = _reply_frames(server.port, size + 1, NAMES_QUERY)
        assert frame.type is FrameType.RESULT
        assert frame.payload["result_text"] == NAMES_ANSWER
        assert "result_bytes" not in frame.payload

    def test_an_empty_answer_is_one_result_frame(self, server):
        (frame,) = _reply_frames(
            server.port, 1, 'collection("C")//NoSuchElement'
        )
        assert frame.type is FrameType.RESULT
        assert frame.payload["result_text"] == ""

    @pytest.mark.parametrize("chunk_bytes", [1, 7, None])
    def test_a_longer_answer_is_chunks_closed_by_result_end(
        self, server, chunk_bytes
    ):
        data = NAMES_ANSWER.encode("utf-8")
        if chunk_bytes is None:
            chunk_bytes = len(data)  # the boundary: a chunk fills exactly
        *chunks, end = _reply_frames(server.port, chunk_bytes, NAMES_QUERY)
        assert chunks and end.type is FrameType.RESULT
        assert all(len(chunk.raw) <= chunk_bytes for chunk in chunks)
        assert b"".join(chunk.raw for chunk in chunks) == data
        assert end.payload["result_bytes"] == len(data)
        assert "result_text" not in end.payload
        if chunk_bytes < 8:
            # The multi-byte characters really are split across frames.
            with pytest.raises(UnicodeDecodeError):
                for chunk in chunks:
                    chunk.raw.decode("utf-8")

    def test_an_unchunked_answer_above_the_inline_cap_is_chunked(
        self, server, monkeypatch
    ):
        monkeypatch.setattr(protocol, "MAX_INLINE_RESULT_BYTES", 10)
        chunk, end = _reply_frames(server.port, 4096, NAMES_QUERY)
        assert chunk.raw == NAMES_ANSWER.encode("utf-8")
        assert end.type is FrameType.RESULT
        assert end.payload["result_bytes"] == len(chunk.raw)

    @pytest.mark.parametrize("chunk_bytes", [1, 7, 64, None])
    def test_client_assembles_either_form_to_one_answer(
        self, server, chunk_bytes
    ):
        local = server.driver.execute(NAMES_QUERY)
        assert local.result_text == NAMES_ANSWER
        client = SiteClient(
            "127.0.0.1", server.port, site="s0", chunk_bytes=chunk_bytes
        )
        try:
            result, sent, received, _, _ = client.execute(NAMES_QUERY)
            assert result.result_text == local.result_text
            assert result.result_bytes == local.result_bytes
            assert result.documents_scanned == local.documents_scanned
            assert sent > 0 and received > local.result_bytes
        finally:
            client.close()

    def test_the_lane_records_what_it_held_as_chunks(self, server):
        subquery = SubQuery("F", "s0", "C", NAMES_QUERY)
        for chunk_bytes, chunked in ((7, True), (None, False)):
            client = SiteClient(
                "127.0.0.1", server.port, site="s0", chunk_bytes=chunk_bytes
            )
            try:
                execution = TcpTransport({"s0": client}).execute(subquery)
            finally:
                client.close()
            assert execution.result.result_text == NAMES_ANSWER
            assert execution.on_wire
            if chunked:
                assert execution.chunked_bytes == execution.result_bytes
                assert execution.first_chunk_seconds > 0
            else:
                assert execution.chunked_bytes == 0
                assert execution.first_chunk_seconds is None


@pytest.fixture(scope="module")
def coordinator():
    """A real coordinator over the fixture's items, split over two
    sites: it answers NAMES_QUERY with NAMES_ANSWER's lines."""
    documents = [
        doc(
            elem("Item", elem("Name", text), elem("Odd", str(index % 2))),
            name=f"d{index}",
        )
        for index, text in enumerate(TEXTS)
    ]
    design = FragmentationSchema(
        "C",
        [
            HorizontalFragment("F_odd", "C", predicate=eq("/Item/Odd", "1")),
            HorizontalFragment("F_even", "C", predicate=ne("/Item/Odd", "1")),
        ],
        root_label="Item",
    )
    with Partix(Cluster.with_sites(2)) as partix:
        partix.publish(Collection("C", documents), design)
        service = Coordinator(partix).serve_in_thread()
        yield service
        assert service.close()


def _form(frames):
    """What the reply rule decided: the chunk sizes, then the keys of
    the terminal payload that carry the answer."""
    *chunks, end = frames
    assert all(chunk.type is FrameType.RESULT_CHUNK for chunk in chunks)
    carried = sorted({"result_text", "result_bytes"} & set(end.payload))
    return [len(chunk.raw) for chunk in chunks], carried


class TestOneRuleFramesEveryReply:
    @pytest.mark.parametrize("excess", [-1, 0, 1])
    def test_site_and_coordinator_frame_an_answer_alike(
        self, server, coordinator, excess
    ):
        # The answer is chunk - 1, chunk or chunk + 1 bytes long.
        chunk = len(NAMES_ANSWER.encode("utf-8")) - excess
        expected = {
            -1: ([], ["result_text"]),
            0: ([chunk], ["result_bytes"]),
            1: ([chunk, 1], ["result_bytes"]),
        }[excess]
        site = _reply_frames(server.port, chunk, NAMES_QUERY)
        central = _reply_frames(
            coordinator.port,
            chunk,
            NAMES_QUERY,
            request=FrameType.QUERY,
            collection="C",
        )
        assert site[-1].type is FrameType.RESULT
        assert central[-1].type is FrameType.QUERY_RESULT
        assert _form(site) == _form(central) == expected


class _ScriptedServer:
    """A fake site server (or coordinator): follows the handshake, then
    answers the first request of each connection with that connection's
    script of frames and closes it."""

    def __init__(self, *scripts):
        self.scripts = scripts
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        for frames in self.scripts:
            conn, _ = self.listener.accept()
            with conn:
                hello, _ = recv_frame(conn)
                welcome, _ = answer_hello(hello, "fake")
                send_frame(conn, welcome)
                request, _ = recv_frame(conn)
                for build in frames:
                    send_frame(conn, build(request.request_id))

    def close(self):
        self.listener.close()


def _chunk(raw):
    return lambda rid: Frame(FrameType.RESULT_CHUNK, rid, raw=raw)


def _chunked_result(result_bytes):
    """A well-formed RESULT closing the chunks of an answer of
    ``result_bytes``: the reply payload without its text."""
    result = QueryResult(
        items=[],
        result_text="",
        result_bytes=result_bytes,
        elapsed_seconds=0.001,
        parse_seconds=0.0,
        documents_parsed=0,
        bytes_parsed=0,
        documents_scanned=1,
        documents_pruned=0,
    )
    payload = result.to_payload()
    del payload["result_text"]
    return _json(FrameType.RESULT, payload)


def _json(type_, payload):
    return lambda rid: Frame(type_, rid, payload)


@pytest.fixture()
def scripted():
    """``scripted(*scripts, client=SiteClient)`` → a client of a
    :class:`_ScriptedServer`."""
    started = []

    def start(*scripts, client=SiteClient):
        server = _ScriptedServer(*scripts)
        client = client("127.0.0.1", server.port, site="fake", read_timeout=5.0)
        started.append((server, client))
        return client

    yield start
    for server, client in started:
        client.close()
        server.close()


class TestStreamFailureSemantics:
    def test_truncated_stream_raises_transport_error(self, scripted):
        # One chunk, then the connection dies before the terminal frame:
        # the partial answer must never be mistaken for a short answer.
        client = scripted([_chunk(b"<Item/>")])
        with pytest.raises(TransportError, match="truncated before RESULT"):
            client.execute("q")
        assert client.pool_stats()["idle_connections"] == 0  # not repooled

    def test_wrong_frame_type_mid_stream_raises(self, scripted):
        client = scripted(
            [_chunk(b"<Item/>"), _json(FrameType.PONG, {"site": "fake"})]
        )
        with pytest.raises(TransportError, match="PONG"):
            client.execute("q")
        assert client.pool_stats()["idle_connections"] == 0

    def test_inline_result_after_chunks_is_refused(self, scripted):
        # Two answers in one reply: neither may be taken for the answer.
        client = scripted(
            [
                _chunk(b"<Item/>"),
                _json(FrameType.RESULT, {"result_text": "<Other/>"}),
            ]
        )
        with pytest.raises(TransportError, match="RESULT_CHUNK"):
            client.execute("q")

    def test_inline_query_result_after_chunks_is_refused(self, scripted):
        # The coordinator's reply is assembled by the same rule.
        client = scripted(
            [
                _chunk(b"<Item/>"),
                _json(
                    FrameType.QUERY_RESULT,
                    {"result_text": "<Other/>", "elapsed_seconds": 0.001},
                ),
            ],
            client=CoordinatorClient,
        )
        with pytest.raises(TransportError, match="RESULT_CHUNK"):
            client.query("q")

    def test_error_frame_mid_stream_maps_to_original_exception(self, scripted):
        client = scripted(
            [
                _chunk(b"<Item>half an ans"),
                _json(
                    FrameType.ERROR,
                    {"error_type": "StorageError", "message": "disk gone"},
                ),
            ]
        )
        with pytest.raises(StorageError, match="disk gone"):
            client.execute("q")

    def test_error_frame_from_a_real_server_maps_to_its_exception(self, server):
        client = SiteClient("127.0.0.1", server.port, site="s0")
        try:
            with pytest.raises(StorageError):
                client.execute('collection("missing")//Item')
            # The connection is clean after an ERROR and serves the next.
            assert client.execute(NAMES_QUERY)[0].result_text == NAMES_ANSWER
            assert client.connections_created == 1
        finally:
            client.close()

    def test_streamed_answer_matches_monolithic_over_real_server(self, server):
        client = SiteClient("127.0.0.1", server.port, site="s0", chunk_bytes=3)
        try:
            assert client.ping()  # connect: the chunk size is negotiated
            assert client.negotiated_chunk_bytes == 3
            local = server.driver.execute(NAMES_QUERY)
            remote, _, received, chunked, _ = client.execute(NAMES_QUERY)
            assert remote.result_text == local.result_text
            assert remote.result_bytes == local.result_bytes == chunked
            # chunk_bytes=3 really put the answer on the wire in slices:
            # a 16-byte header for every 3 bytes of it.
            assert received > 5 * local.result_bytes
            stats = client.server_stats()
            assert stats["frame_sizes_sent"]["<=64B"] > local.result_bytes // 3
        finally:
            client.close()

    def test_retried_lane_keeps_the_retrys_bytes_only(self, scripted):
        # Attempt 1 dies mid-reply after a chunk; attempt 2 (a fresh
        # connection) answers in full. Nothing of attempt 1 survives.
        good = "<Item>gööd</Item>".encode("utf-8")
        client = scripted(
            [_chunk(b"<Item>garbage from a dead attem")],
            [
                _chunk(good[:9]),  # ends inside the first "ö"
                _chunk(good[9:]),
                _chunked_result(len(good)),
            ],
        )
        dispatcher = ParallelDispatcher(sleep=lambda seconds: None)
        outcome = dispatcher.dispatch(
            TcpTransport({"fake": client}), [SubQuery("F", "fake", "C", "q")]
        )
        (execution,) = outcome.round.executions
        assert execution.result.result_text == "<Item>gööd</Item>"
        assert execution.chunked_bytes == len(good)
        assert outcome.round.peak_buffered_bytes == len(good)


def _published_partix(fragment_count=4, item_count=18, chunk_bytes=5):
    collection = build_items_collection(item_count, kind="small", seed=11)
    cluster = Cluster.with_sites(fragment_count)
    cluster.add(Site("central"))
    partix = Partix(cluster, chunk_bytes=chunk_bytes)
    partix.publish(collection, items_horizontal_fragmentation(fragment_count))
    partix.publish_centralized(collection, "central")
    return partix, collection


class TestPartixStreaming:
    QUERIES = [
        'for $i in collection("{c}")//Item return $i/Code',
        'count(collection("{c}")//Item)',
        'exists(collection("{c}")//Item[Code = "I0001"])',
        'empty(collection("{c}")//Item[Code = "no-such-code"])',
    ]

    def test_there_is_no_streaming_option(self):
        partix, collection = _published_partix()
        with pytest.raises(TypeError):
            partix.execute(
                self.QUERIES[0].format(c=collection.name),
                collection=collection.name,
                streaming=True,
            )
        assert not hasattr(
            partix.execute(
                self.QUERIES[0].format(c=collection.name),
                collection=collection.name,
            ),
            "streamed",
        )

    def test_exists_empty_push_down_as_aggregates(self):
        partix, collection = _published_partix()
        plan = partix.explain(
            'exists(collection("{c}")//Item)'.format(c=collection.name),
            collection.name,
        )
        assert plan.composition.kind == "aggregate"
        assert plan.composition.aggregate == "exists"
        plan = partix.explain(
            'empty(collection("{c}")//Item)'.format(c=collection.name),
            collection.name,
        )
        assert plan.composition.aggregate == "empty"
        # Answers match the centralized engine.
        for query, expected in (
            ('exists(collection("%s")//Item)' % collection.name, "true"),
            ('empty(collection("%s")//Item)' % collection.name, "false"),
        ):
            assert (
                partix.execute(query, collection=collection.name).result_text
                == expected
            )
            assert (
                partix.execute_centralized(query, "central").result_text
                == expected
            )

    def test_tcp_stream_alias_and_byte_identity(self):
        # Chunked (1, 5) or inline (the default size), "tcp" and its old
        # spelling answer the in-process bytes.
        for chunk_bytes in (1, 5, DEFAULT_CHUNK_BYTES):
            partix, collection = _published_partix(
                fragment_count=2, item_count=12, chunk_bytes=chunk_bytes
            )
            partix.start_tcp()
            try:
                for template in self.QUERIES:
                    self._compare_modes(
                        partix, collection.name, template, chunk_bytes
                    )
            finally:
                partix.close()

    @staticmethod
    def _compare_modes(partix, collection, template, chunk_bytes):
        query = template.format(c=collection)
        by_mode = {
            mode: partix.execute(
                query, collection=collection, execution_mode=mode
            )
            for mode in ("simulated", "threads", "tcp", "tcp-stream")
        }
        texts = {result.result_text for result in by_mode.values()}
        assert len(texts) == 1, f"modes disagree on {query!r}"
        for mode in ("tcp", "tcp-stream"):
            result = by_mode[mode]
            # A lookup of a Code no fragment holds is routed nowhere.
            assert result.wire_measured == bool(result.plan.subqueries)
            chunked = sum(
                execution.result_bytes
                for execution in result.round.executions
                if execution.result_bytes >= chunk_bytes
            )
            assert result.peak_buffered_bytes == chunked
            assert (result.first_chunk_seconds is None) == (not chunked)
        assert by_mode["threads"].peak_buffered_bytes == 0
        assert by_mode["threads"].first_chunk_seconds is None

    def test_streamed_concat_buffering_is_bounded_over_real_servers(self):
        # A 5 MB concat answer over tcp: what the coordinator holds at
        # its peak is the lanes' texts plus the composed answer — about
        # twice the answer. (With the whole text in one JSON RESULT
        # frame it was three times: frame bytes, decoded frame, text.)
        filler = "x" * 50_000
        documents = [
            doc(
                elem("Item", elem("Half", "ab"[i % 2]), elem("Blob", filler)),
                name=f"i{i}.xml",
            )
            for i in range(100)
        ]
        partix = Partix(Cluster.with_sites(2))
        partix.publish(
            Collection("Cblobs", documents),
            FragmentationSchema(
                "Cblobs",
                [
                    HorizontalFragment(
                        "F_a", "Cblobs", predicate=eq("/Item/Half", "a")
                    ),
                    HorizontalFragment(
                        "F_b", "Cblobs", predicate=ne("/Item/Half", "a")
                    ),
                ],
                root_label="Item",
            ),
        )
        query = 'for $i in collection("Cblobs")/Item return $i/Blob'
        partix.start_tcp()
        try:
            expected = partix.execute(query, collection="Cblobs")
            assert expected.result_bytes > 5_000_000
            tracemalloc.start()
            try:
                result = partix.execute(
                    query, collection="Cblobs", execution_mode="tcp"
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.result_text == expected.result_text
            # Both lanes were chunked; the composer added one "\n".
            assert result.peak_buffered_bytes == result.result_bytes - 1
            assert peak < 2.5 * result.result_bytes
        finally:
            partix.close()

    def test_aggregate_pushdown_is_o_fragments_on_wire(self):
        partix, collection = _published_partix(fragment_count=2, item_count=12)
        partix.start_tcp()
        try:
            count = partix.execute(
                'count(collection("%s")//Item)' % collection.name,
                collection=collection.name,
                execution_mode="tcp",
            )
            full = partix.execute(
                'for $i in collection("%s")//Item return $i' % collection.name,
                collection=collection.name,
                execution_mode="tcp",
            )
            # The count answer ships one scalar per fragment; the full
            # scan ships every item. Frame overhead included, the
            # aggregate's wire traffic must be far below the scan's.
            assert count.bytes_received < full.bytes_received / 4
            assert count.bytes_received < 2048 * 2
        finally:
            partix.close()
