"""Streaming pipeline tests: chunk frames, incremental composition,
aggregate pushdown, and failure semantics.

The byte-identity contract under test: for any query, the streamed
answer (chunks → incremental composer) must equal the monolithic answer
byte for byte, in every execution mode, for every chunk size — including
chunk boundaries that fall inside a multi-byte UTF-8 character.
"""

import socket
import threading

import pytest

from repro.cluster.dispatch import InProcessTransport, ParallelDispatcher
from repro.cluster.site import Cluster, Site
from repro.errors import StorageError, TransportError
from repro.net import SiteClient, SiteServer
from repro.net.protocol import (
    DEFAULT_CHUNK_BYTES,
    Frame,
    FrameType,
    MAX_PAYLOAD_BYTES,
    PROTOCOL_VERSION,
    frame_size_bucket,
    negotiate_chunk_bytes,
    recv_frame,
    send_frame,
)
from repro.partix.composer import (
    IncrementalComposer,
    ResultComposer,
    SpillBuffer,
    fold_aggregate_values,
    parse_aggregate_partial,
)
from repro.partix.decomposer import CompositionSpec, SubQuery
from repro.partix.middleware import Partix
from repro.workloads.virtual_store import (
    build_items_collection,
    items_horizontal_fragmentation,
)


def _subqueries(count, collection="C"):
    return [
        SubQuery(f"F{i}", f"site{i}", f"{collection}_F{i}", "q")
        for i in range(count)
    ]


def _feed(sink, index, text, chunk_bytes=3):
    """Stream ``text`` into one lane in ``chunk_bytes``-sized slices."""
    data = text.encode("utf-8")
    sink.begin(index)
    for start in range(0, len(data), chunk_bytes):
        sink.chunk(index, data[start : start + chunk_bytes])
    sink.complete(index)


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


class TestIncrementalAggregates:
    """Streamed aggregate folding must match the monolithic composer."""

    CASES = [
        ("count", ["3", "0", "4"]),
        ("sum", ["1.5", "2.25", "3"]),
        ("sum", ["0.1", "0.2", "0.3"]),  # float-order-sensitive
        ("min", ["7", "", "3.5"]),
        ("max", ["7", "", "9.25"]),
        ("avg", ["3.0 2", "", "5.0 1"]),  # partials ship (sum, count)
        ("exists", ["false", "true", "false"]),
        ("exists", ["false", "false", "false"]),
        ("empty", ["true", "true", "true"]),
        ("empty", ["true", "false", "true"]),
    ]

    @pytest.mark.parametrize("op,partial_texts", CASES)
    def test_matches_monolithic_fold(self, op, partial_texts):
        spec = CompositionSpec(kind="aggregate", aggregate=op)
        subqueries = _subqueries(len(partial_texts))
        monolithic = ResultComposer().compose(
            spec, list(zip(subqueries, partial_texts))
        )
        sink = IncrementalComposer(spec, subqueries)
        # Lanes complete in reverse order: the fold must still be
        # plan-ordered.
        for index in reversed(range(len(partial_texts))):
            _feed(sink, index, partial_texts[index], chunk_bytes=1)
        composed = sink.finish()
        assert composed.result_text == monolithic.result_text

    def test_fold_is_associative_over_partial_grouping(self):
        # Folding [a, b, c] must equal folding [fold([a, b]), c] for the
        # ops the decomposer pushes down (count/sum are plain sums).
        values = [[3.0], [4.0], [5.0]]
        whole, _ = fold_aggregate_values("sum", values)
        merged_text, _ = fold_aggregate_values("sum", values[:2])
        merged = parse_aggregate_partial("sum", merged_text)
        regrouped, _ = fold_aggregate_values("sum", [merged, values[2]])
        assert whole == regrouped

    def test_zero_partials_use_aggregate_identities(self):
        # Every fragment pruned: exists() of nothing is false, empty() of
        # nothing is true, count is 0 — centralized empty-sequence
        # semantics.
        for op, expected in (("exists", "false"), ("empty", "true"), ("count", "0")):
            sink = IncrementalComposer(
                CompositionSpec(kind="aggregate", aggregate=op), []
            )
            assert sink.finish().result_text == expected


class TestIncrementalConcat:
    def test_out_of_order_lanes_compose_in_plan_order(self):
        spec = CompositionSpec(kind="concat")
        texts = ["<Item>a</Item>", "<Item>b</Item>\n<Item>c</Item>", "<Item>d</Item>"]
        subqueries = _subqueries(len(texts))
        monolithic = ResultComposer().compose(spec, list(zip(subqueries, texts)))
        sink = IncrementalComposer(spec, subqueries)
        for index in (2, 0, 1):
            _feed(sink, index, texts[index])
        assert sink.finish().result_text == monolithic.result_text

    def test_chunk_boundary_inside_multibyte_character(self):
        spec = CompositionSpec(kind="concat")
        texts = ["<Item>café ☃ \U0001f409</Item>", "<Item>naïve</Item>"]
        subqueries = _subqueries(len(texts))
        monolithic = ResultComposer().compose(spec, list(zip(subqueries, texts)))
        for chunk_bytes in (1, 2, 3, 7):
            sink = IncrementalComposer(spec, subqueries)
            for index in range(len(texts)):
                _feed(sink, index, texts[index], chunk_bytes=chunk_bytes)
            assert sink.finish().result_text == monolithic.result_text

    def test_retry_begin_resets_stale_lane_bytes(self):
        spec = CompositionSpec(kind="concat")
        subqueries = _subqueries(2)
        sink = IncrementalComposer(spec, subqueries)
        sink.begin(0)
        sink.chunk(0, b"<Item>garbage from a dead attem")  # attempt dies
        _feed(sink, 0, "<Item>good</Item>")  # retry: begin() resets
        _feed(sink, 1, "<Item>two</Item>")
        assert sink.finish().result_text == "<Item>good</Item>\n<Item>two</Item>"

    def test_incomplete_lane_is_excluded(self):
        # A lane that never completes (all attempts exhausted under the
        # degrade policy) must not contribute half an answer.
        spec = CompositionSpec(kind="concat")
        subqueries = _subqueries(2)
        sink = IncrementalComposer(spec, subqueries)
        _feed(sink, 0, "<Item>ok</Item>")
        sink.begin(1)
        sink.chunk(1, b"<Item>half")
        assert sink.finish().result_text == "<Item>ok</Item>"

    def test_peak_buffer_and_first_chunk_accounting(self):
        spec = CompositionSpec(kind="concat")
        subqueries = _subqueries(1)
        sink = IncrementalComposer(spec, subqueries, spill_threshold=8)
        assert sink.time_to_first_chunk is None
        _feed(sink, 0, "x" * 100, chunk_bytes=4)
        assert sink.time_to_first_chunk is not None
        assert sink.chunks_received == 25
        assert sink.bytes_received == 100
        # The lane spilled at >8 in-memory bytes, so the peak stays far
        # below the 100-byte total.
        assert 0 < sink.peak_buffered_bytes <= 12
        assert sink.finish().result_text == "x" * 100


class TestSpillBuffer:
    def test_spills_past_threshold_and_round_trips(self):
        buffer = SpillBuffer(threshold=10)
        buffer.write(b"0123456789")
        assert buffer.memory_bytes == 10
        buffer.write(b"abc")  # crosses the threshold → disk
        assert buffer.memory_bytes == 0
        buffer.write(b"def")
        assert buffer.total_bytes == 16
        assert buffer.getvalue() == b"0123456789abcdef"
        assert buffer.getvalue() == b"0123456789abcdef"  # re-readable
        buffer.release()
        buffer.release()  # idempotent


class _ScriptedServer:
    """A fake site server that follows the handshake, then runs a script
    of frames for the first EXECUTE and closes the connection."""

    def __init__(self, frames):
        self.frames = frames
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.listener.accept()
        with conn:
            hello, _ = recv_frame(conn)
            send_frame(
                conn,
                Frame(
                    type=FrameType.WELCOME,
                    request_id=hello.request_id,
                    payload={
                        "version": PROTOCOL_VERSION,
                        "site": "fake",
                        "chunk_bytes": DEFAULT_CHUNK_BYTES,
                    },
                ),
            )
            request, _ = recv_frame(conn)
            for build in self.frames:
                send_frame(conn, build(request.request_id))

    def close(self):
        self.listener.close()


class TestStreamFailureSemantics:
    def _client(self, port):
        return SiteClient("127.0.0.1", port, site="fake", read_timeout=5.0)

    def test_truncated_stream_raises_transport_error(self):
        # One chunk, then the connection dies before RESULT_END: the
        # partial answer must never be mistaken for a short answer.
        server = _ScriptedServer(
            [
                lambda rid: Frame(
                    type=FrameType.RESULT_CHUNK, request_id=rid, raw=b"<Item/>"
                )
            ]
        )
        client = self._client(server.port)
        try:
            with pytest.raises(TransportError, match="truncated before RESULT_END"):
                client.execute_stream("q")
        finally:
            client.close()
            server.close()

    def test_wrong_frame_type_mid_stream_raises(self):
        server = _ScriptedServer(
            [
                lambda rid: Frame(
                    type=FrameType.PONG, request_id=rid, payload={"site": "fake"}
                )
            ]
        )
        client = self._client(server.port)
        try:
            with pytest.raises(TransportError, match="PONG"):
                client.execute_stream("q")
        finally:
            client.close()
            server.close()

    def test_error_frame_mid_stream_maps_to_original_exception(self):
        server = SiteServer(site="s0").serve_in_thread()
        client = SiteClient("127.0.0.1", server.port, site="s0")
        try:
            with pytest.raises(StorageError):
                client.execute_stream('collection("missing")//Item')
        finally:
            client.close()
            server.close()

    def test_streamed_answer_matches_monolithic_over_real_server(self):
        server = SiteServer(site="s0").serve_in_thread()
        client = SiteClient(
            "127.0.0.1", server.port, site="s0", chunk_bytes=3
        )
        try:
            client.create_collection("C")
            for index, text in enumerate(("café ☃", "naïve \U0001f409", "plain")):
                client.store_document(
                    "C", f"<Item><Name>{text}</Name></Item>", name=f"d{index}"
                )
            query = 'for $i in collection("C")//Item return $i/Name'
            assert client.negotiated_chunk_bytes == 3
            monolithic, _, _ = client.execute(query)
            chunks = []
            streamed, _, _ = client.execute_stream(
                query, on_chunk=chunks.append
            )
            assert b"".join(chunks).decode("utf-8") == monolithic.result_text
            assert streamed.result_text == ""  # text travels only as chunks
            assert streamed.result_bytes == monolithic.result_bytes
            # chunk_bytes=3 really splits the multi-byte characters.
            assert len(chunks) > monolithic.result_bytes // 4
            stats = client.server_stats()
            assert stats["frame_sizes_sent"]  # histogram is populated
        finally:
            client.close()
            server.close()


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

    def test_streaming_modes_are_byte_identical(self):
        partix, collection = _published_partix()
        for template in self.QUERIES:
            query = template.format(c=collection.name)
            baseline = partix.execute(
                query, collection=collection.name, execution_mode="simulated"
            )
            for mode in ("simulated", "threads"):
                streamed = partix.execute(
                    query,
                    collection=collection.name,
                    execution_mode=mode,
                    streaming=True,
                )
                assert streamed.result_text == baseline.result_text
                assert streamed.streamed
                assert not baseline.streamed

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

    def test_in_process_transport_emulates_chunking(self):
        partix, collection = _published_partix(chunk_bytes=2)
        transport = InProcessTransport(partix.cluster, chunk_bytes=2)
        assert transport.chunk_bytes == 2
        streamed = partix.execute(
            'for $i in collection("{c}")//Item return $i/Code'.format(
                c=collection.name
            ),
            collection=collection.name,
            execution_mode="threads",
            streaming=True,
        )
        baseline = partix.execute(
            'for $i in collection("{c}")//Item return $i/Code'.format(
                c=collection.name
            ),
            collection=collection.name,
        )
        assert streamed.result_text == baseline.result_text
        assert streamed.peak_buffered_bytes > 0
        assert streamed.first_chunk_seconds is not None

    def test_tcp_stream_alias_and_byte_identity(self):
        partix, collection = _published_partix(fragment_count=2, item_count=12)
        partix.start_tcp()
        try:
            for template in self.QUERIES:
                query = template.format(c=collection.name)
                by_mode = {
                    mode: partix.execute(
                        query, collection=collection.name, execution_mode=mode
                    )
                    for mode in ("simulated", "threads", "tcp", "tcp-stream")
                }
                texts = {r.result_text for r in by_mode.values()}
                assert len(texts) == 1, f"modes disagree on {query!r}"
                assert by_mode["tcp-stream"].streamed
                assert by_mode["tcp-stream"].wire_measured
                assert not by_mode["tcp"].streamed
        finally:
            partix.stop_tcp()

    def test_streamed_concat_buffering_is_bounded_over_real_servers(self):
        # The coordinator may hold at most the spill threshold plus one
        # chunk per active lane in memory (a SpillBuffer spills past
        # that), however large the answer: 2 × chunk_bytes × lanes.
        chunk_bytes = 64
        partix, collection = _published_partix(
            fragment_count=4, item_count=48, chunk_bytes=chunk_bytes
        )
        partix.start_tcp()
        try:
            query = 'for $i in collection("%s")//Item return $i' % collection.name
            streamed = partix.execute(
                query, collection=collection.name, execution_mode="tcp-stream"
            )
            monolithic = partix.execute(
                query, collection=collection.name, execution_mode="tcp"
            )
            lanes = len(streamed.round.executions)
            assert streamed.streamed and streamed.wire_measured
            assert streamed.result_text == monolithic.result_text
            # The answer dwarfs the bound, so the bound is what held.
            assert streamed.result_bytes > 8 * chunk_bytes * lanes
            assert 0 < streamed.peak_buffered_bytes <= 2 * chunk_bytes * lanes
        finally:
            partix.stop_tcp()

    def test_aggregate_pushdown_is_o_fragments_on_wire(self):
        partix, collection = _published_partix(fragment_count=2, item_count=12)
        partix.start_tcp()
        try:
            count = partix.execute(
                'count(collection("%s")//Item)' % collection.name,
                collection=collection.name,
                execution_mode="tcp-stream",
            )
            full = partix.execute(
                'for $i in collection("%s")//Item return $i' % collection.name,
                collection=collection.name,
                execution_mode="tcp-stream",
            )
            # The count answer ships one scalar per fragment; the full
            # scan ships every item. Frame overhead included, the
            # aggregate's wire traffic must be far below the scan's.
            assert count.bytes_received < full.bytes_received / 4
            assert count.bytes_received < 2048 * 2
        finally:
            partix.stop_tcp()
