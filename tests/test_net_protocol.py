"""Unit tests for the PartiX wire protocol (framing + error mapping)."""

import json
import socket
import struct

import pytest

import repro.net.protocol as protocol
from repro.errors import (
    CollectionNotFoundError,
    ProtocolError,
    RemoteExecutionError,
    XQuerySyntaxError,
)
from repro.net.protocol import (
    Frame,
    FrameType,
    HEADER_BYTES,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    exception_to_payload,
    payload_to_exception,
    recv_frame,
)

#: A representative payload for each frame type (round-trip coverage).
PAYLOADS = {
    FrameType.HELLO: {"version": PROTOCOL_VERSION},
    FrameType.WELCOME: {"version": PROTOCOL_VERSION, "site": "site0"},
    FrameType.REJECT: {"reason": "protocol version mismatch"},
    FrameType.PING: {},
    FrameType.PONG: {"site": "site0", "queries_executed": 3},
    FrameType.EXECUTE: {
        "query": 'for $i in collection("C")//item return $i',
        "default_collection": "C",
    },
    FrameType.RESULT: {"result_text": "<Item/>", "elapsed_seconds": 0.01},
    FrameType.ERROR: {"error_type": "ValueError", "message": "boom"},
    FrameType.CREATE_COLLECTION: {"collection": "C"},
    FrameType.STORE_DOCUMENT: {
        "collection": "C",
        "document": "<Item code=\"1\">café ☃</Item>",
        "name": "doc1",
        "origin": "doc1.xml",
    },
    FrameType.DOCUMENT_COUNT: {"collection": "C"},
    FrameType.COLLECTION_BYTES: {"collection": "C"},
    FrameType.STATS: {},
    FrameType.SHUTDOWN: {},
    FrameType.OK: {"count": 7},
    FrameType.RESULT_CHUNK: {},  # raw-payload frame: payload stays {}
    FrameType.QUERY: {
        "query": 'count(collection("C")//Item)',
        "collection": "C",
        "deadline_seconds": 2.5,
    },
    FrameType.QUERY_RESULT: {
        "result_text": "7",
        "result_bytes": 1,
        "elapsed_seconds": 0.01,
    },
    FrameType.QUERY_ERROR: {
        "error_type": "AdmissionRejected",
        "message": "coordinator overloaded",
        "shed": True,
    },
    FrameType.REBALANCE: {
        "action": {"kind": "split", "collection": "Citems", "fragment": "F1"},
    },
    FrameType.RETAIN_DOCUMENTS: {"collection": "C", "keep": ["doc1"]},
}

#: Raw bytes for the raw-payload frame types.
RAW_BODIES = {
    FrameType.RESULT_CHUNK: "<Item>café ☃</Item>".encode("utf-8"),
}


class TestRoundTrip:
    @pytest.mark.parametrize("frame_type", list(FrameType))
    def test_every_frame_type_round_trips(self, frame_type):
        frame = Frame(
            type=frame_type,
            request_id=41 + int(frame_type),
            payload=PAYLOADS[frame_type],
            raw=RAW_BODIES.get(frame_type, b""),
        )
        decoded, consumed = decode_frame(encode_frame(frame))
        assert decoded == frame
        assert consumed == len(encode_frame(frame))

    def test_result_chunk_payload_is_raw_bytes(self):
        # No JSON escaping: the wire body is exactly the chunk's bytes,
        # even when they are not valid UTF-8 (a chunk may split a
        # multi-byte character).
        body = "é".encode("utf-8")[:1] + b"\xff\x00<not json"
        frame = Frame(type=FrameType.RESULT_CHUNK, request_id=9, raw=body)
        data = encode_frame(frame)
        assert data[HEADER_BYTES:] == body
        decoded, _ = decode_frame(data)
        assert decoded.raw == body
        assert decoded.payload == {}

    def test_unicode_payload_survives(self):
        frame = Frame(
            type=FrameType.STORE_DOCUMENT,
            request_id=1,
            payload={"document": "élément ☃ \U0001f409"},
        )
        decoded, _ = decode_frame(encode_frame(frame))
        assert decoded.payload["document"] == "élément ☃ \U0001f409"

    def test_header_layout_is_stable(self):
        # The fixed 16-byte layout is the wire contract; a change breaks
        # every deployed peer.
        assert HEADER_BYTES == 16
        data = encode_frame(Frame(type=FrameType.PING, request_id=7))
        assert data[:2] == MAGIC
        assert data[2] == PROTOCOL_VERSION
        assert data[3] == int(FrameType.PING)
        assert int.from_bytes(data[4:12], "big") == 7
        assert int.from_bytes(data[12:16], "big") == len(data) - HEADER_BYTES

    def test_trailing_bytes_are_not_consumed(self):
        data = encode_frame(Frame(type=FrameType.PING)) + b"extra"
        _, consumed = decode_frame(data)
        assert consumed == len(data) - len(b"extra")


def _recv_off_a_socket(data: bytes):
    """``recv_frame`` on the read end of a socket pair carrying ``data``."""
    writer, reader = socket.socketpair()
    with writer, reader:
        writer.sendall(data)
        writer.shutdown(socket.SHUT_WR)
        return recv_frame(reader)


def _header(type_code, size):
    return struct.Struct("!2sBBQI").pack(
        MAGIC, PROTOCOL_VERSION, type_code, 1, size
    )


class _MalformedFrames:
    """The malformed frames every reader refuses with the same error.

    ``read`` is the reader under test: ``decode_frame`` here, and
    ``recv_frame`` on a socket in :class:`TestRejectionOffASocket`.
    """

    read = staticmethod(decode_frame)

    def test_bad_magic(self):
        data = bytearray(encode_frame(Frame(type=FrameType.PING)))
        data[:2] = b"ZZ"
        with pytest.raises(ProtocolError, match="bad frame magic"):
            self.read(bytes(data))

    def test_unknown_frame_type(self):
        with pytest.raises(ProtocolError, match="unknown frame type 200"):
            self.read(_header(200, 0))

    def test_oversized_length_prefix_rejected_before_allocation(self):
        header = _header(int(FrameType.PING), MAX_PAYLOAD_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            self.read(header)

    def test_garbage_payload_is_not_json(self):
        body = b"not json at all"
        with pytest.raises(ProtocolError, match="garbage frame payload"):
            self.read(_header(int(FrameType.OK), len(body)) + body)

    def test_payload_must_be_a_json_object(self):
        body = json.dumps([1, 2, 3]).encode()
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            self.read(_header(int(FrameType.OK), len(body)) + body)


class TestRejection(_MalformedFrames):
    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="truncated frame header"):
            decode_frame(b"PX\x01")

    def test_truncated_payload(self):
        data = encode_frame(
            Frame(type=FrameType.OK, payload={"count": 123456})
        )
        with pytest.raises(ProtocolError, match="truncated frame payload"):
            decode_frame(data[:-4])

    def test_oversized_payload_refused_on_encode(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_PAYLOAD_BYTES", 16)
        with pytest.raises(ProtocolError, match="oversized frame"):
            encode_frame(
                Frame(type=FrameType.OK, payload={"blob": "x" * 64})
            )


class TestRejectionOffASocket(_MalformedFrames):
    read = staticmethod(_recv_off_a_socket)


class TestErrorMapping:
    def test_repro_error_round_trips_to_same_class(self):
        payload = exception_to_payload(CollectionNotFoundError("no collection 'C'"))
        error = payload_to_exception(payload)
        assert type(error) is CollectionNotFoundError
        assert str(error) == "no collection 'C'"

    def test_query_error_round_trips(self):
        error = payload_to_exception(
            exception_to_payload(XQuerySyntaxError("unexpected token"))
        )
        assert type(error) is XQuerySyntaxError

    def test_builtin_error_round_trips(self):
        error = payload_to_exception(exception_to_payload(ValueError("bad")))
        assert type(error) is ValueError
        assert str(error) == "bad"

    def test_unknown_class_degrades_to_remote_execution_error(self):
        error = payload_to_exception(
            {"error_type": "SomeProprietaryError", "message": "details"}
        )
        assert type(error) is RemoteExecutionError
        assert "SomeProprietaryError" in str(error)
        assert "details" in str(error)

    def test_empty_payload_degrades_gracefully(self):
        error = payload_to_exception({})
        assert type(error) is RemoteExecutionError


class TestAnswerHello:
    """The one handshake decision the frame server sends verbatim, for
    the site server and the coordinator alike."""

    def test_matching_version_is_welcomed_with_the_default_chunk_size(self):
        hello = Frame(FrameType.HELLO, 9, {"version": PROTOCOL_VERSION})
        reply, chunk_bytes = protocol.answer_hello(hello, "site0")
        assert chunk_bytes == protocol.DEFAULT_CHUNK_BYTES
        assert reply == Frame(
            FrameType.WELCOME,
            9,
            {
                "version": PROTOCOL_VERSION,
                "site": "site0",
                "chunk_bytes": protocol.DEFAULT_CHUNK_BYTES,
            },
        )

    def test_proposed_chunk_size_is_clamped_and_echoed(self):
        hello = Frame(
            FrameType.HELLO, 1, {"version": PROTOCOL_VERSION, "chunk_bytes": 0}
        )
        reply, chunk_bytes = protocol.answer_hello(hello, "s")
        assert chunk_bytes == protocol.MIN_CHUNK_BYTES
        assert reply.payload["chunk_bytes"] == protocol.MIN_CHUNK_BYTES

    @pytest.mark.parametrize(
        "first, reason",
        [
            (Frame(FrameType.HELLO, 3, {"version": 99}), "version mismatch"),
            (Frame(FrameType.PING, 3), "expected HELLO, got PING"),
        ],
    )
    def test_anything_else_is_rejected(self, first, reason):
        reply, chunk_bytes = protocol.answer_hello(first, "s")
        assert chunk_bytes is None
        assert reply.type is FrameType.REJECT and reply.request_id == 3
        assert reason in reply.payload["reason"]
