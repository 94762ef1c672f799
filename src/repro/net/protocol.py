"""The PartiX wire protocol: length-prefixed binary frames.

Every message between a coordinator and a site server is one *frame*:

====== ======= ======================================================
offset size    field
====== ======= ======================================================
0      2       magic ``b"PX"``
2      1       protocol version (:data:`PROTOCOL_VERSION`)
3      1       frame type (:class:`FrameType`)
4      8       request id (unsigned big-endian; replies echo it)
12     4       payload length in bytes (unsigned big-endian)
16     n       payload — a UTF-8 JSON object
====== ======= ======================================================

The framing is fixed-layout binary so a reader always knows how many
bytes to wait for; the payload is JSON so sub-query texts, XML document
bodies and stats ride in one self-describing envelope (the same policy
as :mod:`repro.partix.serialization` for designs). Frames larger than
:data:`MAX_PAYLOAD_BYTES` are refused on both encode and decode — a
garbage length prefix must not make a reader allocate gigabytes.

The one exception to the JSON rule is ``RESULT_CHUNK``: its payload is
*raw bytes* — a slice of the UTF-8 serialized answer, shipped without
JSON escaping so large XML value streams cost exactly their own size on
the wire.

One reply rule, :func:`reply_frames`, frames every answer — a site's
to an ``EXECUTE`` and the coordinator's to a ``QUERY``; the answering
side, the only party that knows the answer's size, applies it. An
answer shorter than the connection's chunk size (and at most
:data:`MAX_INLINE_RESULT_BYTES`) travels inline in the one JSON
terminal frame (text and stats together); a longer one goes out as
``RESULT_CHUNK`` frames, closed by the terminal frame carrying its
``result_bytes`` in place of the text. Either way the client hands its
caller the same text. Chunk size is negotiated per connection: the
client proposes ``chunk_bytes`` in its HELLO, the server clamps it with
:func:`negotiate_chunk_bytes` and echoes the effective value in its
WELCOME.

Handshake: a client's first frame must be ``HELLO {"version": N}``. The
server answers ``WELCOME {"version", "site"}`` when the version matches
and ``REJECT {"reason"}`` (then closes) when it does not — version skew
fails loudly at connect time, never mid-query.

Error transparency: a site server maps an execution failure to an
``ERROR`` frame carrying the exception class name and message;
:func:`payload_to_exception` maps it back to the *same* class (from
:mod:`repro.errors` or builtins) so remote execution raises exactly what
in-process execution would — the differential fuzz oracle relies on
this symmetry.
"""

from __future__ import annotations

import builtins
import enum
import json
import socket
import struct
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import ProtocolError, RemoteExecutionError

MAGIC = b"PX"
#: 2: EXECUTE lost its stream key — the site sizes the reply (RESULT,
#: or RESULT_CHUNK… and a closing frame of its own type); 3: QUERY lost
#: its own, the coordinator does the same; 4: that closing frame (type
#: 17) folded into RESULT, so a reply is RESULT_CHUNK* then one terminal
#: frame. An older peer would meet frames it does not expect and is
#: refused at the handshake instead.
PROTOCOL_VERSION = 4

#: ``!`` network byte order: magic, version, type, request id, payload size.
_HEADER = struct.Struct("!2sBBQI")
HEADER_BYTES = _HEADER.size

#: Hard ceiling on one frame's payload (64 MiB). Large enough for any
#: mirrored fragment document; small enough that a corrupt length prefix
#: cannot trigger a runaway allocation.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

#: Default negotiated size of one RESULT_CHUNK payload, and so the
#: answer size from which a reply is chunked. 64 KiB amortizes the
#: 16-byte header to ~0.02%.
DEFAULT_CHUNK_BYTES = 64 * 1024

#: Largest answer a RESULT frame carries inline. JSON escaping grows a
#: text at most 6x (a control character or a two-byte UTF-8 character
#: becomes ``\uXXXX``), so an inline frame stays under 48 MiB plus its
#: stats — provably below :data:`MAX_PAYLOAD_BYTES` however large a
#: chunk size the connection negotiated.
MAX_INLINE_RESULT_BYTES = MAX_PAYLOAD_BYTES // 8

#: Floor for a negotiated chunk size. 1 is legal on purpose: the fuzz
#: harness uses it to force chunk boundaries inside multi-byte UTF-8
#: sequences.
MIN_CHUNK_BYTES = 1


def negotiate_chunk_bytes(requested) -> int:
    """Clamp a client-proposed chunk size to a servable value.

    Anything non-numeric or missing falls back to
    :data:`DEFAULT_CHUNK_BYTES`; numeric proposals are clamped into
    ``[MIN_CHUNK_BYTES, MAX_PAYLOAD_BYTES]``.
    """
    try:
        value = int(requested)
    except (TypeError, ValueError):
        return DEFAULT_CHUNK_BYTES
    return max(MIN_CHUNK_BYTES, min(value, MAX_PAYLOAD_BYTES))


class FrameType(enum.IntEnum):
    """Every message the protocol knows."""

    HELLO = 1  # client → server: {"version": int}
    WELCOME = 2  # server → client: {"version": int, "site": str}
    REJECT = 3  # server → client: {"reason": str} (connection closes)
    PING = 4  # health check: {}
    PONG = 5  # {"site": str, "queries_executed": int, ...}
    EXECUTE = 6  # {"query", ExecOptions keys that are set...}
    RESULT = 7  # {"result_text" | "result_bytes", "elapsed_seconds", stats...}
    ERROR = 8  # {"error_type": str, "message": str}
    CREATE_COLLECTION = 9  # {"collection": str}
    STORE_DOCUMENT = 10  # {"collection", "document", "name"?, "origin"?}
    DOCUMENT_COUNT = 11  # {"collection": str}
    COLLECTION_BYTES = 12  # {"collection": str}
    STATS = 13  # {} → OK with the server's cumulative wire/query stats
    SHUTDOWN = 14  # {} → OK, then the server drains and exits
    OK = 15  # generic success reply, payload depends on the request
    RESULT_CHUNK = 16  # raw bytes: one slice of a chunked answer
    # Coordinator frames (client ↔ repro.coordinate service). A QUERY is
    # answered by exactly one QUERY_RESULT or QUERY_ERROR carrying the
    # same request id, framed by reply_frames as a site's RESULT is.
    # Replies to *different* request ids may interleave on one
    # connection — the request id is the multiplexing key.
    QUERY = 18  # {"query", "collection"?, "deadline_seconds"?}
    QUERY_RESULT = 19  # {"result_text" | "result_bytes", serving stats...}
    QUERY_ERROR = 20  # {"error_type", "message", "shed": bool}
    # Rebalancing frames (client ↔ repro.coordinate service), both
    # answered by OK or ERROR. ADVISE mines the coordinator's query log
    # for ranked RebalanceActions; REBALANCE applies one online (the
    # advisor's top action when the payload names none).
    ADVISE = 21  # {"collection"?, "top"?}
    REBALANCE = 22  # {"collection"?, "action"?: RebalanceAction dict}
    # Site frame: delete every document of a stored collection whose name
    # is not listed (a republish retiring what it did not overwrite).
    # Answered by OK.
    RETAIN_DOCUMENTS = 23  # {"collection": str, "keep": [str]}


#: Frame types whose payload is raw bytes, not a JSON object.
RAW_PAYLOAD_TYPES = frozenset({FrameType.RESULT_CHUNK})


@dataclass(frozen=True)
class Frame:
    """One decoded protocol frame.

    ``payload`` carries the JSON object of every ordinary frame;
    ``raw`` carries the byte slice of a :data:`RAW_PAYLOAD_TYPES` frame
    (whose ``payload`` stays ``{}``).
    """

    type: FrameType
    request_id: int = 0
    payload: dict = field(default_factory=dict)
    version: int = PROTOCOL_VERSION
    raw: bytes = b""


def answer_hello(hello: Frame, site: str) -> tuple[Frame, Optional[int]]:
    """The accepting side's handshake decision, shared by the threaded
    site server and the asyncio coordinator.

    Given a connection's first frame, returns ``(reply, chunk_bytes)``:
    a WELCOME and the negotiated chunk size when the peer sent a
    HELLO of this protocol version, else a REJECT and ``None`` — the
    caller sends the reply either way and closes the connection on
    ``None``. Pure: no I/O, so both servers decide identically.
    """
    version = hello.payload.get("version", hello.version)
    if hello.type is not FrameType.HELLO:
        reason = f"expected HELLO, got {hello.type.name}"
    elif version != PROTOCOL_VERSION:
        reason = (
            f"protocol version mismatch: server speaks {PROTOCOL_VERSION},"
            f" client sent {version}"
        )
    else:
        # A missing proposal negotiates to the default size.
        chunk_bytes = negotiate_chunk_bytes(hello.payload.get("chunk_bytes"))
        welcome = {
            "version": PROTOCOL_VERSION,
            "site": site,
            "chunk_bytes": chunk_bytes,
        }
        return Frame(FrameType.WELCOME, hello.request_id, welcome), chunk_bytes
    return Frame(FrameType.REJECT, hello.request_id, {"reason": reason}), None


def reply_frames(
    terminal: FrameType, request_id: int, answer: dict, chunk_bytes: int
) -> Iterator[Frame]:
    """The one reply rule, shared by the threaded site server
    (``terminal`` RESULT) and the asyncio coordinator (QUERY_RESULT).

    ``answer`` is the terminal payload with both ``result_text`` and its
    UTF-8 size ``result_bytes``. An answer shorter than the connection's
    ``chunk_bytes`` and within :data:`MAX_INLINE_RESULT_BYTES` is one
    terminal frame carrying the text; any other is ``RESULT_CHUNK``
    slices of its UTF-8 bytes, then the terminal frame carrying
    ``result_bytes`` instead. Pure: no I/O, so both servers decide
    identically; the caller sends each frame as it is yielded.
    """
    size = answer["result_bytes"]
    inline = size < chunk_bytes and size <= MAX_INLINE_RESULT_BYTES
    dropped = "result_bytes" if inline else "result_text"
    if not inline:
        data = answer["result_text"].encode("utf-8")
        for start in range(0, len(data), chunk_bytes):
            yield Frame(
                FrameType.RESULT_CHUNK,
                request_id,
                raw=data[start:start + chunk_bytes],
            )
    payload = {key: value for key, value in answer.items() if key != dropped}
    yield Frame(terminal, request_id, payload)


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to its wire form (header + payload).

    The payload is the JSON object ``frame.payload`` for ordinary
    frames, and ``frame.raw`` verbatim for raw-payload frames.
    """
    if frame.type in RAW_PAYLOAD_TYPES:
        body = frame.raw
    else:
        body = json.dumps(frame.payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"refusing to encode oversized frame: payload is {len(body)}"
            f" bytes (limit {MAX_PAYLOAD_BYTES})"
        )
    header = _HEADER.pack(
        MAGIC, frame.version, int(frame.type), frame.request_id, len(body)
    )
    return header + body


def decode_frame(data: bytes) -> tuple[Frame, int]:
    """Decode one frame from ``data``; returns ``(frame, bytes_consumed)``.

    Raises :class:`ProtocolError` for truncated input, a bad magic, an
    unknown frame type, an oversized payload length, or a payload that is
    not a JSON object.
    """
    if len(data) < HEADER_BYTES:
        raise ProtocolError(
            f"truncated frame header: need {HEADER_BYTES} bytes, got"
            f" {len(data)}"
        )
    magic, version, type_code, request_id, size = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}) — peer is not"
            " speaking the PartiX protocol"
        )
    if size > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame payload length {size} exceeds the"
            f" {MAX_PAYLOAD_BYTES}-byte limit"
        )
    try:
        frame_type = FrameType(type_code)
    except ValueError:
        raise ProtocolError(f"unknown frame type {type_code}") from None
    end = HEADER_BYTES + size
    if len(data) < end:
        raise ProtocolError(
            f"truncated frame payload: header promises {size} bytes, got"
            f" {len(data) - HEADER_BYTES}"
        )
    body = data[HEADER_BYTES:end]
    if frame_type in RAW_PAYLOAD_TYPES:
        return (
            Frame(
                type=frame_type,
                request_id=request_id,
                version=version,
                raw=bytes(body),
            ),
            end,
        )
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"garbage frame payload (not JSON): {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return (
        Frame(
            type=frame_type,
            request_id=request_id,
            payload=payload,
            version=version,
        ),
        end,
    )


# ----------------------------------------------------------------------
# Socket helpers
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, frame: Frame) -> int:
    """Send one frame; returns the number of bytes put on the wire."""
    data = encode_frame(frame)
    sock.sendall(data)
    return len(data)


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes into one pre-sized buffer.

    A single ``bytearray`` is allocated up front and filled through
    ``recv_into`` — no per-read chunk objects, no final join — so a large
    payload is received with one allocation instead of O(reads) copies.
    """
    buffer = bytearray(count)
    view = memoryview(buffer)
    received = 0
    while received < count:
        read = sock.recv_into(view[received:])
        if read == 0:
            raise ProtocolError(
                f"connection closed mid-frame ({received} of"
                f" {count} bytes read)"
            )
        received += read
    return bytes(buffer)


def recv_frame(sock: socket.socket) -> tuple[Frame, int]:
    """Read one frame off a socket; returns ``(frame, bytes_received)``.

    The header is read first and validated, so a corrupt length prefix is
    caught before any payload allocation.
    """
    header = _recv_exactly(sock, HEADER_BYTES)
    magic, version, type_code, request_id, size = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}) — peer is not"
            " speaking the PartiX protocol"
        )
    if size > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame payload length {size} exceeds the"
            f" {MAX_PAYLOAD_BYTES}-byte limit"
        )
    body = _recv_exactly(sock, size) if size else b""
    frame, _ = decode_frame(header + body)
    return frame, HEADER_BYTES + size


# ----------------------------------------------------------------------
# asyncio helpers (the coordinator's reactor reads frames off
# StreamReaders; same validation as the socket path)
# ----------------------------------------------------------------------
async def read_frame_async(reader) -> tuple[Frame, int]:
    """Read one frame off an ``asyncio.StreamReader``.

    Returns ``(frame, bytes_received)``; mirrors :func:`recv_frame`,
    including the header-before-payload validation, and maps a mid-frame
    EOF to the same :class:`ProtocolError` message so connection-closed
    handling is shared between the threaded and async paths.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of"
            f" {HEADER_BYTES} bytes read)"
        ) from None
    magic, version, type_code, request_id, size = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}) — peer is not"
            " speaking the PartiX protocol"
        )
    if size > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame payload length {size} exceeds the"
            f" {MAX_PAYLOAD_BYTES}-byte limit"
        )
    if size:
        try:
            body = await reader.readexactly(size)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(
                f"connection closed mid-frame ({len(exc.partial)} of"
                f" {size} bytes read)"
            ) from None
    else:
        body = b""
    frame, _ = decode_frame(header + body)
    return frame, HEADER_BYTES + size


def frame_size_bucket(total_bytes: int) -> str:
    """Histogram bucket label for one frame's total size on the wire.

    Power-of-two buckets from 64 bytes up to the payload ceiling; used by
    the server's wire stats so chunk-size tuning can be audited from the
    frame-size distribution.
    """
    size = 64
    while total_bytes > size and size < MAX_PAYLOAD_BYTES:
        size *= 2
    return f"<={size}B"


# ----------------------------------------------------------------------
# Error mapping (ERROR frames ↔ exceptions)
# ----------------------------------------------------------------------
def exception_to_payload(error: BaseException) -> dict:
    """The ERROR-frame payload describing ``error``."""
    return {"error_type": type(error).__name__, "message": str(error)}


def payload_to_exception(payload: dict) -> Exception:
    """Rebuild the exception an ERROR frame describes.

    Classes are resolved by name from :mod:`repro.errors` first, then
    from builtins, so a remote ``CollectionNotFoundError`` raises a local
    ``CollectionNotFoundError`` — execution errors stay symmetric across
    transports. Unknown or unreconstructable classes degrade to
    :class:`RemoteExecutionError` (still a clear failure, just untyped).
    """
    import repro.errors as error_module

    name = payload.get("error_type", "")
    message = payload.get("message", "")
    for namespace in (error_module, builtins):
        candidate = getattr(namespace, name, None)
        if isinstance(candidate, type) and issubclass(candidate, Exception):
            try:
                return candidate(message)
            except TypeError:
                # Constructor needs more than a message (e.g.
                # CorrectnessViolation); fall through to the generic class.
                break
    return RemoteExecutionError(f"{name or 'unknown error'}: {message}")
