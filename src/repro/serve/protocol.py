"""The wire protocol: length-prefixed binary frames.

Request frame::

    [payload length : u32 BE][opcode : u8][payload]

or, with a per-request deadline (the high bit of the opcode byte set)::

    [payload length : u32 BE][opcode|0x80 : u8][deadline_ms : u32 BE][payload]

Response frame::

    [payload length : u32 BE][status : u8][payload]

The length covers opcode/status + payload.  All integers are big-endian.
Payload layouts per opcode are documented on the encode helpers below.

Every opcode is below 0x80, so the deadline flag is backward compatible:
a frame without the flag decodes exactly as it always did, and an encoder
that never passes ``deadline_ms`` emits bit-identical frames to the
pre-deadline protocol.  ``deadline_ms`` is a *relative* budget (maximum
milliseconds the client is willing to wait, measured from the server
receiving the frame) — relative budgets survive clock skew between client
and server, absolute timestamps do not.

The protocol is deliberately minimal — the interesting part is on the
server side: a request runs on the event loop unless the engine would
wait, the ones that would wait share a small thread pool and, there, each
shard's leader/follower group commit (DESIGN.md §7/§12), and admission
control and deadline enforcement keep that pool's queue overload-safe
(DESIGN.md §15).
"""

from __future__ import annotations

import struct

from ..errors import InvalidArgumentError

#: Opcodes.  Must stay below 0x80: the high bit is the deadline flag.
OP_PUT = 0x01
OP_GET = 0x02
OP_DELETE = 0x03
OP_MULTI_GET = 0x04
OP_SCAN = 0x05
OP_BATCH = 0x06
OP_STATS = 0x07
OP_PING = 0x08
OP_HEALTH = 0x09
OP_READY = 0x0A

#: High bit of the request code byte: a u32 deadline (relative budget in
#: milliseconds) follows the opcode.
FLAG_DEADLINE = 0x80

#: Response statuses.
STATUS_OK = 0x00
STATUS_NOT_FOUND = 0x01
#: Permanent failure: retrying the same request will not help.
STATUS_ERROR = 0x02
#: The request's deadline budget expired before (or while) the engine ran
#: it; the server refused to do late work.  Retrying spends a new budget.
STATUS_DEADLINE_EXCEEDED = 0x03
#: The server shed the request (admission control, stall pressure, drain,
#: or a transient engine fault).  Payload carries a server-suggested
#: backoff hint (see :func:`encode_retry_hint`); retry after honoring it.
STATUS_RETRY_LATER = 0x04
#: The engine is in degraded (read-only) mode: writes are refused until
#: the operator clears the fault and resumes; reads are still served.
STATUS_UNAVAILABLE = 0x05

#: Batch op tags (mirrors WriteBatch's TYPE_VALUE / TYPE_DELETION).
BATCH_PUT = 0x01
BATCH_DELETE = 0x00

#: Hard cap on one frame (16 MiB): a corrupt length prefix must not make
#: the server try to buffer gigabytes.  Enforced on BOTH paths: the read
#: loop rejects oversized request lengths, and :func:`encode_frame` raises
#: before an oversized response (a huge scan / multi_get result) is ever
#: framed — the server maps that to a structured ``STATUS_ERROR`` instead
#: of emitting an unframeable reply.
MAX_FRAME = 16 * 1024 * 1024

_U32 = struct.Struct(">I")


class ProtocolError(Exception):
    """Malformed frame (bad length, short payload, unknown opcode)."""


def _lp(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def _read_lp(payload: bytes, offset: int) -> tuple[bytes, int]:
    if offset + 4 > len(payload):
        raise ProtocolError("truncated length prefix")
    (length,) = _U32.unpack_from(payload, offset)
    offset += 4
    if offset + length > len(payload):
        raise ProtocolError("truncated field")
    return payload[offset : offset + length], offset + length


def encode_frame(code: int, payload: bytes = b"", deadline_ms: int | None = None) -> bytes:
    """One wire frame (request or response — the layout is shared).

    ``deadline_ms`` (requests only) rides behind the code byte with the
    high bit set; ``None`` emits the flagless pre-deadline layout,
    bit-identical to the original protocol.
    """
    if deadline_ms is None:
        body = bytes([code]) + payload
    else:
        if not 0 <= deadline_ms <= 0xFFFFFFFF:
            raise ProtocolError(f"deadline_ms out of range: {deadline_ms}")
        body = bytes([code | FLAG_DEADLINE]) + _U32.pack(deadline_ms) + payload
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame too large: {len(body)} bytes")
    return _U32.pack(len(body)) + body


def decode_body(body: bytes) -> tuple[int, bytes]:
    """Split a received frame body into (code, payload).

    Response-side decoder: statuses never carry the deadline flag.  For
    request bodies use :func:`decode_request`, which strips the flag.
    """
    if not body:
        raise ProtocolError("empty frame body")
    return body[0], body[1:]


def decode_request(body: bytes) -> tuple[int, bytes, int | None]:
    """Split a request frame body into (opcode, payload, deadline_ms).

    A flagless body (the pre-deadline protocol) decodes with
    ``deadline_ms=None`` — old clients keep working unchanged.
    """
    if not body:
        raise ProtocolError("empty frame body")
    code = body[0]
    if not code & FLAG_DEADLINE:
        return code, body[1:], None
    if len(body) < 5:
        raise ProtocolError("truncated deadline field")
    (deadline_ms,) = _U32.unpack_from(body, 1)
    return code & ~FLAG_DEADLINE, body[5:], deadline_ms


# -- request payloads ------------------------------------------------------

def encode_put(key: bytes, value: bytes, deadline_ms: int | None = None) -> bytes:
    """``[klen u32][key][value]`` (value runs to the end of the frame)."""
    return encode_frame(OP_PUT, _lp(key) + value, deadline_ms)


def decode_put(payload: bytes) -> tuple[bytes, bytes]:
    key, offset = _read_lp(payload, 0)
    return key, payload[offset:]


def encode_get(key: bytes, deadline_ms: int | None = None) -> bytes:
    return encode_frame(OP_GET, key, deadline_ms)


def encode_delete(key: bytes, deadline_ms: int | None = None) -> bytes:
    return encode_frame(OP_DELETE, key, deadline_ms)


def encode_multi_get(keys: list[bytes], deadline_ms: int | None = None) -> bytes:
    """``[count u32]([klen u32][key])*``"""
    out = bytearray(_U32.pack(len(keys)))
    for key in keys:
        out += _lp(key)
    return encode_frame(OP_MULTI_GET, bytes(out), deadline_ms)


def decode_multi_get(payload: bytes) -> list[bytes]:
    (count,) = _U32.unpack_from(payload, 0)
    offset = 4
    keys = []
    for _ in range(count):
        key, offset = _read_lp(payload, offset)
        keys.append(key)
    return keys


def encode_scan(
    start: bytes | None, end: bytes | None, limit: int | None,
    deadline_ms: int | None = None,
) -> bytes:
    """``[flags u8][start lp?][end lp?][limit u32?]`` — flag bits 0/1/2 mark
    which of start/end/limit are present.  ``limit`` as for ``DB.scan``
    (0 asks for nothing); a negative one is refused here, before it would
    fail to pack."""
    if limit is not None and limit < 0:
        raise InvalidArgumentError(f"scan limit must be >= 0, got {limit}")
    flags = (
        (1 if start is not None else 0)
        | (2 if end is not None else 0)
        | (4 if limit is not None else 0)
    )
    out = bytearray([flags])
    if start is not None:
        out += _lp(start)
    if end is not None:
        out += _lp(end)
    if limit is not None:
        out += _U32.pack(limit)
    return encode_frame(OP_SCAN, bytes(out), deadline_ms)


def decode_scan(payload: bytes) -> tuple[bytes | None, bytes | None, int | None]:
    """Inverse of :func:`encode_scan`; absent fields come back ``None``."""
    if not payload:
        raise ProtocolError("empty scan payload")
    flags = payload[0]
    offset = 1
    start = end = limit = None
    if flags & 1:
        start, offset = _read_lp(payload, offset)
    if flags & 2:
        end, offset = _read_lp(payload, offset)
    if flags & 4:
        if offset + 4 > len(payload):
            raise ProtocolError("truncated scan limit")
        (limit,) = _U32.unpack_from(payload, offset)
    return start, end, limit


def encode_batch(
    ops: list[tuple[int, bytes, bytes]], deadline_ms: int | None = None
) -> bytes:
    """``[count u32]([tag u8][klen u32][key]([vlen u32][value] if put))*``"""
    out = bytearray(_U32.pack(len(ops)))
    for tag, key, value in ops:
        out.append(tag)
        out += _lp(key)
        if tag == BATCH_PUT:
            out += _lp(value)
    return encode_frame(OP_BATCH, bytes(out), deadline_ms)


def decode_batch(payload: bytes) -> list[tuple[int, bytes, bytes]]:
    """Inverse of :func:`encode_batch`; deletes carry an empty value."""
    (count,) = _U32.unpack_from(payload, 0)
    offset = 4
    ops: list[tuple[int, bytes, bytes]] = []
    for _ in range(count):
        if offset >= len(payload):
            raise ProtocolError("truncated batch")
        tag = payload[offset]
        offset += 1
        key, offset = _read_lp(payload, offset)
        value = b""
        if tag == BATCH_PUT:
            value, offset = _read_lp(payload, offset)
        elif tag != BATCH_DELETE:
            raise ProtocolError(f"unknown batch tag {tag}")
        ops.append((tag, key, value))
    return ops


# -- response payloads -----------------------------------------------------

def encode_values(values: list[bytes | None]) -> bytes:
    """MULTI_GET response: ``[count u32]([found u8][vlen u32][value]?)*``"""
    out = bytearray(_U32.pack(len(values)))
    for value in values:
        if value is None:
            out.append(0)
        else:
            out.append(1)
            out += _lp(value)
    return bytes(out)


def decode_values(payload: bytes) -> list[bytes | None]:
    """Inverse of :func:`encode_values`; misses come back ``None``."""
    (count,) = _U32.unpack_from(payload, 0)
    offset = 4
    values: list[bytes | None] = []
    for _ in range(count):
        if offset >= len(payload):
            raise ProtocolError("truncated values")
        found = payload[offset]
        offset += 1
        if found:
            value, offset = _read_lp(payload, offset)
            values.append(value)
        else:
            values.append(None)
    return values


def encode_entries(entries: list[tuple[bytes, bytes]]) -> bytes:
    """SCAN response: ``[count u32]([klen][key][vlen][value])*``"""
    out = bytearray(_U32.pack(len(entries)))
    for key, value in entries:
        out += _lp(key)
        out += _lp(value)
    return bytes(out)


def decode_entries(payload: bytes) -> list[tuple[bytes, bytes]]:
    (count,) = _U32.unpack_from(payload, 0)
    offset = 4
    entries = []
    for _ in range(count):
        key, offset = _read_lp(payload, offset)
        value, offset = _read_lp(payload, offset)
        entries.append((key, value))
    return entries


def encode_retry_hint(retry_after_ms: int, message: str = "") -> bytes:
    """STATUS_RETRY_LATER payload: ``[retry_after_ms u32][message utf-8]``.

    The hint is the server's view of when capacity is likely back (queue
    depth, stall state); a well-behaved client waits at least this long
    before retrying, on top of its own jittered backoff.
    """
    return _U32.pack(max(0, min(retry_after_ms, 0xFFFFFFFF))) + message.encode("utf-8")


def decode_retry_hint(payload: bytes) -> tuple[int, str]:
    """Inverse of :func:`encode_retry_hint`.

    Tolerates an empty payload (no hint: 0 ms) so a bare RETRY_LATER
    status stays decodable.
    """
    if len(payload) < 4:
        return 0, payload.decode("utf-8", "replace")
    (retry_after_ms,) = _U32.unpack_from(payload, 0)
    return retry_after_ms, payload[4:].decode("utf-8", "replace")
