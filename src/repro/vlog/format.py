"""Value-log on-disk format.

Value logs are numbered append-only files named ``VLOG-%06d``.  Each record
is one WAL-style CRC frame::

    [crc32c of payload : fixed32][payload length : varint][payload]
    payload = [key : lp][value]

The key rides along so garbage collection can re-point a live record
through the normal write path without consulting the LSM first.

When ``Options.kv_separation`` is on, every value the LSM (and WAL) stores
carries a one-byte tag:

* ``TAG_INLINE`` (0x00) — the raw value follows (below the separation
  threshold);
* ``TAG_POINTER`` (0x01) — a fixed 16-byte pointer follows:
  ``[file number : fixed32][frame offset : fixed64][frame length : fixed32]``.

A pointer addresses the *whole frame* (header included), so resolution is
one ranged read + one CRC check, and a dead frame's byte cost is exactly
``pointer.length``.  With separation off, stored values are raw bytes —
the default mode stays bit-identical.

Decoders here follow the repo-wide corruption contract: any damaged input
raises :class:`~repro.errors.CorruptionError`; nothing ever reads past a
frame's declared extent.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..encoding import (
    BufferWriter,
    crc32c,
    decode_fixed32,
    decode_fixed64,
    decode_varint,
    get_length_prefixed,
)
from ..errors import CorruptionError

TAG_INLINE = 0x00
TAG_POINTER = 0x01

_TAG_INLINE_BYTE = bytes((TAG_INLINE,))
_TAG_POINTER_BYTE = bytes((TAG_POINTER,))

#: Serialized size of a wrapped pointer: tag + fixed32 + fixed64 + fixed32.
POINTER_SIZE = 17

#: Frame header floor: crc fixed32 + at least one varint length byte.
_MIN_FRAME = 5


def vlog_file_name(number: int) -> str:
    """The on-disk name of value-log file ``number``."""
    return f"VLOG-{number:06d}"


def parse_vlog_file_name(name: str) -> int | None:
    """The file number of a ``VLOG-%06d`` name, or None for other files."""
    if not name.startswith("VLOG-"):
        return None
    try:
        return int(name[5:])
    except ValueError:
        return None


@dataclass(frozen=True)
class ValuePointer:
    """Address of one vlog frame: ``(file, offset, length)`` — fixed size."""

    file_number: int
    offset: int
    length: int


def encode_pointer(file_number: int, offset: int, length: int) -> bytes:
    """Serialize a pointer as the tagged 17-byte stored-value form."""
    writer = BufferWriter()
    writer.append(_TAG_POINTER_BYTE)
    writer.fixed32(file_number)
    writer.fixed64(offset)
    writer.fixed32(length)
    return writer.getvalue()


def decode_pointer(stored: bytes) -> ValuePointer:
    """Parse a tagged stored value known to be a pointer."""
    if len(stored) != POINTER_SIZE:
        raise CorruptionError(
            f"value pointer is {len(stored)} bytes, expected {POINTER_SIZE}"
        )
    if stored[0] != TAG_POINTER:
        raise CorruptionError(f"bad value pointer tag {stored[0]}")
    return ValuePointer(
        decode_fixed32(stored, 1),
        decode_fixed64(stored, 5),
        decode_fixed32(stored, 13),
    )


def is_pointer(stored: bytes) -> bool:
    """True when a tagged stored value is a vlog pointer."""
    return len(stored) == POINTER_SIZE and stored[0] == TAG_POINTER


def wrap_inline(value: bytes) -> bytes:
    """Tag a below-threshold value for inline storage."""
    return _TAG_INLINE_BYTE + value


def stored_size_bound(payload_bytes: int, entries: int) -> int:
    """Upper bound on the key + value bytes of ``entries`` operations once
    their values are in stored form: a value gains its inline tag or is
    replaced by a pointer, at most ``POINTER_SIZE`` more either way."""
    return payload_bytes + entries * POINTER_SIZE


def unwrap_inline(stored: bytes) -> bytes:
    """Strip the inline tag from a tagged stored value."""
    if not stored or stored[0] != TAG_INLINE:
        raise CorruptionError("stored value is not inline-tagged")
    return stored[1:]


def encode_record(key: bytes, value: bytes) -> bytes:
    """Frame one ``(key, value)`` record for appending to a vlog file."""
    payload = BufferWriter()
    payload.length_prefixed(key)
    payload.append(value)
    body = payload.getvalue()
    frame = BufferWriter()
    frame.fixed32(crc32c(body))
    frame.varint(len(body))
    frame.append(body)
    return frame.getvalue()


def decode_record(data: bytes, offset: int = 0) -> tuple[bytes, bytes, int]:
    """Decode the frame at ``offset``; returns ``(key, value, end_offset)``.

    Strict: a torn header, short payload, or checksum mismatch raises
    :class:`CorruptionError`.  Never inspects bytes past the frame's
    declared end.
    """
    if offset + _MIN_FRAME > len(data):
        raise CorruptionError("vlog frame header truncated")
    expected = decode_fixed32(data, offset)
    length, pos = decode_varint(data, offset + 4)
    end = pos + length
    if end > len(data):
        raise CorruptionError("vlog frame payload truncated")
    payload = data[pos:end]
    if crc32c(payload) != expected:
        raise CorruptionError("vlog frame checksum mismatch")
    key, value_pos = get_length_prefixed(payload, 0)
    return key, payload[value_pos:], end


def salvage_scan(data: bytes) -> tuple[list[tuple[int, int, bytes, bytes]], int]:
    """Tolerant scan of a whole vlog file image.

    Returns ``(records, intact_length)`` where each record is
    ``(frame_offset, frame_length, key, value)`` and ``intact_length`` is
    the byte offset of the first torn or corrupt frame (== ``len(data)``
    when the file is clean).  Recovery truncates the file there: every
    frame past the first bad one is unreachable garbage — a durable WAL
    pointer always addresses a fully synced frame, and frames are synced
    in order.
    """
    records: list[tuple[int, int, bytes, bytes]] = []
    offset = 0
    size = len(data)
    while offset < size:
        try:
            key, value, end = decode_record(data, offset)
        except CorruptionError:
            break
        records.append((offset, end - offset, key, value))
        offset = end
    return records, offset
