"""Binary encoding primitives shared by the WAL, SSTable, and manifest formats.

The formats follow LevelDB's conventions: little-endian fixed-width integers
and LEB128 varints.  All functions operate on ``bytes`` / ``bytearray`` and
return plain Python ints; offsets are explicit so callers can decode
sequentially without allocating slices.

This module is the bottom of every hot path (see DESIGN.md "Performance"),
so the codecs carry table/``struct``-driven fast paths:

* varints of one byte (the overwhelmingly common case for entry headers)
  encode via a precomputed table and decode with a single index + compare;
* :func:`decode_varint3` batch-decodes the 3-varint data-block entry header
  in one call, saving two function calls per entry;
* :class:`BufferWriter` assembles records into one reusable ``bytearray``
  so builders stop concatenating small ``bytes`` objects.

Every fast path is cross-checked against the frozen reference
implementations in :mod:`oracle.reference` by the property tests.
"""

from __future__ import annotations

import struct
from zlib import crc32 as _zlib_crc32

from .errors import CorruptionError

_FIXED32 = struct.Struct("<I")
_FIXED64 = struct.Struct("<Q")

MAX_VARINT32_BYTES = 5
MAX_VARINT64_BYTES = 10

#: All 128 one-byte varints, precomputed: ``encode_varint(v)`` for small
#: ``v`` is a tuple index instead of a loop + allocation.
_SINGLE_BYTE_VARINTS = tuple(bytes((value,)) for value in range(0x80))

#: All 16256 two-byte varints (values 0x80..0x3FFF), indexed by
#: ``value - 0x80`` — covers block offsets/sizes and most length fields, so
#: nearly every varint the engine writes is a table lookup (~600 KiB once).
_TWO_BYTE_VARINTS = tuple(
    bytes(((value & 0x7F) | 0x80, value >> 7)) for value in range(0x80, 0x4000)
)


def encode_fixed32(value: int) -> bytes:
    """Encode ``value`` as a 4-byte little-endian unsigned integer."""
    return _FIXED32.pack(value & 0xFFFFFFFF)


def decode_fixed32(buf: bytes, offset: int = 0) -> int:
    """Decode a 4-byte little-endian unsigned integer at ``offset``."""
    return _FIXED32.unpack_from(buf, offset)[0]


def encode_fixed64(value: int) -> bytes:
    """Encode ``value`` as an 8-byte little-endian unsigned integer."""
    return _FIXED64.pack(value & 0xFFFFFFFFFFFFFFFF)


def decode_fixed64(buf: bytes, offset: int = 0) -> int:
    """Decode an 8-byte little-endian unsigned integer at ``offset``."""
    return _FIXED64.unpack_from(buf, offset)[0]


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint.

    One- and two-byte values (< 0x4000) short-circuit through precomputed
    tables; three- and four-byte values (block offsets in large files, file
    sizes, sequence numbers) are built directly from shifted byte tuples;
    anything larger sizes the output from ``bit_length`` and fills a
    preallocated buffer instead of growing one byte at a time.
    """
    if 0 <= value < 0x80:
        return _SINGLE_BYTE_VARINTS[value]
    if value < 0:
        raise ValueError(f"varints encode non-negative integers, got {value}")
    if value < 0x4000:
        return _TWO_BYTE_VARINTS[value - 0x80]
    if value < 0x200000:
        return bytes(
            ((value & 0x7F) | 0x80, ((value >> 7) & 0x7F) | 0x80, value >> 14)
        )
    if value < 0x10000000:
        return bytes(
            (
                (value & 0x7F) | 0x80,
                ((value >> 7) & 0x7F) | 0x80,
                ((value >> 14) & 0x7F) | 0x80,
                value >> 21,
            )
        )
    nbytes = (value.bit_length() + 6) // 7
    out = bytearray(nbytes)
    for i in range(nbytes - 1):
        out[i] = (value & 0x7F) | 0x80
        value >>= 7
    out[nbytes - 1] = value
    return bytes(out)


def decode_varint(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``.

    Returns ``(value, next_offset)``.  Raises :class:`CorruptionError` when
    the buffer ends mid-varint or the varint exceeds 64 bits.  The one- to
    three-byte cases (virtually every varint in the formats) return without
    entering the loop.
    """
    try:
        byte = buf[offset]
        if byte < 0x80:
            return byte, offset + 1
        second = buf[offset + 1]
        if second < 0x80:
            return (byte & 0x7F) | (second << 7), offset + 2
        third = buf[offset + 2]
    except IndexError:
        raise CorruptionError("truncated varint") from None
    if third < 0x80:
        return (byte & 0x7F) | ((second & 0x7F) << 7) | (third << 14), offset + 3
    result = (byte & 0x7F) | ((second & 0x7F) << 7) | ((third & 0x7F) << 14)
    shift = 21
    pos = offset + 3
    end = len(buf)
    while pos < end:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CorruptionError("varint too long (more than 64 bits)")
    raise CorruptionError("truncated varint")


def decode_varint3(buf: bytes, offset: int = 0) -> tuple[int, int, int, int]:
    """Batch-decode three consecutive varints at ``offset``.

    This is the shape of every data-block entry header
    (``shared, non_shared, value_len``) and of the index block's per-entry
    geometry triple; returning ``(a, b, c, next_offset)`` from one call
    replaces three function calls on the hottest decode loop.  Error
    behaviour is identical to three sequential :func:`decode_varint` calls.
    """
    try:
        byte = buf[offset]
        if byte < 0x80:
            first = byte
            offset += 1
        else:
            first, offset = decode_varint(buf, offset)
        byte = buf[offset]
        if byte < 0x80:
            second = byte
            offset += 1
        else:
            second, offset = decode_varint(buf, offset)
        byte = buf[offset]
        if byte < 0x80:
            third = byte
            offset += 1
        else:
            third, offset = decode_varint(buf, offset)
    except IndexError:
        raise CorruptionError("truncated varint") from None
    return first, second, third, offset


def put_length_prefixed(out: bytearray, data: bytes) -> None:
    """Append ``data`` to ``out`` preceded by its varint length."""
    length = len(data)
    if length < 0x80:
        out.append(length)
    else:
        out += encode_varint(length)
    out += data


def get_length_prefixed(buf: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Read a varint-length-prefixed slice at ``offset``.

    Returns ``(data, next_offset)``.
    """
    length, pos = decode_varint(buf, offset)
    end = pos + length
    if end > len(buf):
        raise CorruptionError("truncated length-prefixed slice")
    return bytes(buf[pos:end]), end


class BufferWriter:
    """A reusable ``bytearray``-backed record assembler.

    Builders (data blocks, WAL records, manifest edits) used
    to assemble records by concatenating many small ``bytes`` returned from
    the ``encode_*`` helpers; every ``+=`` allocated an intermediate object.
    ``BufferWriter`` appends each field straight into one growing buffer —
    a one-byte varint is a single ``bytearray.append`` — and hands the
    finished record out once via :meth:`getvalue`.  Call :meth:`clear` to
    reuse the buffer for the next record (the WAL writer does, per record).
    """

    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def __len__(self) -> int:
        return len(self.buf)

    def clear(self) -> None:
        """Empty the buffer, keeping its allocation for reuse."""
        del self.buf[:]

    def append(self, data: bytes) -> None:
        """Append raw bytes."""
        self.buf += data

    def varint(self, value: int) -> None:
        """Append a LEB128 varint (single-byte fast path inlined)."""
        if 0 <= value < 0x80:
            self.buf.append(value)
        else:
            self.buf += encode_varint(value)

    def fixed32(self, value: int) -> None:
        """Append a 4-byte little-endian unsigned integer."""
        self.buf += _FIXED32.pack(value & 0xFFFFFFFF)

    def fixed64(self, value: int) -> None:
        """Append an 8-byte little-endian unsigned integer."""
        self.buf += _FIXED64.pack(value & 0xFFFFFFFFFFFFFFFF)

    def length_prefixed(self, data: bytes) -> None:
        """Append ``data`` preceded by its varint length."""
        length = len(data)
        if length < 0x80:
            self.buf.append(length)
        else:
            self.buf += encode_varint(length)
        self.buf += data

    def getvalue(self) -> bytes:
        """The assembled record as immutable ``bytes``."""
        return bytes(self.buf)


def shared_prefix_len(a: bytes, b: bytes) -> int:
    """Return the length of the longest common prefix of ``a`` and ``b``.

    Implemented as one C-speed XOR over the overlapping spans: the first
    set bit of ``a ^ b`` marks the first differing byte, so the whole
    comparison costs two ``int.from_bytes`` conversions instead of a
    Python-level byte loop.
    """
    limit = len(a)
    if limit != len(b):
        limit = min(limit, len(b))
        a = a[:limit]
        b = b[:limit]
    # Equal keys XOR to 0, whose bit_length is 0: the whole span is shared.
    diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return limit - ((diff.bit_length() + 7) >> 3)


def crc32c(data) -> int:
    """A masked CRC-32 used to checksum blocks and log records.

    We use :func:`zlib.crc32` (CRC-32/ISO-HDLC) rather than true CRC-32C —
    the polynomial is irrelevant to the reproduction; what matters is that
    corrupt bytes are detected.  The LevelDB-style mask rotates the value so
    that checksumming data that embeds checksums stays robust.

    Accepts any buffer object (``bytes``, ``bytearray``, ``memoryview``):
    ``zlib.crc32`` runs over the buffer at C speed without copying, which
    is what lets the zero-copy block read path checksum a block's stored
    span in place instead of slicing it out first.
    """
    crc = _zlib_crc32(data) & 0xFFFFFFFF
    return (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF
