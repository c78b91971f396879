"""SSTable file format.

A table file is a sequence of *sections*.  A freshly built table has one
section; every Block Compaction appends another:

::

    [data blocks ...][filter blob][index block][footer]     <- section 0 (build)
    [data blocks ...][filter blob][index block][footer]     <- section 1 (append)
    ...

Both kinds are written by the one
:class:`~repro.sstable.section_writer.SectionWriter` — a build is section 0
with no base reader, an append the next section over the file's live reader
(:class:`~repro.sstable.table_builder.TableBuilder` and
:class:`~repro.sstable.table_appender.AppendSession` are its two front
ends).

Only the **last** footer is live: it points at the latest index block, which
enumerates every *valid* data block (clean blocks from earlier sections by
their original offsets, plus the newly appended blocks).  Data blocks
superseded by an append become obsolete bytes — they stay in the file until
a Table Compaction rewrites it, and are what the paper's space-amplification
figures measure.

Every block (data, filter, index) is stored with a 5-byte trailer:
``[compression type: 1][masked crc32 of payload: 4]``.  Compression is
always ``0`` (the paper disables compression).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..encoding import (
    crc32c,
    decode_fixed32,
    decode_fixed64,
    encode_fixed32,
    encode_fixed64,
)
from ..errors import CorruptionError

TABLE_MAGIC = 0xDB4B10C7C0FFEE01
FOOTER_SIZE = 8 * 6 + 4 + 8  # six fixed64 fields, one fixed32, magic
BLOCK_TRAILER_SIZE = 5
COMPRESSION_NONE = 0
COMPRESSION_ZLIB = 1


@dataclass(frozen=True)
class BlockHandle:
    """Location of a block's payload within the file (trailer excluded)."""

    offset: int
    size: int

    def is_null(self) -> bool:
        return self.size == 0


@dataclass(frozen=True)
class Footer:
    """Trailing metadata of one section."""

    index_handle: BlockHandle
    filter_handle: BlockHandle
    #: Number of live key-value entries reachable through this section's index.
    num_entries: int
    #: Total payload bytes of live data blocks (valid size for Algorithm 4).
    valid_data_bytes: int
    #: 0 for the build section, +1 per append.
    section: int

    def serialize(self) -> bytes:
        """Encode the fixed-width footer record."""
        out = bytearray()
        out += encode_fixed64(self.index_handle.offset)
        out += encode_fixed64(self.index_handle.size)
        out += encode_fixed64(self.filter_handle.offset)
        out += encode_fixed64(self.filter_handle.size)
        out += encode_fixed64(self.num_entries)
        out += encode_fixed64(self.valid_data_bytes)
        out += encode_fixed32(self.section)
        out += encode_fixed64(TABLE_MAGIC)
        assert len(out) == FOOTER_SIZE
        return bytes(out)

    @classmethod
    def deserialize(cls, data: bytes) -> "Footer":
        """Decode and magic-check a footer record."""
        if len(data) != FOOTER_SIZE:
            raise CorruptionError(f"footer must be {FOOTER_SIZE} bytes, got {len(data)}")
        magic = decode_fixed64(data, FOOTER_SIZE - 8)
        if magic != TABLE_MAGIC:
            raise CorruptionError(f"bad table magic {magic:#x}")
        return cls(
            index_handle=BlockHandle(decode_fixed64(data, 0), decode_fixed64(data, 8)),
            filter_handle=BlockHandle(decode_fixed64(data, 16), decode_fixed64(data, 24)),
            num_entries=decode_fixed64(data, 32),
            valid_data_bytes=decode_fixed64(data, 40),
            section=decode_fixed32(data, 48),
        )


def wrap_block(payload: bytes, compression: int = COMPRESSION_NONE) -> bytes:
    """Attach the compression-type + checksum trailer to a block payload.

    With :data:`COMPRESSION_ZLIB`, the stored bytes are the zlib stream and
    the checksum covers the *stored* (compressed) bytes — corruption is
    detected before decompression.  Like LevelDB's snappy policy, a block
    that doesn't shrink is stored uncompressed.
    """
    if compression == COMPRESSION_ZLIB:
        import zlib

        compressed = zlib.compress(payload, level=1)
        if len(compressed) < len(payload):
            return compressed + bytes([COMPRESSION_ZLIB]) + encode_fixed32(crc32c(compressed))
    elif compression != COMPRESSION_NONE:
        raise CorruptionError(f"unsupported compression type {compression}")
    return payload + bytes([COMPRESSION_NONE]) + encode_fixed32(crc32c(payload))


def check_block_trailer(raw: bytes, *, verify_checksum: bool = True) -> int:
    """Validate a stored block's trailer *in place*; return its compression
    type byte.

    This is the zero-copy half of :func:`unwrap_block`: the checksum is
    computed over a :class:`memoryview` of the stored span, so no payload
    bytes are copied.  Callers on the hot read path
    (:func:`repro.sstable.block.parse_block_raw`) decode entries straight
    out of ``raw`` afterwards using explicit bounds instead of slicing the
    payload out.
    """
    if len(raw) < BLOCK_TRAILER_SIZE:
        raise CorruptionError("block shorter than its trailer")
    compression = raw[-BLOCK_TRAILER_SIZE]
    if compression not in (COMPRESSION_NONE, COMPRESSION_ZLIB):
        raise CorruptionError(f"unsupported compression type {compression}")
    if verify_checksum:
        expected = decode_fixed32(raw, len(raw) - 4)
        if crc32c(memoryview(raw)[: len(raw) - BLOCK_TRAILER_SIZE]) != expected:
            raise CorruptionError("block failed checksum")
    return compression


def unwrap_block(raw: bytes, *, verify_checksum: bool = True) -> bytes:
    """Strip and (optionally) verify a block trailer, returning the payload."""
    if len(raw) < BLOCK_TRAILER_SIZE:
        raise CorruptionError("block shorter than its trailer")
    stored = raw[:-BLOCK_TRAILER_SIZE]
    compression = raw[-BLOCK_TRAILER_SIZE]
    if compression not in (COMPRESSION_NONE, COMPRESSION_ZLIB):
        raise CorruptionError(f"unsupported compression type {compression}")
    if verify_checksum:
        expected = decode_fixed32(raw, len(raw) - 4)
        if crc32c(stored) != expected:
            raise CorruptionError("block failed checksum")
    if compression == COMPRESSION_ZLIB:
        import zlib

        try:
            return zlib.decompress(stored)
        except zlib.error as exc:
            raise CorruptionError(f"block failed decompression: {exc}") from exc
    return stored
