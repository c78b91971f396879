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
``[compression type: 1][masked crc32 of payload: 4]``.  The type byte is
always :data:`COMPRESSION_NONE` (the paper disables compression, and the
engine has no codec); any other value is a :class:`CorruptionError`.
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


def wrap_block(payload: bytes) -> bytes:
    """Attach the compression-type + checksum trailer to a block payload."""
    return payload + bytes([COMPRESSION_NONE]) + encode_fixed32(crc32c(payload))


def _check_type(raw: bytes) -> None:
    """Reject a block shorter than its trailer, or whose type byte is not 0."""
    if len(raw) < BLOCK_TRAILER_SIZE:
        raise CorruptionError("block shorter than its trailer")
    compression = raw[-BLOCK_TRAILER_SIZE]
    if compression != COMPRESSION_NONE:
        raise CorruptionError(f"unsupported compression type {compression}")


def check_block_trailer(raw: bytes) -> None:
    """Validate a stored block's trailer *in place*.

    This is the zero-copy half of :func:`unwrap_block`: the checksum is
    computed over a :class:`memoryview` of the stored span, so no payload
    bytes are copied.  Callers on the hot read path
    (:func:`repro.sstable.block.parse_block_raw`) decode entries straight
    out of ``raw`` afterwards using explicit bounds instead of slicing the
    payload out.
    """
    _check_type(raw)
    expected = decode_fixed32(raw, len(raw) - 4)
    if crc32c(memoryview(raw)[: len(raw) - BLOCK_TRAILER_SIZE]) != expected:
        raise CorruptionError("block failed checksum")


def unwrap_block(raw: bytes, *, verify_checksum: bool = True) -> bytes:
    """Strip and (optionally) verify a block trailer, returning the payload."""
    _check_type(raw)
    payload = raw[:-BLOCK_TRAILER_SIZE]
    if verify_checksum and crc32c(payload) != decode_fixed32(raw, len(raw) - 4):
        raise CorruptionError("block failed checksum")
    return payload
