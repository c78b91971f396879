"""Filter blobs: table-based and block-based bloom filter policies.

The paper's Fig 15 distinguishes two placements:

* **Block-based** (LevelDB 1.20): one small filter per data block plus a
  per-block offset map — higher memory, checked after the index narrows to a
  candidate block.
* **Table-based** (RocksDB, L2SM, BlockDB): one filter over every user key
  in the SSTable, checked before touching the index.  BlockDB additionally
  uses the reserved-bits variant so appends don't force rebuilds.

Both serialize into one *filter blob* per table section.
"""

from __future__ import annotations

from zlib import crc32

from ..bloom import BloomFilter, ReservedBloomFilter, build_filter
from ..bloom.bloom import _SALT1, _SALT2
from ..encoding import decode_varint, encode_varint
from ..errors import CorruptionError

MODE_TABLE = 1
MODE_BLOCK = 2

#: Binary digits to the byte table's flags: ``b"0"`` -> 0, ``b"1"`` -> 1.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class TableFilter:
    """One bloom filter covering every user key of the table.

    A check probes a *byte table* — one byte, 0 or 1, per filter bit —
    rather than the bit array: ``flags[pos]`` instead of a shift, a mask
    and an ``&`` per probe.  It is built from the bit array at the first
    check, so a table that is never read never holds it; the bloom it is
    built from is never mutated once wrapped (an append that absorbs keys
    wraps a copy), so one build serves the filter's lifetime.  Neither the
    filter's bytes nor its memory charge include it."""

    mode = MODE_TABLE

    def __init__(self, bloom: BloomFilter):
        self.bloom = bloom
        #: ``(flags, num_bits, num_probes)`` once a check has built it.
        self._probe_table: tuple[bytes, int, int] | None = None

    def _build_probe_table(self) -> tuple[bytes, int, int]:
        """Bit ``i`` of the bit array (byte ``i >> 3``, bit ``i & 7``) as
        byte ``i`` of ``flags``, in three C-level passes: the array as one
        little-endian integer, its binary digits reversed to put bit 0
        first, the digits translated to bytes 0 and 1.  A racing double
        build is benign: both threads derive the same table."""
        bloom = self.bloom
        nbits = bloom.num_bits
        digits = format(int.from_bytes(bloom._bits, "little"), "b")[::-1]
        flags = digits.encode("ascii").translate(_DIGIT_FLAGS).ljust(nbits, b"\0")
        table = (flags, nbits, bloom.num_probes)
        self._probe_table = table
        return table

    def may_contain(self, user_key: bytes, key_hash: tuple[int, int] | None = None) -> bool:
        """``key_hash``: the lookup's ``_hash_pair(user_key)``, computed
        once for every filter it asks; derived here when absent.

        The probe loop is ``BloomFilter.may_contain``'s over the byte
        table — the same positions, ``(h1 + i*h2 mod 2**32) mod
        num_bits`` — and, like the hash, written out here so that a check
        is this one frame."""
        flags, nbits, num_probes = self._probe_table or self._build_probe_table()
        if key_hash:
            h1, h2 = key_hash
        else:
            # _hash_pair, inlined.
            h1 = crc32(user_key)
            h2 = crc32(_SALT1 + user_key + _SALT2) or 0x5BD1E995
        for h in range(h1, h1 + num_probes * h2, h2):
            if not flags[(h & 0xFFFFFFFF) % nbits]:
                return False
        return True

    def may_contain_in_block(
        self, block_offset: int, user_key: bytes, key_hash: tuple[int, int] | None = None
    ) -> bool:
        """Table filters carry no per-block information."""
        return True

    def memory_bytes(self) -> int:
        return self.bloom.memory_bytes()

    def serialize(self) -> bytes:
        blob = self.bloom.serialize()
        return bytes([MODE_TABLE]) + encode_varint(len(blob)) + blob

    @property
    def is_appendable(self) -> bool:
        return isinstance(self.bloom, ReservedBloomFilter)


class BlockFilters:
    """One bloom filter per data block, keyed by block offset."""

    mode = MODE_BLOCK

    def __init__(self, per_block: dict[int, BloomFilter]):
        self.per_block = per_block

    def may_contain(self, user_key: bytes, key_hash: tuple[int, int] | None = None) -> bool:
        """No whole-table filter exists; cannot prune at table granularity."""
        return True

    def may_contain_in_block(
        self, block_offset: int, user_key: bytes, key_hash: tuple[int, int] | None = None
    ) -> bool:
        bloom = self.per_block.get(block_offset)
        if bloom is None:
            return True
        return bloom.may_contain(user_key, key_hash)

    def memory_bytes(self) -> int:
        """Bit arrays plus an 8-byte offset-map entry per block — the
        per-block bookkeeping that makes this policy memory-hungry."""
        return sum(b.memory_bytes() for b in self.per_block.values()) + 8 * len(self.per_block)

    def serialize(self) -> bytes:
        out = bytearray([MODE_BLOCK])
        out += encode_varint(len(self.per_block))
        for offset in sorted(self.per_block):
            blob = self.per_block[offset].serialize()
            out += encode_varint(offset)
            out += encode_varint(len(blob))
            out += blob
        return bytes(out)


Filter = TableFilter | BlockFilters


def deserialize_filter(payload: bytes) -> Filter:
    """Decode a filter blob written by either policy."""
    if not payload:
        raise CorruptionError("empty filter blob")
    mode = payload[0]
    if mode == MODE_TABLE:
        length, offset = decode_varint(payload, 1)
        blob = payload[offset : offset + length]
        if len(blob) != length:
            raise CorruptionError("table filter blob truncated")
        bloom = BloomFilter.deserialize(blob)
        return TableFilter(bloom)
    if mode == MODE_BLOCK:
        count, offset = decode_varint(payload, 1)
        per_block: dict[int, BloomFilter] = {}
        for _ in range(count):
            block_offset, offset = decode_varint(payload, offset)
            length, offset = decode_varint(payload, offset)
            blob = payload[offset : offset + length]
            if len(blob) != length:
                raise CorruptionError("block filter blob truncated")
            offset += length
            per_block[block_offset] = BloomFilter.deserialize(blob)
        return BlockFilters(per_block)
    raise CorruptionError(f"unknown filter mode {mode}")


def build_table_filter(
    user_keys: list[bytes], bits_per_key: int, reserved_fraction: float = 0.0
) -> TableFilter:
    """Build a table-level filter, reserved when ``reserved_fraction > 0``."""
    return TableFilter(build_filter(user_keys, bits_per_key, reserved_fraction))


def build_block_filters(
    keys_per_block: dict[int, list[bytes]], bits_per_key: int
) -> BlockFilters:
    """Build per-block filters from ``block offset -> user keys``."""
    return BlockFilters(
        {offset: build_filter(keys, bits_per_key) for offset, keys in keys_per_block.items()}
    )
