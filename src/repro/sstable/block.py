"""Parsed data block: decoding and search.

A parsed block is the in-memory form of one data-block payload and is what
the block cache stores.  Two forms exist:

* :class:`DataBlock` — eagerly decoded into parallel entry lists, searched
  with :mod:`bisect`.  Scans and compactions read (and scans cache) this
  form: they touch every entry anyway, so the restart table, restart-key
  list and region cache of the lazy form would be built for nothing.
* :class:`LazyDataBlock` — keeps the raw payload and the restart array and
  decodes *one restart region* on demand: ``get()`` binary-searches the
  restart keys (decoded lazily, then cached) and materializes only the
  region it bisects into.  Point lookups decode ~``restart_interval``
  entries instead of the whole block, and the block cache stores these
  cheap partially-decoded blocks; a later scan hitting the cached block
  materializes it fully, once.  A block with a single restart point is one
  region, so :func:`parse_block_raw` decodes it eagerly even when asked for
  the lazy form.

Both forms charge the cache by serialized payload size, so cache hit/miss
and eviction behaviour — everything the paper's Fig 14 measures — is
bit-identical whichever form is cached.  The decode loop is the engine's
hottest path; it runs over locally-bound buffers with the 3-varint entry
header decoded inline (see :mod:`repro.encoding`).

Both parsers take an explicit ``payload_len`` bound, which is what makes
the zero-copy read path (:func:`parse_block_raw`) possible: a stored block
is ``payload + 5-byte trailer``, and rather than slicing the payload out
(one full copy) and checksumming the slice (historically a second copy),
the reader verifies the trailer over a ``memoryview`` and parses entries
straight out of the *raw* bytes with ``payload_len = len(raw) - 5`` — the
trailer is simply never read.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Iterator, Union

from ..encoding import decode_fixed32, decode_varint
from ..errors import CorruptionError
from ..keys import ComparableKey, TYPE_DELETION, TYPE_VALUE
from zlib import crc32 as _zlib_crc32

from .format import BLOCK_TRAILER_SIZE, COMPRESSION_NONE

#: One struct hit decodes a stored block's last 9 bytes: the payload's
#: restart count, then the 5-byte trailer (compression type byte, masked
#: little-endian CRC).
_TAIL_UNPACK = struct.Struct("<IBI").unpack_from

_FIXED64_UNPACK = struct.Struct("<Q").unpack_from
_FIXED64_PACK = struct.Struct("<Q").pack
_INVERT = (1 << 64) - 1


def _parse_header(payload: bytes, payload_len: int) -> int:
    """Validate the restart trailer; return ``data_end`` (entry bytes).

    ``payload_len`` bounds the payload span within ``payload`` — it equals
    ``len(payload)`` for a bare payload, or ``len(raw) - 5`` when parsing
    in place from a raw stored block.
    """
    if payload_len < 4:
        raise CorruptionError("data block too short")
    num_restarts = decode_fixed32(payload, payload_len - 4)
    data_end = payload_len - 4 - 4 * num_restarts
    if data_end < 0:
        raise CorruptionError("data block restart array overruns payload")
    return data_end


def _parse_entries(
    payload: bytes, offset: int, data_end: int, with_values: bool = True
) -> tuple[list[ComparableKey], list[bytes]]:
    """Fused decode of the entry span ``[offset, data_end)``.

    ``with_values=False`` leaves the value list empty: a caller that wants
    only the keys (a filter rebuild) does not pay a copy of every value.

    The 3-varint header, prefix-compressed key reconstruction, and
    comparable-key conversion are all inlined into one loop.  The full
    internal key is never materialized: the previous key is tracked as its
    ``(user_key, trailer)`` split, so the common case — the shared prefix
    lies within the user key and the 8-byte trailer arrives whole in the
    non-shared suffix — costs three byte reads, one slice or concat for the
    user key, and one ``unpack_from`` for the trailer, with no per-entry
    function calls.  The rare overlap case (a key sharing bytes of the
    previous key's trailer) reconstructs via full key bytes.
    """
    keys: list[ComparableKey] = []
    values: list[bytes] = []
    append_key = keys.append
    append_value = values.append
    unpack_trailer = _FIXED64_UNPACK
    pack_trailer = _FIXED64_PACK
    invert = _INVERT
    buf = payload
    prev_user = b""
    prev_ulen = 0
    prev_len = 0
    prev_trailer = 0
    while offset < data_end:
        try:
            byte = buf[offset]
            if byte < 0x80:
                shared = byte
                offset += 1
            else:
                shared, offset = decode_varint(buf, offset)
            byte = buf[offset]
            if byte < 0x80:
                non_shared = byte
                offset += 1
            else:
                non_shared, offset = decode_varint(buf, offset)
            byte = buf[offset]
            if byte < 0x80:
                value_len = byte
                offset += 1
            else:
                # A value of 128 B - 16 KiB has a two-byte length: decoded
                # here, it is the one header field that is routinely long.
                high = buf[offset + 1]
                if high < 0x80:
                    value_len = (byte & 0x7F) | (high << 7)
                    offset += 2
                else:
                    value_len, offset = decode_varint(buf, offset)
        except IndexError:
            raise CorruptionError("truncated varint") from None
        key_end = offset + non_shared
        value_end = key_end + value_len
        if value_end > data_end:
            raise CorruptionError("data block entry overruns payload")
        if non_shared >= 8 and shared <= prev_ulen:
            # Common case: trailer wholly in the suffix, prefix wholly in
            # the previous user key (and the key is necessarily >= 8 bytes).
            user_end = key_end - 8
            if shared:
                user_key = prev_user[:shared] + buf[offset:user_end]
            else:
                user_key = buf[offset:user_end]
            (trailer,) = unpack_trailer(buf, user_end)
            prev_ulen = shared + non_shared - 8
            prev_len = prev_ulen + 8
        else:
            # The common branch implies shared <= prev_ulen < prev_len, so
            # the share-overrun corruption check only needs to live here.
            if shared > prev_len:
                raise CorruptionError(
                    "prefix-compressed key shares more than previous key"
                )
            key_len = shared + non_shared
            if key_len < 8:
                raise CorruptionError(f"internal key too short: {key_len} bytes")
            key = prev_user + pack_trailer(prev_trailer)
            key = key[:shared] + buf[offset:key_end]
            user_key = key[:-8]
            (trailer,) = unpack_trailer(key, key_len - 8)
            prev_ulen = key_len - 8
            prev_len = key_len
        append_key((user_key, invert - trailer))
        if with_values:
            append_value(buf[key_end:value_end])
        prev_user = user_key
        prev_trailer = trailer
        offset = value_end
    return keys, values


def _lookup(
    keys: list[ComparableKey],
    values: list[bytes],
    user_key: bytes,
    snapshot_sequence: int,
) -> tuple[bool, bytes | None]:
    """Shared point-lookup over decoded entry lists.

    The seek key (``keys.seek_comparable``) and the found entry's split
    (``keys.comparable_parts``) are written out here and in
    :meth:`LazyDataBlock.get`: three calls a probe otherwise."""
    idx = bisect_left(keys, (user_key, _INVERT - ((snapshot_sequence << 8) | TYPE_VALUE)))
    if idx >= len(keys):
        return False, None
    found_user_key, inverted = keys[idx]
    if found_user_key != user_key:
        return False, None
    if (_INVERT - inverted) & 0xFF == TYPE_DELETION:
        return True, None
    return True, values[idx]


class DataBlock:
    """Decoded data block: parallel lists of comparable keys and values."""

    __slots__ = ("keys", "values", "serialized_size")

    def __init__(self, keys: list[ComparableKey], values: list[bytes], serialized_size: int):
        self.keys = keys
        self.values = values
        self.serialized_size = serialized_size

    @classmethod
    def parse(cls, payload: bytes, payload_len: int | None = None) -> "DataBlock":
        """Decode a block payload produced by
        :class:`~repro.sstable.block_builder.BlockCutter`.

        ``payload_len`` (default: the whole buffer) bounds the payload span
        so raw stored blocks can be decoded in place without slicing the
        trailer off first.
        """
        if payload_len is None:
            payload_len = len(payload)
        data_end = _parse_header(payload, payload_len)
        keys, values = _parse_entries(payload, 0, data_end)
        return cls(keys, values, payload_len)

    def __len__(self) -> int:
        return len(self.keys)

    def get(self, user_key: bytes, snapshot_sequence: int) -> tuple[bool, bytes | None]:
        """Lookup semantics matching :meth:`MemTable.get`:
        ``(found, value-or-None-for-tombstone)``."""
        return _lookup(self.keys, self.values, user_key, snapshot_sequence)

    def entries(self) -> Iterator[tuple[ComparableKey, bytes]]:
        return zip(self.keys, self.values)

    def entries_from(self, seek: ComparableKey) -> Iterator[tuple[ComparableKey, bytes]]:
        """Entries with comparable key >= ``seek``."""
        idx = bisect_left(self.keys, seek)
        return zip(self.keys[idx:], self.values[idx:])

    def user_keys(self) -> list[bytes]:
        """Distinct-preserving list of user keys (for filter construction)."""
        return [key[0] for key in self.keys]

    def memory_bytes(self) -> int:
        """Charge for cache accounting: the serialized payload size."""
        return self.serialized_size


class LazyDataBlock:
    """Partially-decoded data block: decodes one restart region per lookup.

    Holds the raw payload plus the restart-offset array.  ``get()`` binary-
    searches the restart keys — each decoded once, on first touch — then
    decodes only the region the key bisects into (``restart_interval``
    entries, 16 by default, instead of the whole block).  Any whole-block
    operation (``entries``, ``user_keys``, ``len``) materializes the full
    entry lists once and serves from them afterwards, so a cached lazy
    block promotes itself to the eager form under scan traffic.

    Lazy decode trusts the payload's restart array (the checksum in the
    block trailer has already been verified by the reader); a restart
    entry that is prefix-compressed or out of bounds raises
    :class:`CorruptionError`.
    """

    __slots__ = (
        "payload",
        "serialized_size",
        "_data_end",
        "_restarts",
        "_restart_keys",
        "_regions",
        "_keys",
        "_values",
    )

    def __init__(
        self, payload: bytes, payload_len: int | None = None, num_restarts: int | None = None
    ):
        if payload_len is None:
            payload_len = len(payload)
        if num_restarts is None:  # parse_block_raw passes the count it read
            if payload_len < 4:
                raise CorruptionError("data block too short")
            num_restarts = decode_fixed32(payload, payload_len - 4)
        data_end = payload_len - 4 - 4 * num_restarts
        if data_end < 0:
            raise CorruptionError("data block restart array overruns payload")
        self.payload = payload
        # Cache charge is the *payload* size even when ``payload`` is a raw
        # stored block (5 trailer bytes longer) — the charge must stay
        # bit-identical to the copying path so cache behaviour never shifts.
        self.serialized_size = payload_len
        self._data_end = data_end
        self._restarts: tuple[int, ...] = (
            struct.unpack_from(f"<{num_restarts}I", payload, data_end)
            if num_restarts
            else ()
        )
        self._restart_keys: list[ComparableKey | None] = [None] * num_restarts
        self._regions: dict[int, tuple[list[ComparableKey], list[bytes]]] = {}
        self._keys: list[ComparableKey] | None = None
        self._values: list[bytes] | None = None

    # -- lazy machinery ------------------------------------------------------

    def _restart_key(self, i: int) -> ComparableKey:
        """Comparable key of restart ``i``'s first entry (decoded once)."""
        cached = self._restart_keys[i]
        if cached is not None:
            return cached
        offset = self._restarts[i]
        if not 0 <= offset < self._data_end:
            raise CorruptionError("restart offset out of range")
        shared, offset = decode_varint(self.payload, offset)
        if shared:
            raise CorruptionError("restart entry is prefix-compressed")
        non_shared, offset = decode_varint(self.payload, offset)
        _value_len, offset = decode_varint(self.payload, offset)
        key_end = offset + non_shared
        if non_shared < 8 or key_end > self._data_end:
            raise CorruptionError("restart entry overruns payload")
        key = self.payload[offset:key_end]
        comparable = (key[:-8], _INVERT - _FIXED64_UNPACK(key, non_shared - 8)[0])
        self._restart_keys[i] = comparable
        return comparable

    def _region(self, i: int) -> tuple[list[ComparableKey], list[bytes]]:
        """Decode (and cache) the entries of restart region ``i``."""
        cached = self._regions.get(i)
        if cached is not None:
            return cached
        restarts = self._restarts
        start = restarts[i]
        end = restarts[i + 1] if i + 1 < len(restarts) else self._data_end
        if not 0 <= start <= end <= self._data_end:
            raise CorruptionError("restart offset out of range")
        region = _parse_entries(self.payload, start, end)
        self._regions[i] = region
        return region

    def _materialize(self) -> tuple[list[ComparableKey], list[bytes]]:
        """Decode the whole block once; later calls serve the cached lists."""
        if self._keys is None:
            self._keys, self._values = _parse_entries(self.payload, 0, self._data_end)
        return self._keys, self._values  # type: ignore[return-value]

    # -- DataBlock API -------------------------------------------------------

    @property
    def keys(self) -> list[ComparableKey]:
        return self._materialize()[0]

    @property
    def values(self) -> list[bytes]:
        return self._materialize()[1]

    def __len__(self) -> int:
        return len(self._materialize()[0])

    def get(self, user_key: bytes, snapshot_sequence: int) -> tuple[bool, bytes | None]:
        """Point lookup decoding only the restart region it bisects into."""
        if self._keys is not None:
            return _lookup(self._keys, self._values, user_key, snapshot_sequence)
        if self._data_end == 0 or not self._restarts:
            return False, None
        target = (user_key, _INVERT - ((snapshot_sequence << 8) | TYPE_VALUE))
        # Rightmost region whose first key is <= target; the global first
        # key >= target lives there (or is the next region's first entry).
        lo, hi = 0, len(self._restarts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._restart_key(mid) <= target:
                lo = mid
            else:
                hi = mid - 1
        keys, values = self._region(lo)
        idx = bisect_left(keys, target)
        if idx == len(keys):
            if lo + 1 >= len(self._restarts):
                return False, None
            keys, values = self._region(lo + 1)
            if not keys:
                return False, None
            idx = 0
        found_user_key, inverted = keys[idx]
        if found_user_key != user_key:
            return False, None
        if (_INVERT - inverted) & 0xFF == TYPE_DELETION:
            return True, None
        return True, values[idx]

    def entries(self) -> Iterator[tuple[ComparableKey, bytes]]:
        keys, values = self._materialize()
        return zip(keys, values)

    def entries_from(self, seek: ComparableKey) -> Iterator[tuple[ComparableKey, bytes]]:
        """Entries with comparable key >= ``seek``."""
        keys, values = self._materialize()
        idx = bisect_left(keys, seek)
        return zip(keys[idx:], values[idx:])

    def user_keys(self) -> list[bytes]:
        """Distinct-preserving list of user keys (for filter construction).
        A block nothing has materialized decodes its keys only."""
        keys = self._keys
        if keys is None:
            keys = _parse_entries(self.payload, 0, self._data_end, with_values=False)[0]
        return [key[0] for key in keys]

    def memory_bytes(self) -> int:
        """Charge for cache accounting: the serialized payload size.

        Identical to the eager form's charge, so lazy decode never changes
        cache behaviour.
        """
        return self.serialized_size


#: Either parsed form; everything downstream of :func:`parse_block_raw` accepts both.
ParsedBlock = Union[DataBlock, LazyDataBlock]


def parse_block_raw(raw: bytes, *, lazy: bool = False) -> ParsedBlock:
    """Parse a *raw* stored block (payload + trailer) without copying.

    The zero-copy equivalent of ``DataBlock.parse(unwrap_block(raw))``: the
    trailer is verified in place (checksum over a ``memoryview``) and the
    entries are decoded straight out of ``raw`` bounded by
    ``payload_len = len(raw) - 5``.  The copying path allocated the payload
    twice per block read — once for the checksum slice, once for the
    returned payload; this path allocates neither.  A type byte other than
    :data:`~repro.sstable.format.COMPRESSION_NONE` is corruption.

    ``lazy`` asks for a :class:`LazyDataBlock`, which only a block with
    more than one restart point gets: a one-region block's lazy form would
    decode that same region at its first lookup, then pay an extra frame
    on every later hit and hold both the raw bytes and the decoded lists,
    so it is decoded eagerly here, once (the cache charge is
    ``payload_len`` either way).
    """
    # Trailer check inlined (vs calling format.check_block_trailer): this
    # runs once per block read, and at ~4 us/block the three Python calls
    # the helper chain costs (helper -> crc32c wrapper -> decode_fixed32)
    # are enough to lose the zero-copy win to the copying path's single
    # C-speed slice.  One struct hit decodes the trailer; the masked CRC
    # is computed inline over a memoryview of the stored span.
    payload_len = len(raw) - BLOCK_TRAILER_SIZE
    if payload_len < 4:
        raise CorruptionError(
            "block shorter than its trailer" if payload_len < 0 else "data block too short"
        )
    num_restarts, compression, expected = _TAIL_UNPACK(raw, payload_len - 4)
    if compression != COMPRESSION_NONE:
        raise CorruptionError(f"unsupported compression type {compression}")
    crc = _zlib_crc32(memoryview(raw)[:payload_len]) & 0xFFFFFFFF
    if (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF != expected:
        raise CorruptionError("block failed checksum")
    if lazy and num_restarts > 1:
        return LazyDataBlock(raw, payload_len, num_restarts)
    data_end = payload_len - 4 - 4 * num_restarts
    if data_end < 0:
        raise CorruptionError("data block restart array overruns payload")
    keys, values = _parse_entries(raw, 0, data_end)
    return DataBlock(keys, values, payload_len)
