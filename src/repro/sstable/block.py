"""Parsed data block: decoding and search.

A :class:`DataBlock` is the in-memory form of one data-block payload and is
what the block cache stores.  Scans and compactions decode it eagerly into
parallel entry lists, searched with :mod:`bisect`: they drain every entry
anyway.  A point read's cache miss keeps the checksummed raw bytes instead
and walks them to its one key: most such blocks leave the cache unread.
The next touch of a raw block — a second get, a scan — decodes it in the
same object, so a later hit is a hit on the decoded lists and the cache
entry is never swapped.

The charge is the serialized payload size either way, so cache hit/miss and
eviction behaviour — everything the paper's Fig 14 measures — does not
depend on which form a block is in.  The decode loop is the engine's
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
from typing import Iterator

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
_new_block = object.__new__


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


class DataBlock:
    """One data block: parallel lists of comparable keys and values, or the
    block's raw stored bytes until something needs the lists.

    ``keys is None`` marks a raw block (a point read's miss,
    ``parse_block_raw(raw, lazy=True)``).  Its first :meth:`get` walks the
    raw entries to its one key and copies only the value it returns; any
    later use — a second get, :meth:`decode` from a scan — decodes the
    whole block in place, once, storing ``values`` before ``keys`` and only
    then dropping ``raw``, so a reader that sees ``keys`` also sees
    ``values`` (DESIGN.md §9).  The cache entry never changes object.
    :meth:`user_keys` of a raw block decodes keys only and leaves it raw.
    """

    __slots__ = ("keys", "values", "serialized_size", "raw", "_data_end", "_touched")

    def __init__(
        self,
        keys: list[ComparableKey],
        values: list[bytes],
        serialized_size: int,
    ):
        """An eagerly decoded block.  It stores no raw form: ``raw``,
        ``_data_end`` and ``_touched`` are a raw block's, which only
        :func:`parse_block_raw` builds, and stay unset here — so every
        method reads ``keys`` first, and only a block whose ``keys`` is
        None has a ``raw`` to read."""
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
        if payload_len < 4:
            raise CorruptionError("data block too short")
        data_end = payload_len - 4 - 4 * decode_fixed32(payload, payload_len - 4)
        if data_end < 0:
            raise CorruptionError("data block restart array overruns payload")
        keys, values = _parse_entries(payload, 0, data_end)
        return cls(keys, values, payload_len)

    def decode(self) -> tuple[list[ComparableKey], list[bytes]]:
        """The block's ``(keys, values)``, decoding a raw block in place."""
        keys = self.keys
        if keys is not None:  # decoded: values are stored before keys
            return keys, self.values
        raw = self.raw
        if raw is None:  # another thread's decode finished in between
            return self.keys, self.values
        return self._decode_in_place(raw)

    def _decode_in_place(self, raw: bytes) -> tuple[list[ComparableKey], list[bytes]]:
        """Decode the raw block ``raw`` into its lists: ``values`` stored
        before ``keys``, ``raw`` dropped last (DESIGN.md §9)."""
        keys, values = _parse_entries(raw, 0, self._data_end)
        self.values = values
        self.keys = keys
        self.raw = None
        return keys, values

    def __len__(self) -> int:
        return len(self.decode()[0])

    def get(self, user_key: bytes, snapshot_sequence: int) -> tuple[bool, bytes | None]:
        """Lookup semantics matching :meth:`MemTable.get`:
        ``(found, value-or-None-for-tombstone)``.  A raw block's first call
        walks the raw entries; its next decodes the block in place.

        The seek key (``keys.seek_comparable``) and the found entry's split
        (``keys.comparable_parts``) are written out: three calls a probe
        otherwise."""
        keys = self.keys
        if keys is None:
            buf = self.raw
            if buf is None:  # another thread's decode finished in between
                keys, values = self.keys, self.values
            elif self._touched:
                keys, values = self._decode_in_place(buf)
            else:
                # A raw block's first touch: walk to the key, copy one value.
                self._touched = True
                data_end = self._data_end
                limit = (snapshot_sequence << 8) | TYPE_VALUE
                offset = 0
                restarts = (self.serialized_size - 4 - data_end) >> 2
                if restarts > 1:
                    # Walk from the last restart whose first key is <= the seek key.
                    target = (user_key, _INVERT - limit)
                    lo, hi = 0, restarts - 1
                    while lo < hi:
                        mid = (lo + hi + 1) // 2
                        offset = decode_fixed32(buf, data_end + 4 * mid)
                        if not 0 <= offset < data_end:
                            raise CorruptionError("restart offset out of range")
                        shared, offset = decode_varint(buf, offset)
                        if shared:
                            raise CorruptionError("restart entry is prefix-compressed")
                        non_shared, offset = decode_varint(buf, offset)
                        _value_len, offset = decode_varint(buf, offset)
                        key_end = offset + non_shared
                        if non_shared < 8 or key_end > data_end:
                            raise CorruptionError("restart entry overruns payload")
                        tail = key_end - 8
                        if (buf[offset:tail], _INVERT - _FIXED64_UNPACK(buf, tail)[0]) <= target:
                            lo = mid
                        else:
                            hi = mid - 1
                    offset = decode_fixed32(buf, data_end + 4 * lo)
                    if not 0 <= offset <= data_end:
                        raise CorruptionError("restart offset out of range")
                # _parse_entries' loop, comparing each key instead of keeping it.
                # A trailer is read only if its entry decides (the overlap branch
                # rebuilds the last key from tail_buf[tail:tail + 8]); overruns
                # are checked where the walk stops, as offsets only grow.
                prev_user = tail_buf = b""
                prev_ulen = tail = 0
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
                            high = buf[offset + 1]
                            if high < 0x80:
                                value_len = (byte & 0x7F) | (high << 7)
                                offset += 2
                            else:
                                value_len, offset = decode_varint(buf, offset)
                    except IndexError:
                        raise CorruptionError("truncated varint") from None
                    key_end = offset + non_shared
                    if non_shared >= 8 and shared <= prev_ulen:
                        tail = key_end - 8
                        if shared:
                            prev_user = prev_user[:shared] + buf[offset:tail]
                        else:
                            prev_user = buf[offset:tail]
                        tail_buf = buf
                        prev_ulen = shared + non_shared - 8
                    else:
                        key = prev_user + tail_buf[tail : tail + 8]
                        if shared > len(key):
                            raise CorruptionError(
                                "prefix-compressed key shares more than previous key"
                            )
                        key = key[:shared] + buf[offset:key_end]
                        prev_ulen = tail = len(key) - 8
                        if tail < 0:
                            raise CorruptionError(f"internal key too short: {len(key)} bytes")
                        prev_user = key[:tail]
                        tail_buf = key
                    offset = key_end + value_len
                    if prev_user >= user_key:
                        # The first entry at or past the seek key decides, as the
                        # bisect below does.
                        if offset > data_end:
                            break
                        if prev_user != user_key:
                            return False, None
                        (trailer,) = _FIXED64_UNPACK(tail_buf, tail)
                        if trailer <= limit:
                            if trailer & 0xFF == TYPE_DELETION:
                                return True, None
                            return True, buf[key_end:offset]
                if offset > data_end:
                    raise CorruptionError("data block entry overruns payload")
                return False, None
        else:
            values = self.values
        idx = bisect_left(keys, (user_key, _INVERT - ((snapshot_sequence << 8) | TYPE_VALUE)))
        if idx >= len(keys):
            return False, None
        found_user_key, inverted = keys[idx]
        if found_user_key != user_key:
            return False, None
        if (_INVERT - inverted) & 0xFF == TYPE_DELETION:
            return True, None
        return True, values[idx]

    def entries(self) -> Iterator[tuple[ComparableKey, bytes]]:
        keys = self.keys
        if keys is None:
            return zip(*self.decode())
        return zip(keys, self.values)

    def entries_from(self, seek: ComparableKey) -> Iterator[tuple[ComparableKey, bytes]]:
        """Entries with comparable key >= ``seek``."""
        keys, values = self.decode()
        idx = bisect_left(keys, seek)
        return zip(keys[idx:], values[idx:])

    def user_keys(self) -> list[bytes]:
        """Distinct-preserving list of user keys (for filter construction);
        a raw block decodes its keys only, and stays raw."""
        keys = self.keys
        if keys is None:
            raw = self.raw
            if raw is None:  # decoded in place meanwhile
                keys = self.keys
            else:
                keys = _parse_entries(raw, 0, self._data_end, with_values=False)[0]
        return [key[0] for key in keys]

    def memory_bytes(self) -> int:
        """Charge for cache accounting: the serialized payload size, raw or
        decoded alike."""
        return self.serialized_size


def parse_block_raw(raw: bytes, *, lazy: bool = False) -> DataBlock:
    """Parse a *raw* stored block (payload + trailer) without copying.

    The zero-copy equivalent of ``DataBlock.parse(unwrap_block(raw))``: the
    trailer is verified in place (checksum over a ``memoryview``) and the
    entries are decoded straight out of ``raw`` bounded by
    ``payload_len = len(raw) - 5``.  The copying path allocated the payload
    twice per block read — once for the checksum slice, once for the
    returned payload; this path allocates neither.  A type byte other than
    :data:`~repro.sstable.format.COMPRESSION_NONE` is corruption.

    ``lazy`` asks for a raw :class:`DataBlock`: nothing is decoded past
    the trailer and the restart count (the cache charge is ``payload_len``
    either way).
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
    data_end = payload_len - 4 - 4 * num_restarts
    if data_end < 0:
        raise CorruptionError("data block restart array overruns payload")
    if lazy:
        # The raw form's one constructor, written out (no __init__ frame).
        block = _new_block(DataBlock)
        block.keys = block.values = None
        block.serialized_size = payload_len
        block.raw = raw
        block._data_end = data_end
        block._touched = False
        return block
    keys, values = _parse_entries(raw, 0, data_end)
    return DataBlock(keys, values, payload_len)
