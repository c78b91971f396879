"""Data-block serialization — the engine's one per-entry encoder.

LevelDB's entry format with prefix compression and restart points:

::

    entry   := shared:varint  non_shared:varint  value_len:varint
               key_suffix:bytes  value:bytes
    block   := entry* restart_offset:fixed32* num_restarts:fixed32

``shared`` is the byte count the key shares with the previous key; every
``restart_interval`` entries a restart point stores the full key so readers
can binary-search restarts.  Keys are serialized internal keys.

Every table writer — flush, Table Compaction's outputs, Block Compaction's
appends in-process and in an offload worker — hands its entries to
:meth:`BlockCutter.add_run` in the comparable form the merges produce,
``((user_key, inv), value)``, a whole run per call.  The run loop keeps the
pending block in locals, builds each internal key once, and is the only
place an entry is encoded.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable
from zlib import crc32

from ..encoding import decode_fixed64, encode_varint, shared_prefix_len
from ..keys import ComparableKey
from .format import COMPRESSION_NONE

#: Entries between restart points in every block the engine writes (the
#: format itself allows any interval >= 1, and readers take any).
RESTART_INTERVAL = 16
#: Entry headers whose three varints fit 1+1+1 or 1+1+2 bytes — every
#: header the engine writes for keys under 128 bytes and values under
#: 16 KiB — packed by one ``struct`` call.
_HEADER_111 = struct.Struct("<BBB").pack
_HEADER_112 = struct.Struct("<BBBB").pack
#: The 5-byte block trailer: compression type, masked little-endian CRC.
_BLOCK_TRAILER = struct.Struct("<BI").pack
_FIXED64 = struct.Struct("<Q").pack
#: ``inv`` of a comparable key is ``_INVERT - trailer`` (see repro.keys).
_INVERT = (1 << 64) - 1
#: The restart array and count of a block with one restart point (at 0).
_ONE_RESTART = struct.pack("<II", 0, 1)

Entry = tuple[ComparableKey, bytes]


class BlockCutter:
    """Turns a sorted entry stream into finished data blocks — the one
    encoder, the one cut rule and the one key-order rule of every table
    writer.

    Each finished block goes to ``emit(raw, smallest, largest, num_entries,
    user_keys)``: ``raw`` is the wrapped payload (trailer attached), the
    keys are the block's first and last internal keys, ``user_keys`` its
    entries' user keys (filter input).  In-process ``emit`` is
    :meth:`SectionWriter.commit_block
    <repro.sstable.section_writer.SectionWriter.commit_block>`; an offload
    worker collects the same tuples and the parent replays them into it.
    """

    def __init__(
        self,
        block_size: int,
        restart_interval: int,
        emit: Callable[[bytes, bytes, bytes, int, list[bytes]], None],
    ):
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self._block_size = block_size
        self._restart_interval = restart_interval
        self._emit = emit
        # The pending block: entry bytes, restart offsets, entries left in
        # the current restart group, boundary keys, and one user key per
        # entry (so the block is empty exactly when ``_user_keys`` is).
        self._buf = bytearray()
        self._restarts: list[int] = [0]
        self._left = 0
        self.first_key: bytes | None = None
        self.last_key = b""
        self._user_keys: list[bytes] = []
        #: User key of the last entry added — or, after a section writer
        #: reused a clean block, that block's largest (None before either).
        self.last_user_key: bytes | None = None

    @property
    def size_estimate(self) -> int:
        """Serialized size of the pending block if cut now (payload only,
        no trailer)."""
        return len(self._buf) + 4 * len(self._restarts) + 4

    def add_run(self, entries: Iterable[Entry], stop: int | None = None) -> Entry | None:
        """Encode ``entries`` — ``((user_key, inv), value)`` in increasing
        internal-key order — into blocks, cutting a block when it is full,
        but never between two versions of one user key: index entries must
        bound user-key ranges exactly.

        Returns None once ``entries`` is exhausted.  Given ``stop``, returns
        instead the first entry of a new user key met once the blocks this
        run emitted plus the pending block reach ``stop`` bytes; that entry
        is not added, and the pending block stays pending.
        """
        buf = self._buf
        restarts = self._restarts
        interval = self._restart_interval
        block_size = self._block_size
        user_keys = self._user_keys
        add_user_key = user_keys.append
        left = self._left
        first_key = self.first_key
        last_key = self.last_key
        last_len = len(last_key)
        last_int = int.from_bytes(last_key, "big")
        last_user_key = self.last_user_key
        # A cutter nothing was added to orders its first entry against the
        # smallest user key; only an empty one may equal it.
        fresh = last_user_key is None
        if fresh:
            last_user_key = b""
        # The pending block's size is ``len(buf)`` plus its restart array
        # and count; ``limit`` is what ``len(buf)`` may reach before the
        # block is full or the run's stop is due.
        trailing = 4 * len(restarts) + 4
        threshold = block_size if stop is None or stop > block_size else stop
        limit = threshold - trailing
        invert = _INVERT
        pack_trailer = _FIXED64
        from_bytes = int.from_bytes
        try:
            for entry in entries:
                (user_key, inv), value = entry
                key = user_key + pack_trailer(invert - inv)
                if user_key > last_user_key:
                    if len(buf) >= limit and user_keys:
                        size = len(buf) + trailing
                        if stop is not None and size >= stop:
                            return entry
                        if size >= block_size:
                            self._left = left
                            self.first_key = first_key
                            self.last_key = last_key
                            written = self.cut()
                            user_keys = self._user_keys
                            add_user_key = user_keys.append
                            left = 0
                            trailing = 8
                            if stop is not None:
                                stop -= written
                                threshold = block_size if stop > block_size else stop
                            limit = threshold - trailing
                elif user_key < last_user_key or (
                    # Same user key: versions must arrive newest (largest
                    # trailer) first, and never across a cut or reused block.
                    invert - inv >= _trailer(last_key)
                    if user_keys
                    else not fresh
                ):
                    raise ValueError("table entries must be added in increasing internal-key order")
                key_len = len(key)
                key_int = from_bytes(key, "big")
                if left:
                    left -= 1
                    if key_len == last_len:
                        # The highest set bit of the two keys' XOR marks the
                        # first differing byte.  Keys of unequal length (a
                        # user key that prefixes the next lets the shared
                        # span run into the trailer) take the general helper.
                        shared = key_len - (((key_int ^ last_int).bit_length() + 7) >> 3)
                    else:
                        shared = shared_prefix_len(last_key, key)
                else:
                    if user_keys:  # a restart point: the full key
                        restarts.append(len(buf))
                        trailing += 4
                        limit -= 4
                    else:  # the block's first entry
                        first_key = key
                    left = interval - 1
                    shared = 0
                non_shared = key_len - shared
                value_len = len(value)
                # shared and non_shared never exceed the key's length.
                if key_len < 0x80 and value_len < 0x4000:
                    if value_len < 0x80:
                        buf += _HEADER_111(shared, non_shared, value_len)
                    else:
                        buf += _HEADER_112(
                            shared, non_shared, (value_len & 0x7F) | 0x80, value_len >> 7
                        )
                else:
                    buf += (
                        encode_varint(shared) + encode_varint(non_shared) + encode_varint(value_len)
                    )
                buf += key[shared:]
                buf += value
                last_key = key
                last_len = key_len
                last_int = key_int
                last_user_key = user_key
                add_user_key(user_key)
            return None
        finally:
            self._left = left
            self.first_key = first_key
            self.last_key = last_key
            if user_keys or not fresh:
                self.last_user_key = last_user_key

    def cut(self) -> int:
        """Finish the pending block, if any, and hand it to ``emit``;
        returns its stored size (0 when nothing was pending).

        The stored block is assembled with one copy of the entry bytes:
        the CRC runs over the buffer in place and continues over the
        restart array."""
        user_keys = self._user_keys
        if not user_keys:
            return 0
        buf = self._buf
        restarts = self._restarts
        if len(restarts) == 1:
            tail = _ONE_RESTART
        else:
            tail = struct.pack(f"<{len(restarts) + 1}I", *restarts, len(restarts))
        crc = crc32(tail, crc32(buf))
        # The mask of encoding.crc32c, which takes one buffer, not two.
        masked = (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF
        raw = b"".join((buf, tail, _BLOCK_TRAILER(COMPRESSION_NONE, masked)))
        self._emit(raw, self.first_key, self.last_key, len(user_keys), user_keys)
        del buf[:]
        del restarts[1:]
        self._left = 0
        self._user_keys = []
        return len(raw)


def _trailer(internal_key: bytes) -> int:
    """The packed ``(sequence << 8) | type`` of an internal key."""
    return decode_fixed64(internal_key, len(internal_key) - 8)
