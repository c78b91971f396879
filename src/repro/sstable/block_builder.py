"""Data-block serialization.

LevelDB's entry format with prefix compression and restart points:

::

    entry   := shared:varint  non_shared:varint  value_len:varint
               key_suffix:bytes  value:bytes
    block   := entry* restart_offset:fixed32* num_restarts:fixed32

``shared`` is the byte count the key shares with the previous key; every
``restart_interval`` entries a restart point stores the full key so readers
can binary-search restarts.  Keys are serialized internal keys.
"""

from __future__ import annotations

import struct
from typing import Callable
from zlib import crc32

from ..encoding import decode_fixed64, encode_varint, shared_prefix_len
from ..keys import user_key_of
from .format import COMPRESSION_NONE, wrap_block

#: Entry headers whose three varints fit 1+1+1 or 1+1+2 bytes — every
#: header the engine writes for keys under 128 bytes and values under
#: 16 KiB — packed by one ``struct`` call.
_HEADER_111 = struct.Struct("<BBB").pack
_HEADER_112 = struct.Struct("<BBBB").pack
#: The 5-byte block trailer: compression type, masked little-endian CRC.
_BLOCK_TRAILER = struct.Struct("<BI").pack


class BlockBuilder:
    """Accumulates sorted entries into one data-block payload.

    Entries are assembled straight into one reusable ``bytearray``;
    :meth:`reset` keeps the allocation, so a table builder emitting many
    blocks reuses it.  ``size_estimate`` is kept current by :meth:`add`,
    so :class:`BlockCutter`'s per-entry cut check reads an attribute
    instead of calling :meth:`current_size_estimate`.
    """

    def __init__(self, restart_interval: int = 16):
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self._restart_interval = restart_interval
        self._buf = bytearray()
        self.reset()

    def reset(self) -> None:
        del self._buf[:]
        self._restarts: list[int] = [0]
        self._count_since_restart = 0
        self.num_entries = 0
        self.first_key: bytes | None = None
        self.last_key: bytes = b""
        #: Serialized size if finished now (payload only, no trailer).
        self.size_estimate = 8

    def add(self, key: bytes, value: bytes) -> None:
        """Append one entry; keys must arrive in strictly increasing order."""
        last_key = self.last_key
        # Internal keys are unique (sequence numbers differ), so equality is
        # a bug.  Byte order of serialized internal keys is NOT the
        # internal-key order in general: the builder receives keys already
        # sorted by internal order and only uses byte comparison as a
        # prefix-compression aid — so only exact duplicates are rejected.
        if key == last_key and self.num_entries > 0:
            raise ValueError("duplicate key added to block")
        buf = self._buf
        if self._count_since_restart >= self._restart_interval:
            self._restarts.append(len(buf))
            self._count_since_restart = 1
            shared = 0
        else:
            self._count_since_restart += 1
            shared = shared_prefix_len(last_key, key)
        non_shared = len(key) - shared
        value_len = len(value)
        if shared < 0x80 and non_shared < 0x80 and value_len < 0x4000:
            if value_len < 0x80:
                buf += _HEADER_111(shared, non_shared, value_len)
            else:
                buf += _HEADER_112(shared, non_shared, (value_len & 0x7F) | 0x80, value_len >> 7)
        else:
            buf += encode_varint(shared) + encode_varint(non_shared) + encode_varint(value_len)
        buf += key[shared:]
        buf += value
        if self.num_entries == 0:
            self.first_key = key
        self.last_key = key
        self.num_entries += 1
        self.size_estimate = len(buf) + 4 * len(self._restarts) + 4

    def current_size_estimate(self) -> int:
        """Serialized size if finished now (payload only, no trailer)."""
        return self.size_estimate

    def empty(self) -> bool:
        return self.num_entries == 0

    def finish(self) -> bytes:
        """Serialize and return the block payload."""
        restarts = self._restarts
        trailer = struct.pack(f"<{len(restarts) + 1}I", *restarts, len(restarts))
        return bytes(self._buf) + trailer

    def finish_stored(self) -> bytes:
        """The block as stored uncompressed — payload plus its 5-byte
        trailer, byte for byte ``wrap_block(self.finish())`` — assembled
        with one copy of the entry bytes: the CRC runs over the buffer in
        place and continues over the restart array."""
        restarts = self._restarts
        tail = struct.pack(f"<{len(restarts) + 1}I", *restarts, len(restarts))
        crc = crc32(tail, crc32(self._buf))
        # The mask of encoding.crc32c, which takes one buffer, not two.
        masked = (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF
        return b"".join((self._buf, tail, _BLOCK_TRAILER(COMPRESSION_NONE, masked)))


def _trailer(internal_key: bytes) -> int:
    """The packed ``(sequence << 8) | type`` of an internal key."""
    return decode_fixed64(internal_key, len(internal_key) - 8)


class BlockCutter:
    """Turns a sorted entry stream into finished data blocks — the one cut
    rule and the one key-order rule of every table writer.

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
        compression: int,
        emit: Callable[[bytes, bytes, bytes, int, list[bytes]], None],
    ):
        self.block = BlockBuilder(restart_interval)
        self._block_size = block_size
        self._compression = compression
        self._emit = emit
        self._user_keys: list[bytes] = []
        #: User key of the last entry added — or, after a section writer
        #: reused a clean block, that block's largest (None before either).
        self.last_user_key: bytes | None = None

    def add(self, internal_key: bytes, value: bytes) -> None:
        """Append one entry; keys must arrive in increasing internal order."""
        user_key = user_key_of(internal_key)
        last_user_key = self.last_user_key
        block = self.block
        if last_user_key is not None:
            if user_key > last_user_key:
                # Cut the block when full, but never between two versions of
                # the same user key: index entries must bound user-key
                # ranges exactly.
                if block.size_estimate >= self._block_size:
                    self.cut()
            elif (
                user_key < last_user_key
                # Same user key: versions must arrive newest (largest
                # trailer) first, and never across a reused block.
                or not block.num_entries
                or _trailer(internal_key) >= _trailer(block.last_key)
            ):
                raise ValueError("table entries must be added in increasing internal-key order")
        block.add(internal_key, value)
        self._user_keys.append(user_key)
        self.last_user_key = user_key

    def cut(self) -> None:
        """Finish the pending block, if any, and hand it to ``emit``."""
        block = self.block
        if block.num_entries:
            self._emit(
                block.finish_stored()
                if self._compression == COMPRESSION_NONE
                else wrap_block(block.finish(), self._compression),
                block.first_key,
                block.last_key,
                block.num_entries,
                self._user_keys,
            )
            self._user_keys = []
            block.reset()
