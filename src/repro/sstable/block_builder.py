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

from ..encoding import encode_varint, shared_prefix_len

#: Entry headers whose three varints fit 1+1+1 or 1+1+2 bytes — every
#: header the engine writes for keys under 128 bytes and values under
#: 16 KiB — packed by one ``struct`` call.
_HEADER_111 = struct.Struct("<BBB").pack
_HEADER_112 = struct.Struct("<BBBB").pack


class BlockBuilder:
    """Accumulates sorted entries into one data-block payload.

    Entries are assembled straight into one reusable ``bytearray``;
    :meth:`reset` keeps the allocation, so a table builder emitting many
    blocks reuses it.  ``size_estimate`` is kept current by :meth:`add`,
    so the per-entry block-cut checks of the table builders read an
    attribute instead of calling :meth:`current_size_estimate`.
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
