"""Write batches.

A :class:`WriteBatch` groups puts and deletes that apply atomically: one WAL
record, one sequence-number range, one memtable insertion pass.  As in
LevelDB, whose ``WriteBatch::rep_`` is its log payload, the batch *is* its
WAL record: each op is encoded once, as it enters the batch, into a
``bytearray`` (``rep``) that starts with the header, and
:meth:`WriteBatch.serialize` only stamps the header in place (for a lone
batch ``DB._apply_locked`` does that stamp itself, with :data:`HEADER`).
The payload:

::

    [base sequence : fixed64][count : fixed32]
    ([type : 1][key : lp][value : lp if type == VALUE])*

The decoded ``(type, key, value)`` ops are kept beside it (``ops``), for the
memtable pass and value separation, and so are the batch's user bytes and
deletes, which the write path reads without walking the batch.
"""

from __future__ import annotations

import struct
from typing import Iterator

from ..encoding import encode_varint, get_length_prefixed, put_length_prefixed
from ..errors import CorruptionError, InvalidArgumentError
from ..keys import TYPE_DELETION, TYPE_VALUE
from ..memtable.memtable import MemTable
from ..memtable.wal import WalRecoveryStats, read_wal_tolerant
from ..storage.fs import FileSystem

#: ``[base sequence : fixed64][count : fixed32]``.
HEADER = struct.Struct("<QI")
_HEADER_SIZE = HEADER.size

#: The common put's head in one ``struct`` pack, indexed by key length:
#: ``[type][key length][key][value length]`` for a key shorter than 128 B
#: (a one-byte varint) and a value of 128 B to 16 KiB (a two-byte varint).
_SHORT_PUT = tuple(struct.Struct(f"<BB{klen}sBB") for klen in range(0x80))


def _as_bytes(data, message: str) -> bytes:
    if not isinstance(data, (bytes, bytearray)):
        raise InvalidArgumentError(message)
    return bytes(data)


class WriteBatch:
    """An ordered list of (type, key, value) operations and their WAL
    payload (see module docstring)."""

    #: Key plus value bytes of every op (:meth:`byte_size`).  The class
    #: holds the empty batch's 0, which the first op's ``+=`` shadows.
    user_bytes = 0
    #: Deletes among the ops (the same default as ``user_bytes``).
    deletes = 0

    def __init__(self):
        #: The ``(type, key, value)`` ops, in order.
        self.ops: list[tuple[int, bytes, bytes]] = []
        #: The WAL payload: the header, then each op as it was added.
        self.rep = bytearray(_HEADER_SIZE)

    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        """Add a put, encoding it onto the payload; returns the batch."""
        if type(key) is not bytes or type(value) is not bytes:
            key = _as_bytes(key, "keys and values must be bytes")
            value = _as_bytes(value, "keys and values must be bytes")
        if not key:
            raise InvalidArgumentError("keys must be non-empty")
        klen = len(key)
        vlen = len(value)
        rep = self.rep
        if klen < 0x80 and 0x80 <= vlen < 0x4000:
            rep += _SHORT_PUT[klen].pack(TYPE_VALUE, klen, key, vlen & 0x7F | 0x80, vlen >> 7)
        else:
            rep.append(TYPE_VALUE)
            put_length_prefixed(rep, key)
            rep += encode_varint(vlen)
        rep += value
        self.ops.append((TYPE_VALUE, key, value))
        self.user_bytes += klen + vlen
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        """Add a delete, encoding it onto the payload; returns the batch."""
        if type(key) is not bytes:
            key = _as_bytes(key, "keys must be bytes")
        if not key:
            raise InvalidArgumentError("keys must be non-empty")
        rep = self.rep
        rep.append(TYPE_DELETION)
        put_length_prefixed(rep, key)
        self.ops.append((TYPE_DELETION, key, b""))
        self.user_bytes += len(key)
        self.deletes += 1
        return self

    def clear(self) -> None:
        self.ops.clear()
        del self.rep[_HEADER_SIZE:]
        self.user_bytes = 0
        self.deletes = 0

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[tuple[int, bytes, bytes]]:
        return iter(self.ops)

    def byte_size(self) -> int:
        """User payload bytes — the write-amplification denominator."""
        return self.user_bytes

    def serialize(self, base_sequence: int) -> bytes:
        """The WAL payload (see module docstring): the header stamped onto
        the ops encoded as they were added, no re-encode."""
        rep = self.rep
        HEADER.pack_into(rep, 0, base_sequence, len(self.ops))
        return bytes(rep)

    @classmethod
    def deserialize(cls, payload: bytes) -> tuple["WriteBatch", int]:
        """Decode a WAL payload; returns ``(batch, base_sequence)``.  The
        payload becomes the batch's own, so a batch re-serialized with the
        same base gives back the same bytes."""
        if len(payload) < _HEADER_SIZE:
            raise CorruptionError("write batch payload too short")
        base_sequence, count = HEADER.unpack_from(payload, 0)
        batch = cls()
        ops = batch.ops
        user_bytes = deletes = 0
        offset = _HEADER_SIZE
        for _ in range(count):
            if offset >= len(payload):
                raise CorruptionError("write batch truncated")
            value_type = payload[offset]
            offset += 1
            key, offset = get_length_prefixed(payload, offset)
            if value_type == TYPE_VALUE:
                value, offset = get_length_prefixed(payload, offset)
                ops.append((TYPE_VALUE, key, value))
                user_bytes += len(key) + len(value)
            elif value_type == TYPE_DELETION:
                ops.append((TYPE_DELETION, key, b""))
                user_bytes += len(key)
                deletes += 1
            else:
                raise CorruptionError(f"unknown write batch op type {value_type}")
        if offset != len(payload):
            raise CorruptionError("write batch has trailing bytes")
        batch.rep[:] = payload
        batch.user_bytes = user_bytes
        batch.deletes = deletes
        return batch, base_sequence


def replay_wal(
    fs: FileSystem, name: str, memtable: MemTable, stats: WalRecoveryStats
) -> int:
    """Replay the WAL ``name`` into ``memtable``, stopping at a torn or
    corrupt tail (which ``stats`` counts); returns the largest sequence
    number applied (0 for none)."""
    max_sequence = 0
    for payload in read_wal_tolerant(fs, name, stats):
        batch, sequence = WriteBatch.deserialize(payload)
        for value_type, key, value in batch:
            memtable.add(sequence, value_type, key, value)
            sequence += 1
        max_sequence = max(max_sequence, sequence - 1)
    return max_sequence
