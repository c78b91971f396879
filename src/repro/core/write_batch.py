"""Write batches.

A :class:`WriteBatch` groups puts and deletes that apply atomically: one WAL
record, one sequence-number range, one memtable insertion pass.  The
serialized form is the WAL payload:

::

    [base sequence : fixed64][count : fixed32]
    ([type : 1][key : lp][value : lp if type == VALUE])*
"""

from __future__ import annotations

from typing import Iterator

from ..encoding import (
    decode_fixed32,
    decode_fixed64,
    encode_fixed32,
    encode_fixed64,
    get_length_prefixed,
    put_length_prefixed,
)
from ..errors import CorruptionError, InvalidArgumentError
from ..keys import TYPE_DELETION, TYPE_VALUE
from ..memtable.memtable import MemTable
from ..memtable.wal import WalRecoveryStats, read_wal_tolerant
from ..storage.fs import FileSystem

_HEADER_SIZE = 12


class WriteBatch:
    """An ordered list of (type, key, value) operations."""

    def __init__(self):
        self._ops: list[tuple[int, bytes, bytes]] = []

    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        if not isinstance(key, (bytes, bytearray)) or not isinstance(value, (bytes, bytearray)):
            raise InvalidArgumentError("keys and values must be bytes")
        if not key:
            raise InvalidArgumentError("keys must be non-empty")
        self._ops.append((TYPE_VALUE, bytes(key), bytes(value)))
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        if not isinstance(key, (bytes, bytearray)):
            raise InvalidArgumentError("keys must be bytes")
        if not key:
            raise InvalidArgumentError("keys must be non-empty")
        self._ops.append((TYPE_DELETION, bytes(key), b""))
        return self

    def clear(self) -> None:
        self._ops.clear()

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[tuple[int, bytes, bytes]]:
        return iter(self._ops)

    def byte_size(self) -> int:
        """User payload bytes — the write-amplification denominator."""
        return sum(len(k) + len(v) for _, k, v in self._ops)

    def serialize(self, base_sequence: int) -> bytes:
        """Encode as the WAL payload (see module docstring)."""
        out = bytearray()
        out += encode_fixed64(base_sequence)
        out += encode_fixed32(len(self._ops))
        for value_type, key, value in self._ops:
            out.append(value_type)
            put_length_prefixed(out, key)
            if value_type == TYPE_VALUE:
                put_length_prefixed(out, value)
        return bytes(out)

    @classmethod
    def deserialize(cls, payload: bytes) -> tuple["WriteBatch", int]:
        """Decode a WAL payload; returns ``(batch, base_sequence)``."""
        if len(payload) < _HEADER_SIZE:
            raise CorruptionError("write batch payload too short")
        base_sequence = decode_fixed64(payload, 0)
        count = decode_fixed32(payload, 8)
        batch = cls()
        offset = _HEADER_SIZE
        for _ in range(count):
            if offset >= len(payload):
                raise CorruptionError("write batch truncated")
            value_type = payload[offset]
            offset += 1
            key, offset = get_length_prefixed(payload, offset)
            if value_type == TYPE_VALUE:
                value, offset = get_length_prefixed(payload, offset)
                batch._ops.append((TYPE_VALUE, key, value))
            elif value_type == TYPE_DELETION:
                batch._ops.append((TYPE_DELETION, key, b""))
            else:
                raise CorruptionError(f"unknown write batch op type {value_type}")
        if offset != len(payload):
            raise CorruptionError("write batch has trailing bytes")
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
