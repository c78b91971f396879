"""The in-memory write buffer (the LSM-tree's C0 component).

A :class:`MemTable` accumulates writes in a skiplist keyed by the comparable
internal-key tuple; when its approximate footprint reaches the configured
size it is frozen into an *immutable memtable* and flushed to an L0 SSTable.
Deletions are stored as tombstone entries, exactly as in LevelDB.
"""

from __future__ import annotations

from typing import Iterator

from ..keys import (
    ComparableKey,
    TYPE_DELETION,
    TYPE_VALUE,
    comparable_key,
    comparable_parts,
    seek_comparable,
)
from .skiplist import SkipList

#: Per-entry bookkeeping overhead (trailer + node pointers), an approximation
#: of what LevelDB's arena would charge.
ENTRY_OVERHEAD = 24


class MemTable:
    """Skiplist-backed write buffer with approximate memory accounting."""

    def __init__(self, seed: int = 0):
        self._table = SkipList(seed=seed)
        #: Every user key with at least one entry (any sequence, value or
        #: tombstone): :meth:`get` answers "nothing here" from it without
        #: descending the skiplist.  Not in the memory accounting — flush
        #: timing is defined by ``_approximate_bytes`` alone.
        self._user_keys: set[bytes] = set()
        self._approximate_bytes = 0
        self._num_entries = 0
        self.frozen = False

    def __len__(self) -> int:
        return self._num_entries

    def approximate_memory_usage(self) -> int:
        """Bytes this memtable would occupy in an arena (keys + values +
        per-entry overhead)."""
        return self._approximate_bytes

    def add(self, sequence: int, value_type: int, user_key: bytes, value: bytes = b"") -> None:
        """Insert one entry.  ``value`` must be empty for tombstones."""
        if self.frozen:
            raise RuntimeError("cannot add to a frozen memtable")
        if value_type == TYPE_DELETION and value:
            raise ValueError("tombstones carry no value")
        self._table.insert(comparable_key(user_key, sequence, value_type), value)
        self._user_keys.add(user_key)
        self._approximate_bytes += len(user_key) + len(value) + ENTRY_OVERHEAD
        self._num_entries += 1

    def would_reach(self, limit: int, payload_bytes: int, entries: int) -> bool:
        """Whether ``entries`` more adds carrying ``payload_bytes`` of keys
        and values would take the usage to ``limit`` — :meth:`add`'s
        accounting, asked before the adds."""
        return self._approximate_bytes + payload_bytes + entries * ENTRY_OVERHEAD >= limit

    def get(self, user_key: bytes, snapshot_sequence: int) -> tuple[bool, bytes | None]:
        """Look up ``user_key`` at or before ``snapshot_sequence``.

        Returns ``(found, value)``: ``(True, bytes)`` for a live entry,
        ``(True, None)`` for a tombstone, ``(False, None)`` when this
        memtable holds nothing visible for the key.

        A key this memtable never saw — nearly every get on a loaded store
        — is one set miss.  The set is safe to read while a writer adds: a
        reader whose ``snapshot_sequence`` covers a write took that
        sequence after the write's adds had finished (DESIGN.md §9); a
        reader that races one is older than it and may see either answer.
        """
        if user_key not in self._user_keys:
            return False, None
        seek = seek_comparable(user_key, snapshot_sequence)
        for key, value in self._table.items_from(seek):
            found_user_key, _seq, value_type = comparable_parts(key)
            if found_user_key != user_key:
                break
            if value_type == TYPE_DELETION:
                return True, None
            return True, value
        return False, None

    def freeze(self) -> None:
        """Mark immutable; further :meth:`add` calls raise."""
        self.frozen = True

    def entries(self) -> Iterator[tuple[ComparableKey, bytes]]:
        """All entries in internal-key order (newest first per user key)."""
        return self._table.items()

    def entries_from(self, seek: ComparableKey) -> Iterator[tuple[ComparableKey, bytes]]:
        """Entries with comparable key >= ``seek``, in order."""
        return self._table.items_from(seek)

    def smallest_key(self) -> ComparableKey | None:
        return self._table.first_key()

    def largest_key(self) -> ComparableKey | None:
        return self._table.last_key()


__all__ = ["MemTable", "ENTRY_OVERHEAD", "TYPE_VALUE", "TYPE_DELETION"]
