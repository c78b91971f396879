"""The in-memory write buffer (the LSM-tree's C0 component).

A :class:`MemTable` accumulates writes in a sorted map keyed by the
comparable internal-key tuple; when its approximate footprint reaches the
configured size it is frozen into an *immutable memtable* and flushed to an
L0 SSTable.  Deletions are stored as tombstone entries, exactly as in
LevelDB.

The sorted map is a chunked sorted list: ``(comparable_key, value)`` pairs
in chunks of at most :data:`_CHUNK_MAX`, each chunk's largest key in a
parallel ``maxes`` list.  An insert bisects ``maxes`` for its chunk and the
chunk for its slot — both searches and the shift run in C — so its cost
grows with the chunk, not with the memtable.  A chunk that outgrows the
bound is split into two fresh lists, published with a new ``maxes`` as one
``(maxes, chunks)`` pair; the lists it replaces are never touched again.
See :meth:`MemTable.entries_from` for what a reader may rely on while a
writer inserts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterator

from ..keys import _INVERT, MAX_SEQUENCE, ComparableKey, TYPE_DELETION, TYPE_VALUE

#: Per-entry bookkeeping overhead (trailer + node pointers), an approximation
#: of what LevelDB's arena would charge.
ENTRY_OVERHEAD = 24

#: A chunk longer than this is split in two.  Large enough that a 16 MiB
#: memtable is ~200 chunks, small enough that an insert's slot shift is a
#: short ``memmove``.
_CHUNK_MAX = 2048

#: The comparable key of a ``(comparable_key, value)`` pair.
_key_of = itemgetter(0)

#: Sorts before every comparable key (a real one's inverted trailer is > 0).
_LOWEST: ComparableKey = (b"", 0)


class MemTable:
    """Sorted write buffer with approximate memory accounting."""

    def __init__(self):
        #: ``(maxes, chunks)``: ``chunks[i]`` is a sorted list of
        #: ``(comparable_key, value)`` pairs and ``maxes[i]`` its last key.
        #: Replaced whole when a chunk splits.
        self._index: tuple[list[ComparableKey], list[list[tuple[ComparableKey, bytes]]]] = ([], [])
        #: Every user key with at least one entry (any sequence, value or
        #: tombstone): :meth:`get` answers "nothing here" from it without
        #: searching the chunks.  Not in the memory accounting — flush
        #: timing is defined by ``approximate_bytes`` alone.
        self._user_keys: set[bytes] = set()
        #: :meth:`approximate_memory_usage`, as an attribute the write
        #: path's rollover test reads without a call.
        self.approximate_bytes = 0
        #: Adds that replaced an entry in place: with the chunks' lengths,
        #: the count of adds, kept off the add that inserts.
        self._replaced = 0
        self.frozen = False

    def __len__(self) -> int:
        """Adds taken, an in-place replacement included."""
        return sum(map(len, self._index[1])) + self._replaced

    def approximate_memory_usage(self) -> int:
        """Bytes this memtable would occupy in an arena (keys + values +
        per-entry overhead)."""
        return self.approximate_bytes

    def add(self, sequence: int, value_type: int, user_key: bytes, value: bytes = b"") -> None:
        """Insert one entry.  ``value`` must be empty for tombstones.  An
        entry with the same comparable key replaces the value in place (and
        is still counted)."""
        if self.frozen:
            raise RuntimeError("cannot add to a frozen memtable")
        # keys.comparable_key and its pack_trailer, inlined with their
        # checks: a put pays one type test and the sequence range.
        if value_type != TYPE_VALUE:
            if value_type != TYPE_DELETION:
                raise ValueError(f"invalid value type {value_type}")
            if value:
                raise ValueError("tombstones carry no value")
        if not 0 <= sequence <= MAX_SEQUENCE:
            raise ValueError(f"sequence {sequence} out of range")
        key = (user_key, _INVERT - ((sequence << 8) | value_type))
        maxes, chunks = self._index
        i = bisect_left(maxes, key)
        if i < len(maxes):
            chunk = chunks[i]
            j = bisect_left(chunk, key, key=_key_of)
            if chunk[j][0] == key:
                chunk[j] = (key, value)
                self._replaced += 1
            else:
                chunk.insert(j, (key, value))
        elif maxes:
            # Past every key: the last chunk grows, then its max (so a
            # max is always a key its chunk holds).
            i -= 1
            chunk = chunks[i]
            chunk.append((key, value))
            maxes[i] = key
        else:
            chunk = [(key, value)]
            self._index = ([key], [chunk])
        if len(chunk) > _CHUNK_MAX:
            half = len(chunk) >> 1
            low, high = chunk[:half], chunk[half:]
            self._index = (
                maxes[:i] + [low[-1][0]] + maxes[i:],
                chunks[:i] + [low, high] + chunks[i + 1 :],
            )
        # After the entry is in place: DESIGN.md §9's lock-free get reads
        # the key set first.
        self._user_keys.add(user_key)
        self.approximate_bytes += len(user_key) + len(value) + ENTRY_OVERHEAD

    def would_reach(self, limit: int, payload_bytes: int, entries: int) -> bool:
        """Whether ``entries`` more adds carrying ``payload_bytes`` of keys
        and values would take the usage to ``limit`` — :meth:`add`'s
        accounting, asked before the adds."""
        return self.approximate_bytes + payload_bytes + entries * ENTRY_OVERHEAD >= limit

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
        # keys.seek_comparable and, below, keys.comparable_parts, inlined.
        seek = (user_key, _INVERT - ((snapshot_sequence << 8) | TYPE_VALUE))
        maxes, chunks = self._index
        i = bisect_left(maxes, seek)
        if i == len(maxes):
            return False, None
        # maxes[i] >= seek is a key of chunks[i], so the slot exists; an add
        # landing between the bisect and the read shifts it: search again.
        chunk = chunks[i]
        entry = chunk[bisect_left(chunk, seek, key=_key_of)]
        while entry[0] < seek:
            entry = chunk[bisect_left(chunk, seek, key=_key_of)]
        (found_user_key, inverted), value = entry
        if found_user_key != user_key:
            return False, None
        if (_INVERT - inverted) & 0xFF == TYPE_DELETION:
            return True, None
        return True, value

    def freeze(self) -> None:
        """Mark immutable; further :meth:`add` calls raise."""
        self.frozen = True

    def entries(self) -> Iterator[tuple[ComparableKey, bytes]]:
        """All entries in internal-key order (newest first per user key)."""
        return self.entries_from(_LOWEST)

    def entries_from(self, seek: ComparableKey) -> Iterator[tuple[ComparableKey, bytes]]:
        """Entries with comparable key >= ``seek``, in order.

        Safe against adds between two ``next()`` calls (a sync caller's
        put mid-scan) and during them (the concurrent pipeline's writer):
        the rest of a chunk is copied in one C-level slice (re-cut on the
        copy if an add shifted it), and the next batch is found by
        bisecting the current index for the first key after the last one
        yielded.  So the output is strictly increasing and holds every
        entry present when the iterator was created; an entry added since
        may or may not appear.
        """
        maxes, chunks = self._index
        i = bisect_left(maxes, seek)
        if i == len(maxes):
            return
        chunk = chunks[i]
        # An add landing between a bisect and its slice shifts entries into
        # the copy from below; a bisect of the private copy cuts them off.
        batch = chunk[bisect_left(chunk, seek, key=_key_of) :]
        if batch[0][0] < seek:
            batch = batch[bisect_left(batch, seek, key=_key_of) :]
        while True:
            yield from batch
            last = batch[-1][0]
            maxes, chunks = self._index
            i = bisect_right(maxes, last)
            if i == len(maxes):
                return
            chunk = chunks[i]
            batch = chunk[bisect_right(chunk, last, key=_key_of) :]
            if batch[0][0] <= last:
                batch = batch[bisect_right(batch, last, key=_key_of) :]


__all__ = ["MemTable", "ENTRY_OVERHEAD", "TYPE_VALUE", "TYPE_DELETION"]
