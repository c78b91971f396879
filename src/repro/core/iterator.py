"""Merging iterators and the user-facing DB iterator.

All internal sources (memtables, L0 tables, sorted levels) yield
``(ComparableKey, value)`` streams already sorted by comparable key.
The fused k-way merge in :mod:`repro.core.merge` combines them; because
comparable keys embed the sequence number descending, the newest version
of each user key arrives first, so visibility filtering is a single
forward pass fused into the same loop: keep the first visible version per
user key and skip tombstoned keys.

:func:`merge_sorted` and :func:`visible_entries` remain as the historical
two-stage API (other modules and tests compose them directly); both are
thin wrappers over the fused implementations.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from ..keys import ComparableKey
from .merge import (
    _TOMBSTONE_LOW,
    merge_entries,
    merge_visible,
    min_visible_inv,
)

EntryStream = Iterable[tuple[ComparableKey, bytes]]


def merge_sorted(sources: list[EntryStream]) -> Iterator[tuple[ComparableKey, bytes]]:
    """Merge sorted entry streams into one sorted stream."""
    return merge_entries(sources)


def visible_entries(
    merged: EntryStream,
    snapshot_sequence: int,
) -> Iterator[tuple[bytes, bytes]]:
    """Collapse a merged internal stream into live user ``(key, value)``.

    Entries newer than ``snapshot_sequence`` are invisible; among the rest,
    the first (newest) version per user key decides: tombstone -> the key is
    absent, value -> yielded once.
    """
    min_inv = min_visible_inv(snapshot_sequence)
    last_user_key: bytes | None = None
    for (user_key, inv), value in merged:
        if inv >= min_inv and user_key != last_user_key:
            last_user_key = user_key
            if inv & 0xFF != _TOMBSTONE_LOW:
                yield user_key, value


class DBIterator:
    """Forward iterator over live user keys in ``[start, end)``.

    Pins its sources at construction: the DB guarantees the backing files
    outlive the iterator (physical deletion is deferred while iterators are
    live).  ``close`` releases the pin; the iterator also auto-closes on
    exhaustion.  The end bound is enforced inside the fused merge, so
    sources sorted past ``end`` are never drained — a bounded scan stops
    pulling entries (and therefore blocks) the moment the merged head
    reaches the bound.
    """

    def __init__(
        self,
        sources: list[EntryStream],
        snapshot_sequence: int,
        end: bytes | None = None,
        on_close: Callable[[], None] | None = None,
        resolve: Callable[[bytes], bytes] | None = None,
    ):
        self._stream = merge_visible(sources, snapshot_sequence, end)
        self._on_close = on_close
        #: Stored-value mapping applied to every yielded value — the
        #: value-log pointer resolution hook (DESIGN.md §13).  None (the
        #: non-separated engine) keeps the historical zero-copy yield.
        self._resolve = resolve
        self._closed = False

    def __iter__(self) -> "DBIterator":
        return self

    def __next__(self) -> tuple[bytes, bytes]:
        try:
            entry = next(self._stream)
        except StopIteration:
            self.close()
            raise
        if self._resolve is None:
            return entry
        return entry[0], self._resolve(entry[1])

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            # A closed iterator yields nothing more, and letting go of the
            # merge lets go of its sources: the table readers they pinned
            # are released here, not whenever this object is collected.
            self._stream = iter(())
            if self._on_close is not None:
                self._on_close()

    def __enter__(self) -> "DBIterator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
