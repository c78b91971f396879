"""The user-facing DB iterator.

All internal sources (memtables, L0 tables, sorted levels) yield
``(ComparableKey, value)`` streams already sorted by comparable key.
The fused k-way merge in :mod:`repro.core.merge` combines them; because
comparable keys embed the sequence number descending, the newest version
of each user key arrives first, so visibility filtering is a single
forward pass fused into the same loop: keep the first visible version per
user key and skip tombstoned keys.
"""

from __future__ import annotations

from typing import Callable

from .merge import EntryStream, merge_visible


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
