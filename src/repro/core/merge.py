"""Fused k-way merge for reads, scans, and compaction.

The original read path stacked three generators per row: ``heapq.merge``
over the sources, ``visible_entries`` re-splitting every comparable key
with :func:`~repro.keys.comparable_parts`, and the iterator's own
end-bound check.  This module fuses them into one loop:

* **visibility** is a single integer compare — an entry is visible at
  snapshot *s* iff its inverted trailer ``inv >= _INVERT - ((s << 8) | 0xFF)``
  (larger ``inv`` means smaller sequence, and the OR'd type byte makes the
  threshold inclusive for every value type);
* **tombstones** are spotted from the same integer — ``_INVERT`` is
  all-ones, so the subtraction never borrows and the low byte of ``inv``
  is ``0xFF - type``: exactly ``0xFF`` for ``TYPE_DELETION``;
* **dedup** keeps the first (newest, by comparable order) visible version
  per user key;
* the **end bound** is checked on the merged head *before* the winning
  source is advanced, so a bounded iterator never drains sources past the
  bound (see :class:`~repro.core.iterator.DBIterator`).

One- and two-source fast paths skip the heap entirely; the two-source
case (memtable + one level, or parent + child in block compaction) is a
plain compare-and-advance loop.  Ties between sources go to the earlier
source, matching ``heapq.merge`` stability.  The property tests cross-check
all of this against the frozen originals in :mod:`oracle.reference`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import Iterable, Iterator

from ..keys import ComparableKey

EntryStream = Iterable[tuple[ComparableKey, bytes]]

_INVERT = (1 << 64) - 1
#: Low byte of an inverted trailer when the value type is TYPE_DELETION.
_TOMBSTONE_LOW = 0xFF


def min_visible_inv(snapshot_sequence: int) -> int:
    """Inverted-trailer threshold for visibility at ``snapshot_sequence``.

    An entry with comparable key ``(user_key, inv)`` is visible iff
    ``inv >= min_visible_inv(snapshot)``.
    """
    return _INVERT - ((snapshot_sequence << 8) | 0xFF)


# ---------------------------------------------------------------- plain merge


def _merge2(
    source_a: EntryStream, source_b: EntryStream
) -> Iterator[tuple[ComparableKey, bytes]]:
    """Two-source merge: compare-and-advance, no heap."""
    iter_a = iter(source_a)
    iter_b = iter(source_b)
    head_a = next(iter_a, None)
    head_b = next(iter_b, None)
    while head_a is not None and head_b is not None:
        if head_a[0] <= head_b[0]:
            yield head_a
            head_a = next(iter_a, None)
        else:
            yield head_b
            head_b = next(iter_b, None)
    if head_a is not None:
        yield head_a
        yield from iter_a
    elif head_b is not None:
        yield head_b
        yield from iter_b


def _merge_n(sources: list[EntryStream]) -> Iterator[tuple[ComparableKey, bytes]]:
    """K-way heap merge over ``(key, source_index, value)`` tuples.

    The source index breaks key ties (it is unique), so values are never
    compared and equal keys come out in source order — the same stability
    ``heapq.merge`` provides.
    """
    iters: list[Iterator[tuple[ComparableKey, bytes]]] = []
    heap: list[tuple[ComparableKey, int, bytes]] = []
    for idx, source in enumerate(sources):
        it = iter(source)
        iters.append(it)
        head = next(it, None)
        if head is not None:
            heap.append((head[0], idx, head[1]))
    heapify(heap)
    while heap:
        key, idx, value = heap[0]
        yield key, value
        nxt = next(iters[idx], None)
        if nxt is None:
            heappop(heap)
        else:
            heapreplace(heap, (nxt[0], idx, nxt[1]))


def merge_entries(sources: list[EntryStream]) -> Iterator[tuple[ComparableKey, bytes]]:
    """Merge already-sorted entry streams into one sorted stream.

    Drop-in replacement for ``heapq.merge(*sources)`` on the engine's
    streams: 0/1/2-source fast paths, and key ties resolved to the earlier
    source.
    """
    n = len(sources)
    if n == 0:
        return iter(())
    if n == 1:
        return iter(sources[0])
    if n == 2:
        return _merge2(sources[0], sources[1])
    return _merge_n(sources)


# ------------------------------------------------------------- visible merge


def _visible1(
    source: EntryStream, min_inv: int, end: bytes | None
) -> Iterator[tuple[bytes, bytes]]:
    """Single-source visibility pass (no merge needed)."""
    last_user_key: bytes | None = None
    for (user_key, inv), value in source:
        if end is not None and user_key >= end:
            return
        if inv >= min_inv and user_key != last_user_key:
            last_user_key = user_key
            if inv & 0xFF != _TOMBSTONE_LOW:
                yield user_key, value


def _visible2(
    source_a: EntryStream, source_b: EntryStream, min_inv: int, end: bytes | None
) -> Iterator[tuple[bytes, bytes]]:
    """Two-source fused merge + visibility, the common read shape."""
    iter_a = iter(source_a)
    iter_b = iter(source_b)
    head_a = next(iter_a, None)
    head_b = next(iter_b, None)
    last_user_key: bytes | None = None
    while True:
        if head_a is None:
            if head_b is None:
                return
            take_a = False
        elif head_b is None or head_a[0] <= head_b[0]:
            take_a = True
        else:
            take_a = False
        (user_key, inv), value = head_a if take_a else head_b
        if end is not None and user_key >= end:
            return
        if inv >= min_inv and user_key != last_user_key:
            last_user_key = user_key
            if inv & 0xFF != _TOMBSTONE_LOW:
                yield user_key, value
        if take_a:
            head_a = next(iter_a, None)
        else:
            head_b = next(iter_b, None)


def _visible_n(
    sources: list[EntryStream], min_inv: int, end: bytes | None
) -> Iterator[tuple[bytes, bytes]]:
    """K-way fused merge + visibility over a heap."""
    iters: list[Iterator[tuple[ComparableKey, bytes]]] = []
    heap: list[tuple[ComparableKey, int, bytes]] = []
    for idx, source in enumerate(sources):
        it = iter(source)
        iters.append(it)
        head = next(it, None)
        if head is not None:
            heap.append((head[0], idx, head[1]))
    heapify(heap)
    last_user_key: bytes | None = None
    while heap:
        (user_key, inv), idx, value = heap[0]
        if end is not None and user_key >= end:
            return
        if inv >= min_inv and user_key != last_user_key:
            last_user_key = user_key
            if inv & 0xFF != _TOMBSTONE_LOW:
                yield user_key, value
        nxt = next(iters[idx], None)
        if nxt is None:
            heappop(heap)
        else:
            heapreplace(heap, (nxt[0], idx, nxt[1]))


def merge_visible(
    sources: list[EntryStream],
    snapshot_sequence: int,
    end: bytes | None = None,
) -> Iterator[tuple[bytes, bytes]]:
    """Fused merge + snapshot visibility + dedup + tombstone skip.

    Yields ``(user_key, value)`` for the newest visible non-deleted version
    of each user key, in key order, stopping at ``end`` (exclusive) without
    draining sources past it.
    """
    min_inv = min_visible_inv(snapshot_sequence)
    n = len(sources)
    if n == 0:
        return iter(())
    if n == 1:
        return _visible1(sources[0], min_inv, end)
    if n == 2:
        return _visible2(sources[0], sources[1], min_inv, end)
    return _visible_n(sources, min_inv, end)
