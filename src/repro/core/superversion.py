"""Refcounted superversions — the engine's one read path (DESIGN.md §9).

A :class:`SuperVersion` is an immutable snapshot of the engine's read
sources: the active memtable, the frozen immutable memtable (if any), and
the manifest Version's per-level file lists.  The DB installs a new one
under the engine lock whenever any of those change (memtable rotation,
flush commit, compaction commit) and retires the old one.  A point read
takes no lock at all: ``DB._acquire_read`` loads the current pointer, pins
it (one ``list.append``), reads the latest sequence and re-checks that the
pointer has not moved — LevelDB's ``Version::Ref/Unref`` discipline
without the mutex — then resolves the whole lookup against its private
snapshot.  Every ``get``, ``multi_get`` and iterator reads this way in
every mode; synchronous mode is the case with one reader.

The traversals are methods here, so a read that holds only a superversion
cannot mutate engine state: seek charges come back as values (a scan's go
to the callback the DB passes) for the DB to apply under its lock.

Lifecycle invariants:

* A superversion is born with one *install* reference, dropped by
  :meth:`retire` when it stops being current; reader references are the
  entries of :attr:`SuperVersion.pins`.  Both are lists whose ``append``
  and ``pop`` are single GIL-atomic steps, so no lock guards the count.
* Whichever of :meth:`retire` and the last :meth:`unref` comes second
  drains the superversion, exactly once: each finds the other half gone
  and pops the one-element drain token, and only the pop that gets it
  drains.  A reader that pinned a superversion already retired (its
  re-check then fails) unpins it without draining it again.
* While a retired superversion still has reader references, the DB holds
  one :class:`~repro.compaction.lazy_deletion.DeletionManager` pin on its
  behalf, so files that a compaction retired stay physically present until
  the last in-flight reader drops its reference (deferred deletion).
* The drain releases the memoized pinned table readers.  An unref that
  drained then invokes the drain callback, which takes the engine lock
  before it looks at :attr:`SuperVersion.deletion_pinned` (set under that
  lock by the DB when :meth:`retire` reports live readers); a retire that
  drained needs no callback, since it took no deletion pin.
"""

from __future__ import annotations

import bisect
import threading
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator
from zlib import crc32

from ..bloom.bloom import _SALT1, _SALT2
from ..keys import ComparableKey
from ..storage.io_stats import CAT_SCAN
from . import sync
from .version import FileMetadata

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.block_cache import BlockCache
    from ..cache.table_cache import TableCache
    from ..memtable.memtable import MemTable
    from ..sstable.table_reader import TableReader
    from .merge import EntryStream

#: ``after_level(level, key, sequence)`` -> ``(found, value)`` or None.
AfterLevelHook = Callable[[int, bytes, int], "tuple[bool, bytes | None] | None"]


class SuperVersion:
    """One immutable generation of the engine's read sources."""

    def __init__(
        self,
        number: int,
        memtable: "MemTable",
        immutable: "MemTable | None",
        file_lists: list[list[FileMetadata]],
        on_drain: Callable[["SuperVersion"], None],
        table_cache: "TableCache | None" = None,
        block_cache: "BlockCache | None" = None,
        after_level: AfterLevelHook | None = None,
    ):
        #: Monotonic generation number (diagnostics and tests).
        self.number = number
        #: Bound at install: the caches every probe goes through, and
        #: L2SM's hook over the components it stacks under a level (None
        #: for every other engine; L2SM's takes the engine lock itself).
        self.table_cache = table_cache
        self.block_cache = block_cache
        self.after_level = after_level
        self.memtable = memtable
        self.immutable = immutable
        self.file_lists = file_lists
        self.num_levels = len(file_lists)
        #: L0 probes go newest-file-first; computed once, the lists never
        #: change after construction.
        self.level0_newest_first = sorted(
            file_lists[0], key=lambda f: f.file_number, reverse=True
        )
        self._on_drain = on_drain
        #: Reader references, one element each: ``DB._acquire_read`` and
        #: :meth:`ref` append, :meth:`unref` pops.
        self.pins = sync.AtomicList()
        #: The install reference, popped by :meth:`retire`.
        self._installed = sync.AtomicList((None,))
        #: Popped by the one drain (see the module docstring).
        self._drain_token = [None]
        #: True once ``retire`` found live readers and the DB took a
        #: deletion-manager pin for this superversion (both under the engine
        #: lock); the drain callback releases that pin.
        self.deletion_pinned = False
        # Per-level largest-key arrays for the bisect in file_for_key and
        # seek_index, built lazily (levels a workload never reads cost
        # nothing).  A racing double-build is benign: both threads derive
        # the same list.
        self._largest_keys: list[list[bytes] | None] = [None] * self.num_levels
        #: The read-side fast path: table readers this superversion already
        #: resolved, pinned open, by file number.  Repeat probes hit this
        #: dict instead of the sharded table cache (no shard lock, no LRU
        #: churn).  Lookups read it directly — one ``get``, no lock: it only
        #: grows while a reader holds a reference — and call
        #: :meth:`reader_for` on a miss; only that method writes it.
        self.readers: dict[int, "TableReader"] = {}
        self._readers_lock = threading.Lock()

    # -- refcounting ---------------------------------------------------------

    @property
    def refs(self) -> int:
        return len(self.pins) + len(self._installed)

    def ref(self) -> "SuperVersion":
        """Add a reader reference (the caller holds the engine lock, so
        this superversion is current and cannot have drained)."""
        self.pins.append(None)
        return self

    def unref(self) -> None:
        """Drop a reader reference; the last one out of a retired
        superversion drains it (releases pinned readers, fires the drain
        callback)."""
        pins = self.pins
        pins.pop()
        if not pins and not self._installed and self._drain():
            self._on_drain(self)

    def retire(self) -> bool:
        """Drop the install reference when a newer superversion replaces
        this one.  Called under the engine lock, after the DB's pointer
        moved on; returns True when reader references remain — the caller
        must then pin the deletion manager and set :attr:`deletion_pinned`,
        under the same lock, for the drain callback to release."""
        self._installed.pop()
        if self.pins:
            return True
        self._drain()
        return False

    def _drain(self) -> bool:
        """Release the pinned table readers, once: False when another
        thread's retire or unref already drained."""
        try:
            self._drain_token.pop()
        except IndexError:
            return False
        with self._readers_lock:
            readers = list(self.readers.values())
            self.readers.clear()
        for reader in readers:
            reader.release()
        return True

    # -- read-source resolution ----------------------------------------------

    def file_for_key(self, level: int, user_key: bytes) -> FileMetadata | None:
        """The unique file at a sorted level (>=1) that may hold
        ``user_key`` — :meth:`Version.file_for_key` over this snapshot's
        immutable lists."""
        files = self.file_lists[level]
        if not files:
            return None
        keys = self._largest_keys[level] or self._build_largest_keys(level)
        idx = bisect.bisect_left(keys, user_key)
        if idx >= len(files):
            return None
        meta = files[idx]
        if meta.smallest_user_key <= user_key:
            return meta
        return None

    def seek_index(self, level: int, user_key: bytes) -> int:
        """Where a scan starting at ``user_key`` enters a sorted level
        (>=1): the index of the first file whose largest key is >=
        ``user_key`` (``len(files)`` past the last file) — the same bisect,
        over the same array, as :meth:`file_for_key`."""
        keys = self._largest_keys[level] or self._build_largest_keys(level)
        return bisect.bisect_left(keys, user_key)

    def _build_largest_keys(self, level: int) -> list[bytes]:
        """First use of a level's bisect array by this superversion."""
        keys = [f.largest_user_key for f in self.file_lists[level]]
        self._largest_keys[level] = keys
        return keys

    def reader_for(self, meta: FileMetadata, table_cache: "TableCache") -> "TableReader":
        """Resolve (and memoize) the table reader for ``meta``.

        The first probe of a file goes through the sharded table cache and
        pins the reader for this superversion's lifetime; later probes of
        the same file return the memoized handle without touching any
        cache shard.  The pin also keeps a retired file's handle open until
        this superversion drains — the deferred-deletion half of the
        protocol."""
        reader = self.readers.get(meta.file_number)
        if reader is not None:
            return reader
        with self._readers_lock:
            reader = self.readers.get(meta.file_number)
            if reader is not None:
                return reader
            reader = table_cache.get(meta.file_number, meta.file_name())
            reader.acquire()
            self.readers[meta.file_number] = reader
            return reader

    @property
    def pinned_reader_count(self) -> int:
        with self._readers_lock:
            return len(self.readers)

    # -- traversals ------------------------------------------------------------

    def lookup(
        self, key: bytes, sequence: int
    ) -> tuple[bytes | None, tuple[int, FileMetadata] | None]:
        """The point-read traversal, ``get``'s and ``multi_get``'s (once per
        distinct key): newest stored (unresolved) value for ``key`` at
        ``sequence``, newest component first; None covers both absent and
        deleted.

        Also returns the seek-compaction charge the walk earned, as
        ``(level, file)`` or None: the first file that cost a block read
        but did not contain the key is charged one seek if the lookup had
        to continue past it — to a later block read, or to the file that
        holds the key (LevelDB's rule).  The caller applies it under the
        engine lock once the walk is over (a compaction in the middle of a
        level walk would pull files out from under it)."""
        found, value = self.memtable.get(key, sequence)
        if not found and self.immutable is not None:
            found, value = self.immutable.get(key, sequence)
        if found:
            return value, None

        # The probe — the reader from the memo, the key hashed once (at the
        # first file asked) for every filter, the charge bookkeeping — is
        # written out twice: sharing it through a closure or a helper costs
        # a cached get more bytecodes than the probe is.
        first_miss: tuple[int, FileMetadata] | None = None
        charge: tuple[int, FileMetadata] | None = None
        readers = self.readers
        block_cache = self.block_cache
        key_hash = None
        for meta in self.level0_newest_first:
            if meta.smallest_user_key <= key <= meta.largest_user_key:
                reader = readers.get(meta.file_number)
                if reader is None:
                    reader = self.reader_for(meta, self.table_cache)
                if key_hash is None:  # _hash_pair, inlined
                    key_hash = crc32(key), crc32(_SALT1 + key + _SALT2) or 0x5BD1E995
                found, value, touched = reader.lookup(
                    key, sequence, block_cache=block_cache, key_hash=key_hash
                )
                if found:
                    return value, first_miss
                if touched:  # a block read for nothing: charged once another follows
                    charge, first_miss = first_miss, first_miss or (0, meta)
        # L2SM's log holds entries diverted FROM a level (older than its
        # content, newer than everything deeper): asked after every level.
        after_level = self.after_level
        for level in range(1, self.num_levels):
            meta = self.file_for_key(level, key)
            if meta is not None:
                reader = readers.get(meta.file_number)
                if reader is None:
                    reader = self.reader_for(meta, self.table_cache)
                if key_hash is None:
                    key_hash = crc32(key), crc32(_SALT1 + key + _SALT2) or 0x5BD1E995
                found, value, touched = reader.lookup(
                    key, sequence, block_cache=block_cache, key_hash=key_hash
                )
                if found:
                    return value, first_miss
                if touched:  # a block read for nothing: charged once another follows
                    charge, first_miss = first_miss, first_miss or (level, meta)
            if after_level:
                extra = after_level(level, key, sequence)
                if extra is not None and extra[0]:
                    return extra[1], charge
        return None, charge

    def scan_sources(
        self,
        seek: ComparableKey | None,
        end: bytes | None,
        extra: list["EntryStream"],
        charge: Callable[[int, FileMetadata], None],
    ) -> list["EntryStream"]:
        """An iterator's sources from ``seek`` (None: the first key) up to
        ``end``, newest first: the memtables, ``extra`` (L2SM's log), one
        block stream per L0 file and one per sorted level.
        ``charge(level, file)`` is called once per file the scan actually
        reads (see :meth:`level_blocks`)."""
        sources: list[EntryStream] = [
            self.memtable.entries_from(seek) if seek is not None else self.memtable.entries()
        ]
        if self.immutable is not None:
            sources.append(
                self.immutable.entries_from(seek)
                if seek is not None
                else self.immutable.entries()
            )
        sources.extend(extra)
        flatten = chain.from_iterable
        for meta in self.level0_newest_first:
            if end is not None and meta.smallest_user_key >= end:
                continue  # wholly past the bound: never opened
            sources.append(flatten(self.level_blocks(0, (meta,), 0, seek, end, charge)))
        for level in range(1, self.num_levels):
            files = self.file_lists[level]
            if files:
                first = self.seek_index(level, seek[0]) if seek is not None else 0
                sources.append(flatten(self.level_blocks(level, files, first, seek, end, charge)))
        return sources

    def level_blocks(
        self,
        level: int,
        files: list[FileMetadata] | tuple[FileMetadata, ...],
        first: int,
        seek: ComparableKey | None,
        end: bytes | None,
        charge: Callable[[int, FileMetadata], None],
    ) -> Iterator[Iterable[tuple[ComparableKey, bytes]]]:
        """The block stream of one sorted run for a scan: ``files[first:]``
        of a level >= 1 (``first`` from :meth:`seek_index`), or one L0
        file.  Each resume fetches one block and yields its entries as a
        C-level ``zip`` — this frame is the only Python between the merge
        and :meth:`TableReader.read_block` — so :meth:`scan_sources`
        flattens it with ``chain.from_iterable`` and pays nothing per row.

        * Files wholly at or past ``end`` are never opened: the run is
          disjoint and ordered, so the first such file ends the stream.
        * The reader is pinned while the stream is inside its file: a table
          cache eviction (or file retirement) must not close the handle
          under the iterator.
        * Reads follow the index order, each block handed the one before
          it so that :meth:`TableReader.read_block` can charge a miss by
          physical contiguity (sequential when it continues the last read,
          random for a file's first block or one scattered by an earlier
          Block Compaction).
        * A file is passed to ``charge`` on the first entry it actually
          produces — LevelDB's read sampling: a file that is opened but
          yields nothing charges nothing.
        * Only the first block read is cut at ``seek``; every block is
          decoded eagerly, since all of it is about to be drained — a
          cached raw block (a get's miss) in place.
        """
        table_cache = self.table_cache
        block_cache = self.block_cache
        for i in range(first, len(files)):
            meta = files[i]
            if end is not None and meta.smallest_user_key >= end:
                return
            reader = table_cache.get(meta.file_number, meta.file_name())
            reader.acquire()
            try:
                index = reader.index
                entries = index.entries
                start = 0 if seek is None else index.first_overlapping(seek[0])
                uncharged = True
                previous = None
                for entry in entries[start:] if start else entries:
                    block = reader.read_block(
                        entry, CAT_SCAN, block_cache, False, False, previous
                    )
                    previous = entry
                    keys = block.keys
                    if keys is None:  # raw, from a get's miss: decoded once, here
                        keys, values = block.decode()
                    else:
                        values = block.values
                    if seek is not None:
                        cut = bisect.bisect_left(keys, seek)
                        keys = keys[cut:]
                        values = values[cut:]
                        seek = None
                    if uncharged:
                        if not keys:
                            continue
                        charge(level, meta)
                        uncharged = False
                    yield zip(keys, values)
            finally:
                reader.release()
            seek = None
