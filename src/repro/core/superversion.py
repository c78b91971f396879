"""Refcounted superversions — the engine's one read path (DESIGN.md §9).

A :class:`SuperVersion` is an immutable snapshot of the engine's read
sources: the active memtable, the frozen immutable memtable (if any), and
the manifest Version's per-level file lists.  The DB installs a new one
under the engine lock whenever any of those change (memtable rotation,
flush commit, compaction commit) and retires the old one; readers take the
engine lock only long enough to load the current pointer and increment its
refcount — LevelDB's ``Version::Ref/Unref`` discipline — then resolve the
whole lookup against their private snapshot with no lock held.  Every
``get``, ``multi_get`` and iterator reads this way in every mode;
synchronous mode is the case with one reader.

Lifecycle invariants:

* A superversion is born with one *install* reference, dropped by
  :meth:`retire` when it stops being current.
* While a retired superversion still has reader references, the DB holds
  one :class:`~repro.compaction.lazy_deletion.DeletionManager` pin on its
  behalf, so files that a compaction retired stay physically present until
  the last in-flight reader drops its reference (deferred deletion).
* The last ``unref`` releases the memoized pinned table readers and then
  invokes the drain callback **without holding the superversion's lock**
  (the callback takes the engine lock; holding ``_ref_lock`` across it
  would invert the engine-lock → ``_ref_lock`` order used by ``retire``).
"""

from __future__ import annotations

import bisect
import threading
from typing import TYPE_CHECKING, Callable

from .version import FileMetadata

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.table_cache import TableCache
    from ..memtable.memtable import MemTable
    from ..sstable.table_reader import TableReader


class SuperVersion:
    """One immutable generation of the engine's read sources."""

    def __init__(
        self,
        number: int,
        memtable: "MemTable",
        immutable: "MemTable | None",
        file_lists: list[list[FileMetadata]],
        on_drain: Callable[["SuperVersion"], None],
    ):
        #: Monotonic generation number (diagnostics and tests).
        self.number = number
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
        self._ref_lock = threading.Lock()
        self._refs = 1  # the install reference
        #: True once ``retire`` found live readers and the DB took a
        #: deletion-manager pin for this superversion; the drain callback
        #: releases that pin.
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
        with self._ref_lock:
            return self._refs

    def ref(self) -> "SuperVersion":
        """Add a reader reference (caller holds the engine lock, so this
        superversion is current and cannot have drained)."""
        with self._ref_lock:
            if self._refs <= 0:
                raise RuntimeError("ref on a drained superversion")
            self._refs += 1
        return self

    def unref(self) -> None:
        """Drop a reader reference; the last one out drains the
        superversion (releases pinned readers, fires the drain callback)."""
        with self._ref_lock:
            if self._refs <= 0:
                raise RuntimeError("unref without matching ref")
            self._refs -= 1
            drained = self._refs == 0
        if drained:
            self._drain()

    def retire(self) -> bool:
        """Drop the install reference when a newer superversion replaces
        this one.  Called under the engine lock; returns True when live
        readers remain — the caller must then pin the deletion manager,
        which the drain callback will release."""
        with self._ref_lock:
            if self._refs <= 0:
                raise RuntimeError("retire on a drained superversion")
            self._refs -= 1
            drained = self._refs == 0
            if not drained:
                self.deletion_pinned = True
        if drained:
            self._drain()
            return False
        return True

    def _drain(self) -> None:
        with self._readers_lock:
            readers = list(self.readers.values())
            self.readers.clear()
        for reader in readers:
            reader.release()
        self._on_drain(self)

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
