"""Lazy Deletion (paper Section IV-C).

LevelDB's ``DeleteObsoleteFiles`` runs after *every* compaction: it lists
the working directory and checks each file against the live set — an
overhead proportional to the file count, paid at high frequency.  Lazy
Deletion batches this: obsolete files queue up until their total size
reaches a threshold (:data:`LAZY_DELETION_FACTOR` SSTables), and one
directory scan retires them all.

Two additional concerns the DB delegates here:

* **Iterator safety** — physical deletion is deferred while any iterator is
  live, since iterators read blocks lazily from pinned files.
* **Cache hygiene** — a file's block-cache and table-cache entries are
  invalidated the moment it becomes obsolete (at ``retire`` time), not when
  the bytes are finally unlinked; the cache must never serve dead data.
"""

from __future__ import annotations

from ..cache.block_cache import BlockCache
from ..cache.table_cache import TableCache
from ..core.version import FileMetadata
from ..metrics.stats import DBStats
from ..options import Options
from ..storage.fs import FileSystem

#: Lazy Deletion's threshold, in SSTables: queued obsolete bytes are
#: cleaned once they reach ``LAZY_DELETION_FACTOR x sstable_size``.  The
#: paper sets 200 MB against 16 MB tables (12.5x); 12 is the ratio Table II
#: was measured, and is pinned, at.
LAZY_DELETION_FACTOR = 12


class DeletionManager:
    """Retires obsolete SSTable files, eagerly or lazily."""

    def __init__(
        self,
        fs: FileSystem,
        options: Options,
        table_cache: TableCache,
        block_cache: BlockCache,
        stats: DBStats,
    ):
        self._fs = fs
        self._options = options
        self._table_cache = table_cache
        self._block_cache = block_cache
        self._stats = stats
        self._pending: list[FileMetadata] = []
        self._pending_bytes = 0
        self._iterator_pins = 0
        #: Queued obsolete bytes that trigger a lazy cleanup.
        self.threshold = LAZY_DELETION_FACTOR * options.sstable_size

    @property
    def pending_files(self) -> int:
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes

    @property
    def active_pins(self) -> int:
        return self._iterator_pins

    # -- iterator pinning -----------------------------------------------------

    def pin(self) -> None:
        """An iterator was opened: defer physical deletion."""
        self._iterator_pins += 1

    def unpin(self) -> None:
        """An iterator closed; clean up if deletions were waiting."""
        if self._iterator_pins <= 0:
            raise RuntimeError("unpin without matching pin")
        self._iterator_pins -= 1
        if self._iterator_pins == 0:
            self.maybe_clean()

    # -- retirement -------------------------------------------------------------

    def retire(self, files: list[FileMetadata]) -> None:
        """Mark files obsolete.

        Their cache entries die immediately (Table Compaction's cache
        invalidation, measured in Fig 14); the bytes are unlinked now or
        later depending on the Lazy Deletion setting.
        """
        for meta in files:
            self._table_cache.evict(meta.file_number)
            self._block_cache.invalidate_file(meta.file_number)
            self._pending.append(meta)
            self._pending_bytes += meta.file_size
        self.maybe_clean()

    def maybe_clean(self) -> None:
        """Apply the triggering policy."""
        if not self._pending or self._iterator_pins > 0:
            return
        if self._options.lazy_deletion:
            if self._pending_bytes >= self.threshold:
                self.clean_now()
        else:
            # LevelDB behaviour: clean after every compaction.
            self.clean_now()

    def clean_now(self) -> None:
        """One directory scan, then unlink every queued file."""
        if not self._pending:
            return
        if self._iterator_pins > 0:
            return
        # The scan is the cost Lazy Deletion amortizes (Table II).
        self._fs.scan_directory()
        self._stats.obsolete_scans += 1
        for meta in self._pending:
            name = meta.file_name()
            if self._fs.exists(name):
                self._fs.delete_file(name)
            self._stats.obsolete_files_deleted += 1
        self._pending.clear()
        self._pending_bytes = 0

    def flush_all(self) -> None:
        """Unconditional cleanup (DB close)."""
        self._iterator_pins = 0
        self.clean_now()
