"""L2SM baseline (Huang et al., ICDE 2021) — simplified re-implementation.

L2SM de-amplifies I/O by *isolating* SSTables that receive disruptive
updates: instead of repeatedly table-compacting a hot SSTable, the engine
moves it into a log component where overlapping key ranges may coexist.
Log-resident SSTables absorb updates cheaply; when the log fills, its oldest
SSTable is merged back into the LSM-tree with ordinary Table Compaction.

What this reproduction keeps (the behaviours the paper's evaluation relies
on):

* **hotness/density tracking** — every flush votes for the LSM SSTables its
  key range disrupts; tracking costs CPU, charged to the device model (the
  "extra overhead of computing the hotness and density" in Section V-C);
* **divert-to-log** — a size-picked SSTable whose hotness-per-key exceeds a
  threshold moves to the log by metadata only (zero I/O);
* **log reads** — point lookups and scans must search every overlapping log
  SSTable (the read amplification Section V-F attributes to L2SM);
* **merge-back** — log overflow table-compacts the oldest log SSTable back
  into its origin level (full rewrite, same write amplification as
  LevelDB);
* **uniform-workload failure mode** — with uniformly distributed updates no
  SSTable becomes hot, the log never helps, and L2SM degenerates into
  LevelDB plus tracking overhead: exactly what Figs 5/7 show.

Crash recovery of the log component is not implemented (the log lives
outside the manifest); this matches the scope of the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compaction.base import CompactionResult, CompactionTask
from ..compaction.table_compaction import merge_into_tables
from ..core.db import DB
from ..core.version import FileMetadata, VersionEdit
from ..keys import ComparableKey
from ..options import Options
from ..storage.fs import FileSystem
from ..storage.io_stats import CAT_COMPACTION, CAT_GET


@dataclass
class LogEntry:
    """One SSTable parked in the multi-level log."""

    meta: FileMetadata
    origin_level: int
    sequence: int  # admission order; oldest merges back first


class L2SMDB(DB):
    """The engine with L2SM's multi-level log grafted on."""

    def __init__(
        self,
        fs: FileSystem | None = None,
        options: Options | None = None,
        *,
        hot_updates_per_key: float = 1.0,
        log_capacity_factor: float = 2.0,
    ):
        #: updates-per-key threshold above which an SSTable is "hot".
        self.hot_updates_per_key = hot_updates_per_key
        self._log: list[LogEntry] = []
        self._log_sequence = 0
        self._hotness: dict[int, int] = {}
        super().__init__(fs, options)
        #: Log capacity relative to L1 (the paper sizes the log per level).
        self.log_capacity_bytes = int(
            log_capacity_factor * self.options.level_capacity_bytes(1)
        )

    # -- hotness tracking ----------------------------------------------------------

    def _on_flush(self, meta: FileMetadata) -> None:
        """Every flush votes: SSTables overlapping the flushed blocks gain
        hotness proportional to the flushed entries landing on them."""
        reader = self.table_cache.get(meta.file_number, meta.file_name())
        for entry in reader.index.entries:
            lo, hi = entry.smallest_user_key, entry.largest_user_key
            for level in range(1, self.version.num_levels):
                for victim in self.version.overlapping_files(level, lo, hi):
                    self._hotness[victim.file_number] = (
                        self._hotness.get(victim.file_number, 0) + entry.num_entries
                    )
        # The tracking pass is the CPU overhead the paper observes.
        self.fs.stats.charge_time(
            self.fs.device.merge_cpu_cost(meta.file_size), CAT_COMPACTION
        )

    # -- divert-to-log ------------------------------------------------------------------

    def _maybe_divert_task(self, task: CompactionTask) -> CompactionResult | None:
        if task.parent_level == 0 or len(task.parent_files) != 1 or task.reason != "size":
            return None
        meta = task.parent_files[0]
        hotness = self._hotness.get(meta.file_number, 0)
        if meta.num_entries == 0 or hotness / meta.num_entries < self.hot_updates_per_key:
            return None
        # Hot SSTable: park it in the log by metadata only.
        self._log_sequence += 1
        self._log.append(LogEntry(meta, task.parent_level, self._log_sequence))
        self._hotness.pop(meta.file_number, None)
        result = CompactionResult(kind="divert")
        result.edit.deleted_files.append((task.parent_level, meta.file_number))
        return result

    def _post_compaction_maintenance(self) -> None:
        """Drain the log at the engine's safe point (no task in flight)."""
        self._maybe_drain_log()

    def log_bytes(self) -> int:
        return sum(e.meta.file_size for e in self._log)

    def log_files(self) -> list[FileMetadata]:
        return [e.meta for e in self._log]

    def _maybe_drain_log(self) -> None:
        while self._log and self.log_bytes() > self.log_capacity_bytes:
            self._merge_back(self._log.pop(0))

    def _merge_back(self, entry: LogEntry) -> None:
        """Table-compact a log SSTable back into its origin level — the full
        rewrite that keeps L2SM's write amplification at LevelDB levels."""
        level = min(entry.origin_level, self.version.num_levels - 1)
        overlaps = self.version.overlapping_files(
            level, entry.meta.smallest_user_key, entry.meta.largest_user_key
        )
        write_start = self.fs.stats.per_category[CAT_COMPACTION].bytes_written
        outputs = merge_into_tables(self, [entry.meta] + overlaps, level)
        edit = VersionEdit(next_file_number=self._next_file_number)
        for meta in outputs:
            meta.built = None  # no eager open here to take it
            edit.new_files.append((level, meta))
        for meta in overlaps:
            edit.deleted_files.append((level, meta.file_number))
        self._apply_edit(edit)
        self.deletion_manager.retire([entry.meta] + overlaps)
        written = self.fs.stats.per_category[CAT_COMPACTION].bytes_written - write_start
        self.stats.charge_level_write(level, written)
        self.stats.compaction_bytes_written += written
        self.stats.table_compactions += 1
        self._observe_space()

    # -- read paths through the log -----------------------------------------------------

    def _extra_get_after_level(
        self, level: int, key: bytes, snapshot: int
    ) -> tuple[bool, bytes | None] | None:
        # The log is not superversion-safe: a reader probes it under the
        # engine lock.
        with self._lock:
            candidates = [e for e in self._log if e.origin_level == level]
            for entry in sorted(candidates, key=lambda e: e.sequence, reverse=True):
                meta = entry.meta
                if not (meta.smallest_user_key <= key <= meta.largest_user_key):
                    continue
                reader = self.table_cache.get(meta.file_number, meta.file_name())
                found, value, _touched = reader.lookup(
                    key, snapshot, block_cache=self.block_cache, category=CAT_GET
                )
                if found:
                    return found, value
            return None

    def _extra_entry_sources(self, seek: ComparableKey | None, category: str):
        sources = []
        for entry in self._log:
            meta = entry.meta
            reader = self.table_cache.get(meta.file_number, meta.file_name())
            sources.append(
                reader.entries_from(seek, category=category, block_cache=self.block_cache)
            )
        return sources

    # -- accounting -------------------------------------------------------------

    def _observe_space(self) -> None:
        total = (
            self.version.total_file_bytes()
            + self.deletion_manager.pending_bytes
            + self.log_bytes()
        )
        self.stats.observe_space(total)
