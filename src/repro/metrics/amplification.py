"""Amplification metrics — the quantities the paper's evaluation reports.

The functions read a live :class:`~repro.core.db.DB`, or for the catalog
rows a bare :class:`~repro.core.version.Version`; nothing here mutates
state, so they can be sampled mid-run (e.g. for the per-level series).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from ..errors import FileSystemError

if TYPE_CHECKING:  # pragma: no cover - type-only; a runtime import would cycle
    from ..core.db import DB
    from ..core.version import Version
    from ..storage.fs import FileSystem


class LevelRow(NamedTuple):
    """One level's catalog totals."""

    level: int
    files: int
    file_bytes: int
    valid_bytes: int
    obsolete_bytes: int
    #: Block Compaction appends into the level's files, summed.
    appends: int


class VlogRow(NamedTuple):
    """One registered value-log file: its on-disk size and the dead bytes
    compactions have journaled against it."""

    file: str
    size: int
    dead_bytes: int

    @property
    def live_bytes(self) -> int:
        return max(0, self.size - self.dead_bytes)


def level_rows(version: Version) -> list[LevelRow]:
    """One row per level of ``version`` — the per-level table of
    ``DB.debug_string``, the offline store report and the scrape.  The
    caller holds whatever lock keeps ``version`` still."""
    return [
        LevelRow(
            level,
            len(files),
            version.level_file_bytes(level),
            version.level_valid_bytes(level),
            version.level_obsolete_bytes(level),
            sum(f.append_count for f in files),
        )
        for level, files in enumerate(version.levels)
    ]


def vlog_utilization(fs: FileSystem, version: Version) -> list[VlogRow]:
    """Per-value-log-file utilization from ``version``'s garbage ledger, in
    file-number order.  The ledger is GC's scheduling heuristic — dead
    counts reset on repair and lag the newest drops — so ratios are
    advisory, not exact.  A file that cannot be sized counts as empty."""
    from ..vlog import vlog_file_name  # the vlog package imports the fs layer

    rows = []
    for number in sorted(version.vlog):
        name = vlog_file_name(number)
        try:
            size = fs.file_size(name)
        except (FileSystemError, OSError):
            size = 0
        rows.append(VlogRow(name, size, version.vlog[number]))
    return rows


def write_amplification(db: DB) -> float:
    """SSTable bytes written (flush + compaction) / user bytes written —
    the paper's Fig 7/18 metric."""
    return db.stats.write_amplification()


def write_amplification_with_wal(db: DB) -> float:
    """Variant that also counts WAL traffic (total physical writes)."""
    if db.stats.user_bytes_written == 0:
        return 0.0
    wal = db.io_stats.per_category.get("wal")
    wal_bytes = wal.bytes_written if wal else 0
    return (db.stats.sst_bytes_written() + wal_bytes) / db.stats.user_bytes_written


def per_level_write_traffic(db: DB) -> list[int]:
    """Bytes written into each level (Fig 8): flushes into L0, compactions
    from L(i) into L(i+1)."""
    db.stats.ensure_levels(db.options.max_levels)
    return list(db.stats.per_level_write_bytes)


def space_amplification(db: DB) -> float:
    """Peak on-disk bytes / user bytes (Fig 9)."""
    return db.stats.space_amplification()


def current_space_bytes(db: DB) -> int:
    """Live + not-yet-deleted obsolete bytes right now."""
    return db.version.total_file_bytes() + db.deletion_manager.pending_bytes


def per_level_obsolete_bytes(db: DB) -> list[int]:
    """Peak obsolete (superseded) bytes observed per level (Fig 10) — the
    space Block Compaction leaves behind until Table Compaction collects it."""
    db.stats.ensure_levels(db.options.max_levels)
    return list(db.stats.per_level_max_obsolete_bytes)


def read_amplification(db: DB) -> float:
    """Bytes read per point lookup (supplementary metric)."""
    if db.stats.gets == 0:
        return 0.0
    get_cat = db.io_stats.per_category.get("get")
    return (get_cat.bytes_read if get_cat else 0) / db.stats.gets


def block_cache_miss_ratio(db: DB) -> float:
    """Fraction of block fetches missing the cache (Fig 14's metric)."""
    stats = db.block_cache.stats
    total = stats.hits + stats.misses
    return stats.misses / total if total else 0.0
