"""Flushing an immutable memtable to a level-0 SSTable."""

from __future__ import annotations

from ..compaction.base import merge_keep_newest
from ..memtable.memtable import MemTable
from ..options import Options
from ..sstable.table_builder import TableBuilder
from ..storage.fs import FileSystem
from ..storage.io_stats import CAT_FLUSH
from .version import FileMetadata, built_file_metadata, table_file_name


def flush_memtable(
    fs: FileSystem,
    options: Options,
    memtable: MemTable,
    file_number: int,
    snapshot_boundaries: list[int] | None = None,
    on_drop=None,
) -> FileMetadata | None:
    """Serialize ``memtable`` into ``<file_number>.sst`` at level 0.

    Keeps, per user key, the newest version of every live snapshot stratum
    (just the newest overall when no snapshots are live).  Tombstones are
    always preserved — an L0 flush cannot know what deeper levels hold.

    ``on_drop`` (when given) is called with each dropped entry's stored
    value — the value-log garbage ledger's observation hook.

    Returns None when the memtable holds no live entries at all.
    """
    builder = TableBuilder(fs, table_file_name(file_number), options, level=0, category=CAT_FLUSH)
    builder.add_run(merge_keep_newest([memtable.entries()], snapshot_boundaries, on_drop))
    if builder.empty():
        builder.abandon()
        return None
    return built_file_metadata(file_number, builder.finish(), options)
