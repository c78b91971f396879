"""Table Compaction — the conventional SSTable-grained scheme (paper Fig 1).

Reads every input SSTable in full, merge-sorts all key-value pairs, writes a
fresh run of SSTables at the child level (rotated at the configured SSTable
size), and retires every input.  This is the LevelDB/RocksDB baseline whose
write amplification Block Compaction attacks, and it remains the garbage-
collection / splitting arm of Selective Compaction.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

from ..core.version import FileMetadata, built_file_metadata, clone_metadata, table_file_name
from ..keys import ComparableKey
from ..sstable.table_builder import TableBuilder
from ..storage.io_stats import CAT_COMPACTION
from .base import (
    CompactionEnv,
    CompactionResult,
    CompactionTask,
    TombstoneRule,
    drop_observer,
    merge_live,
    pinned_entry_streams,
)


def can_trivially_move(env: CompactionEnv, task: CompactionTask) -> bool:
    """A single parent file with no child overlap moves by metadata only.

    Except on a seek compaction when Block Compaction has appended to the
    file: its blocks are out of key order, a move would carry that layout
    down unchanged, and the reads that asked for the compaction would keep
    paying a device seek per out-of-order run.  That file is rewritten."""
    if len(task.parent_files) != 1 or task.child_files:
        return False
    return not (task.reason == "seek" and task.parent_files[0].append_count > 0)


def run_trivial_move(env: CompactionEnv, task: CompactionTask) -> CompactionResult:
    """Re-link the file into the child level: zero I/O (RocksDB's trivial
    move; the paper notes BlockDB supports it too)."""
    meta = task.parent_files[0]
    result = CompactionResult(kind="trivial")
    result.edit.deleted_files.append((task.parent_level, meta.file_number))
    result.edit.new_files.append((task.child_level, clone_metadata(meta)))
    return result


def build_output_tables(
    env: CompactionEnv,
    live_stream: Iterator[tuple[ComparableKey, bytes]],
    child_level: int,
) -> list[FileMetadata]:
    """Serialize a merged live-entry stream into child-level SSTables,
    rotating output files at the configured SSTable size.

    Each output file takes one run of the stream; the run stops at the
    first user key met once the file reaches ``sstable_size``, so rotation
    never splits one user key's versions across two files (live snapshots
    can make several versions survive the merge): level files must stay
    disjoint at user-key granularity."""
    outputs: list[FileMetadata] = []
    sstable_size = env.options.sstable_size
    entries = iter(live_stream)
    head = next(entries, None)
    while head is not None:
        number = env.new_file_number()
        builder = TableBuilder(
            env.fs,
            table_file_name(number),
            env.options,
            child_level,
            category=CAT_COMPACTION,
        )
        head = builder.add_run(chain((head,), entries), sstable_size)
        outputs.append(built_file_metadata(number, builder.finish(), env.options))
    return outputs


def merge_into_tables(
    env: CompactionEnv,
    files: list[FileMetadata],
    level: int,
    head: Sequence[tuple[ComparableKey, bytes]] = (),
) -> list[FileMetadata]:
    """The one Table Compaction merge: ``files`` (read with their readers
    pinned) plus ``head`` (an already-merged parent slice) become fresh
    ``level`` SSTables, keeping the newest version per snapshot stratum and
    dropping the tombstones the :class:`TombstoneRule` over all inputs
    allows."""
    lo = min(f.smallest_user_key for f in files)
    hi = max(f.largest_user_key for f in files)
    if head:
        lo, hi = min(lo, head[0][0][0]), max(hi, head[-1][0][0])
    rule = TombstoneRule.below(env.version, level, lo, hi)
    with pinned_entry_streams(env, files) as sources:
        stream = merge_live(
            [iter(head)] + sources if head else sources,
            rule.may_drop,
            env.snapshot_boundaries(),
            on_drop=drop_observer(env),
        )
        return build_output_tables(env, stream, level)


def run_table_compaction(env: CompactionEnv, task: CompactionTask) -> CompactionResult:
    """Merge all of ``task``'s inputs into fresh child-level SSTables."""
    inputs = task.parent_files + task.child_files
    write_start = env.fs.stats.per_category[CAT_COMPACTION].bytes_written
    read_start = env.fs.stats.per_category[CAT_COMPACTION].bytes_read

    result = CompactionResult(kind="table")
    outputs = merge_into_tables(env, inputs, task.child_level)
    env.fs.stats.charge_time(
        env.fs.device.merge_cpu_cost(sum(f.file_size for f in inputs)), CAT_COMPACTION
    )

    for meta in outputs:
        result.edit.new_files.append((task.child_level, meta))
    result.output_files = len(outputs)
    for meta in task.parent_files:
        result.edit.deleted_files.append((task.parent_level, meta.file_number))
    for meta in task.child_files:
        result.edit.deleted_files.append((task.child_level, meta.file_number))
    result.obsolete_files.extend(inputs)

    result.bytes_written = (
        env.fs.stats.per_category[CAT_COMPACTION].bytes_written - write_start
    )
    result.bytes_read = env.fs.stats.per_category[CAT_COMPACTION].bytes_read - read_start
    return result
