"""Block Compaction — the paper's core contribution (Section III).

Instead of rewriting whole SSTables, a Block Compaction walks the child
SSTable's *extended index*, classifies each data block as clean or dirty
against the selected (parent) SSTable's keys, and:

* **clean blocks** are reused verbatim — their index entries are copied into
  the new index and their bytes are never touched (nor their block-cache
  entries invalidated);
* **dirty blocks** are read (concurrently — Algorithm 3), merged with the
  parent keys falling inside their range (Algorithm 2, ``UpdateBlock``), and
  the merged entries are appended as new blocks at the SSTable's tail;
* **gap keys** — parent keys not covered by any block — become new data
  blocks directly, without rewriting anything (the key "51"/"60" case of
  Fig 2).

The result is an in-place metadata update of the child file: it grows at
the tail, its valid-byte count changes, and superseded blocks become
obsolete bytes until a later Table Compaction collects them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..core.merge import merge_entries
from ..core.snapshot import VersionKeeper
from ..core.version import FileMetadata, clone_metadata
from ..keys import ComparableKey
from ..obs.trace import NULL_TRACER
from ..options import Options
from ..sstable.block import parse_block_raw
from ..sstable.index import IndexBlock, IndexEntry
from ..sstable.table_appender import AppendSession
from ..sstable.table_reader import TableReader
from ..storage.io_stats import CAT_COMPACTION
from .base import (
    CompactionEnv,
    CompactionResult,
    CompactionTask,
    TombstoneRule,
    drop_observer,
    merge_keep_newest,
    pinned_entry_streams,
)

ParentEntry = tuple[ComparableKey, bytes]

_INVERT = (1 << 64) - 1


@dataclass
class DirtyBlockScan:
    """Result of ``FindDirtyBlocks`` (Algorithm 3)."""

    dirty_entries: list[IndexEntry] = field(default_factory=list)
    dirty_bytes: int = 0

    def dirty_ratio(self, valid_bytes: int) -> float:
        """Fraction of the SSTable's valid bytes that must be rewritten."""
        if valid_bytes <= 0:
            return 1.0
        return min(1.0, self.dirty_bytes / valid_bytes)


def find_dirty_blocks(parent_user_keys: list[bytes], index: IndexBlock) -> DirtyBlockScan:
    """Algorithm 3: which blocks does the parent key stream touch?

    A block is dirty when at least one parent key falls inside its key
    range.  Pure index walk — no data I/O; this is what makes Selective
    Compaction's up-front decision cheap.
    """
    scan = DirtyBlockScan()
    i = 0
    n = len(parent_user_keys)
    for entry in index.entries:
        # Step 1/2 of Algorithm 3: skip blocks entirely below the cursor key
        # and keys entirely below the block.
        smallest = entry.smallest_user_key
        while i < n and parent_user_keys[i] < smallest:
            i += 1
        if i >= n:
            break
        largest = entry.largest_user_key
        if parent_user_keys[i] <= largest:
            scan.dirty_entries.append(entry)
            scan.dirty_bytes += entry.size
            while i < n and parent_user_keys[i] <= largest:
                i += 1
    return scan


@dataclass
class BlockCompactionFileStats:
    """Per-child-file outcome, used by tests and the experiment reports."""

    clean_blocks: int = 0
    dirty_blocks: int = 0
    new_blocks: int = 0
    appended_bytes: int = 0
    filter_rebuilt: bool = False


# Walk-plan op tags, chosen short because they pickle with every offloaded job.
OP_REUSE = "r"  # ("r", index_entry_idx)
OP_MERGE = "m"  # ("m", dirty_idx, parent_lo, parent_hi)
OP_GAP = "g"  # ("g", parent_lo, parent_hi)


def plan_block_walk(
    index_entries: list[IndexEntry],
    parent_slice: list[ParentEntry],
    dirty_entries: list[IndexEntry],
) -> list[tuple]:
    """Algorithm 1's walk over the child file's index, as a plan.

    Contiguous parent keys below a block become one gap op (step 3: they
    form new blocks), the ``dirty_idx``-th dirty block becomes a merge op
    over its parent span (step 4), a clean block becomes a reuse op (step
    2).  :func:`run_block_walk` executes the plan, which rides in a
    :class:`BlockMergeJob`.
    """
    dirty_idx = {e.offset: i for i, e in enumerate(dirty_entries)}
    ops: list[tuple] = []
    i = 0
    n = len(parent_slice)
    for entry_idx, entry in enumerate(index_entries):
        j = i
        smallest = entry.smallest_user_key
        while j < n and parent_slice[j][0][0] < smallest:
            j += 1
        if j > i:
            ops.append((OP_GAP, i, j))
            i = j
        if entry.offset in dirty_idx:
            largest = entry.largest_user_key
            while j < n and parent_slice[j][0][0] <= largest:
                j += 1
            ops.append((OP_MERGE, dirty_idx[entry.offset], i, j))
            i = j
        else:
            ops.append((OP_REUSE, entry_idx))
    if i < n:
        ops.append((OP_GAP, i, n))
    return ops


def _updated_entries(
    parent_entries: list[ParentEntry],
    block_entries: Iterator[tuple[ComparableKey, bytes]],
    can_drop_tombstone: Callable[[bytes], bool],
    boundaries: list[int],
    on_drop: Callable[[bytes], None] | None = None,
) -> Iterator[ParentEntry]:
    """Algorithm 2: merge-sort parent keys into one dirty block's entries,
    yielding the survivors.

    Comparable-key order puts the parent's (newer) versions of a user key
    first; the :class:`VersionKeeper` retains the newest version per
    snapshot stratum, so parent tombstones shadow child values without
    breaking live snapshots.
    """
    merged = merge_entries([iter(parent_entries), block_entries])
    last_user_key: bytes | None = None
    if not boundaries:
        # No live snapshots: keep the newest version per user key, dropping
        # droppable tombstones — no VersionKeeper bookkeeping needed.
        for entry in merged:
            (user_key, inv), value = entry
            if user_key == last_user_key:
                if on_drop is not None:
                    on_drop(value)
                continue
            last_user_key = user_key
            if inv & 0xFF == 0xFF and can_drop_tombstone(user_key):
                continue
            yield entry
        return
    keeper = VersionKeeper(boundaries)
    for entry in merged:
        (user_key, inv), value = entry
        if user_key != last_user_key:
            keeper.new_key()
            last_user_key = user_key
        sequence = (_INVERT - inv) >> 8
        if not keeper.keep(sequence):
            if on_drop is not None:
                on_drop(value)
            continue
        if (
            inv & 0xFF == 0xFF  # TYPE_DELETION
            and keeper.tombstone_unprotected(sequence)
            and can_drop_tombstone(user_key)
        ):
            continue
        yield entry


def _gap_entries(
    parent_entries: list[ParentEntry],
    can_drop_tombstone: Callable[[bytes], bool],
    keeper: VersionKeeper,
) -> Iterator[ParentEntry]:
    """Parent keys covered by no block.  The parent slice is already
    stratum-filtered upstream; only the tombstone rule needs re-checking
    here."""
    for entry in parent_entries:
        user_key, inv = entry[0]
        if (
            inv & 0xFF == 0xFF  # TYPE_DELETION
            and keeper.tombstone_unprotected((_INVERT - inv) >> 8)
            and can_drop_tombstone(user_key)
        ):
            continue
        yield entry


@dataclass(frozen=True)
class JobGeometry:
    """The slice of :class:`~repro.options.Options` a block merge needs.

    A full ``Options`` would drag unpicklable or irrelevant state across
    the process boundary and make every new option a potential pickle
    hazard; this snapshot is the complete compute contract instead.
    """

    block_size: int
    block_restart_interval: int
    compression_type: int
    verify_checksums: bool

    @classmethod
    def from_options(cls, options: Options) -> "JobGeometry":
        return cls(
            block_size=options.block_size,
            block_restart_interval=options.block_restart_interval,
            compression_type=options.compression_type(),
            verify_checksums=options.verify_checksums,
        )


@dataclass
class BlockMergeJob:
    """One child file's Block Compaction inputs, prepared once
    (:func:`prepare_block_merge_job`) and consumed by :func:`run_block_walk`
    in-process or in an offload worker (DESIGN.md §11) alike.

    Fully picklable: the :func:`plan_block_walk` plan (``ops``), the parent
    slice it indexes into, the dirty blocks' *raw stored bytes* (payload +
    trailer; the walk verifies their checksums), the snapshot boundaries
    and the :class:`TombstoneRule`.  Payloads travel either inline
    (``payloads``) or, offloaded, via a named shared-memory segment
    (``shm_name`` + ``shm_spans``), never both.  ``report_drops`` asks a
    worker for the dropped value-log pointers back (the engine carries a
    vlog).
    """

    geometry: JobGeometry
    ops: list[tuple]
    parent_entries: list[ParentEntry]
    tombstones: TombstoneRule
    boundaries: list[int] = field(default_factory=list)
    report_drops: bool = False
    payloads: list[bytes] | None = None
    shm_name: str | None = None
    shm_spans: list[tuple[int, int]] | None = None


def run_block_walk(
    job: BlockMergeJob,
    payloads: list[bytes],
    sink,
    reuse: Callable[[int], None],
    on_drop: Callable[[bytes], None] | None = None,
) -> None:
    """Execute ``job``'s plan over its dirty blocks' raw ``payloads``: each
    merge and gap op's entries go to ``sink.add_run`` as one run (the
    :class:`AppendSession` in-process, the offload worker's block cutter),
    clean blocks to ``reuse(index_entry_idx)``.  Every payload is
    checksummed and decoded before the first entry reaches the sink."""
    verify = job.geometry.verify_checksums
    blocks = [parse_block_raw(raw, verify_checksum=verify) for raw in payloads]
    can_drop_tombstone = job.tombstones.may_drop
    boundaries = job.boundaries
    parent_slice = job.parent_entries
    gap_keeper = VersionKeeper(boundaries)
    add_run = sink.add_run
    for op in job.ops:
        tag = op[0]
        if tag == OP_REUSE:
            reuse(op[1])
        elif tag == OP_GAP:
            add_run(_gap_entries(parent_slice[op[1] : op[2]], can_drop_tombstone, gap_keeper))
        else:
            add_run(
                _updated_entries(
                    parent_slice[op[2] : op[3]],
                    blocks[op[1]].entries(),
                    can_drop_tombstone,
                    boundaries,
                    on_drop,
                )
            )


def _input_key_range(
    child_meta: FileMetadata, parent_slice: list[ParentEntry]
) -> tuple[bytes, bytes]:
    """User-key span of the child file plus its parent slice."""
    if not parent_slice:
        return child_meta.smallest_user_key, child_meta.largest_user_key
    return (
        min(child_meta.smallest_user_key, parent_slice[0][0][0]),
        max(child_meta.largest_user_key, parent_slice[-1][0][0]),
    )


def prepare_block_merge_job(
    env: CompactionEnv,
    reader: TableReader,
    parent_slice: list[ParentEntry],
    child_meta: FileMetadata,
    child_level: int,
    scan: DirtyBlockScan,
) -> BlockMergeJob:
    """Build the job for one child file.  All of its I/O happens here:
    Algorithm 3's dirty-block fetch, as overlapping random reads."""
    raws: list[bytes] = []
    if scan.dirty_entries:
        raws = reader.read_blocks_raw(scan.dirty_entries, category=CAT_COMPACTION)
    return BlockMergeJob(
        geometry=JobGeometry.from_options(env.options),
        ops=plan_block_walk(reader.index.entries, parent_slice, scan.dirty_entries),
        parent_entries=parent_slice,
        tombstones=TombstoneRule.below(
            env.version, child_level, *_input_key_range(child_meta, parent_slice)
        ),
        boundaries=env.snapshot_boundaries(),
        report_drops=drop_observer(env) is not None,
        payloads=raws,
    )


def _run_offloaded(env: CompactionEnv, pool, job: BlockMergeJob, child_meta: FileMetadata):
    """Ship ``job`` to the offload pool inside a ``compaction.offload`` span."""
    tracer = getattr(env, "tracer", NULL_TRACER)
    if not tracer.enabled:
        return pool.run(job)
    tracer.begin(
        "compaction.offload",
        "compaction",
        {
            "file": child_meta.file_number,
            "dirty_blocks": len(job.payloads or ()),
            "parent_entries": len(job.parent_entries),
        },
    )
    try:
        merge = pool.run(job)
    finally:
        tracer.end("compaction.offload", "compaction")
    tracer.instant(
        "compaction.offload.result",
        "compaction",
        {
            "file": child_meta.file_number,
            "worker_pid": merge.worker_pid,
            "decoded_bytes": merge.decoded_bytes,
            "merged_entries": merge.merged_entries,
        },
    )
    return merge


def block_compact_file(
    env: CompactionEnv,
    parent_slice: list[ParentEntry],
    child_meta: FileMetadata,
    child_level: int,
    *,
    scan: DirtyBlockScan | None = None,
    pool=None,
) -> tuple[FileMetadata | None, BlockCompactionFileStats]:
    """Algorithm 1: merge ``parent_slice`` into ``child_meta`` in place.

    Returns the child file's updated metadata plus per-file statistics —
    or None for the metadata when every key of the file was tombstoned
    away: the appended index is empty, so there are no bounds to record
    and :func:`apply_block_update` retires the file instead.
    ``scan`` may carry a pre-computed ``FindDirtyBlocks`` result (Selective
    Compaction already ran it to make its decision).

    The inputs become one :class:`BlockMergeJob`.  Without ``pool`` the
    walk runs here straight into the append session; with ``pool`` (an
    :class:`~repro.compaction.offload.OffloadPool`) its compute — decode,
    merge, block rebuild, CRC — runs on a pool worker (DESIGN.md §11) and
    the rebuilt blocks the worker returns are appended here.  All
    filesystem access, its simulated charges and the value-log drop report
    stay on this side either way.
    """
    reader: TableReader = env.table_cache.get(child_meta.file_number, child_meta.file_name())
    if scan is None:
        scan = find_dirty_blocks([ck[0] for ck, _ in parent_slice], reader.index)
    index_entries = reader.index.entries
    on_drop = drop_observer(env)
    job = prepare_block_merge_job(env, reader, parent_slice, child_meta, child_level, scan)

    if pool is None:
        session = AppendSession(env.fs, reader, env.options, child_level)
        run_block_walk(
            job,
            job.payloads,
            session,
            lambda entry_idx: session.reuse(index_entries[entry_idx]),
            on_drop,
        )
    else:
        merge = _run_offloaded(env, pool, job, child_meta)
        session = AppendSession(env.fs, reader, env.options, child_level)
        for op in merge.ops:
            if op[0] == OP_REUSE:
                session.reuse(index_entries[op[1]])
            else:
                session.commit_block(*op[1:])
        if on_drop is not None:
            for stored in merge.dropped:
                on_drop(stored)

    result = session.finish()
    clean_blocks = len(index_entries) - len(scan.dirty_entries)
    stats = BlockCompactionFileStats(
        clean_blocks=clean_blocks,
        dirty_blocks=len(scan.dirty_entries),
        new_blocks=len(result.index.entries) - clean_blocks,
        appended_bytes=result.bytes_written,
        filter_rebuilt=session.filter_rebuilt,
    )
    if session.filter_rebuilt:
        env.stats.filter_rebuilds += 1
    else:
        env.stats.filter_absorbs += 1

    # Dirty blocks died; clean blocks stay valid in the block cache — the
    # cache-friendliness the paper measures in Fig 14.
    env.block_cache.invalidate_blocks(
        child_meta.file_number, {e.offset for e in scan.dirty_entries}
    )
    env.table_cache.reload(child_meta.file_number, result)

    if result.num_entries == 0:
        return None, stats
    new_meta = clone_metadata(
        child_meta,
        file_size=result.file_size,
        valid_bytes=result.valid_bytes,
        num_entries=result.num_entries,
        smallest=result.smallest,
        largest=result.largest,
        append_count=child_meta.append_count + 1,
    )
    return new_meta, stats


def apply_block_update(
    result: CompactionResult,
    child_level: int,
    old_meta: FileMetadata,
    new_meta: FileMetadata | None,
) -> None:
    """Fold one per-file outcome into the task result.

    ``new_meta`` None — the file was left with zero live entries — deletes
    the file rather than updating it.

    Holds the result's ``apply_lock``: with real parallel sub-task
    execution, several sub-tasks fold their outcomes in concurrently.
    """
    with result.apply_lock:
        if new_meta is None:
            result.edit.deleted_files.append((child_level, old_meta.file_number))
            result.obsolete_files.append(old_meta)
        else:
            result.edit.updated_files.append((child_level, new_meta))
            result.output_files += 1


def partition_parent_slices(
    parent_entries: list[ParentEntry], child_files: list[FileMetadata]
) -> list[list[ParentEntry]]:
    """Route each parent entry to exactly one child SSTable.

    Child file *i* owns every key below child file *i+1*'s smallest key; the
    last file owns everything above.  Keys below the first file's range are
    appended to the first file as new blocks (they precede its blocks in the
    rebuilt index), keeping the level's files disjoint without creating tiny
    new SSTables.
    """
    if not child_files:
        raise ValueError("partitioning requires at least one child file")
    slices: list[list[ParentEntry]] = [[] for _ in child_files]
    boundaries = [f.smallest_user_key for f in child_files[1:]]
    cursor = 0
    for entry in parent_entries:
        user_key = entry[0][0]
        while cursor < len(boundaries) and user_key >= boundaries[cursor]:
            cursor += 1
        slices[cursor].append(entry)
    return slices


def collect_parent_entries(env: CompactionEnv, task: CompactionTask) -> list[ParentEntry]:
    """Materialize the parent files' newest-version entry list (tombstones
    preserved — see :func:`merge_keep_newest`)."""
    with pinned_entry_streams(env, task.parent_files) as sources:
        return list(
            merge_keep_newest(
                sources, env.snapshot_boundaries(), on_drop=drop_observer(env)
            )
        )


def run_block_compaction(env: CompactionEnv, task: CompactionTask) -> CompactionResult:
    """Drive Block Compaction for a whole task (one parent file against all
    of its overlapped child SSTables)."""
    if not task.child_files:
        raise ValueError("block compaction requires overlapped child files")
    write_start = env.fs.stats.per_category[CAT_COMPACTION].bytes_written
    read_start = env.fs.stats.per_category[CAT_COMPACTION].bytes_read

    parent_entries = collect_parent_entries(env, task)
    slices = partition_parent_slices(parent_entries, task.child_files)

    result = CompactionResult(kind="block")
    for child_meta, parent_slice in zip(task.child_files, slices):
        if not parent_slice:
            continue
        new_meta, _stats = block_compact_file(env, parent_slice, child_meta, task.child_level)
        apply_block_update(result, task.child_level, child_meta, new_meta)

    env.fs.stats.charge_time(
        env.fs.device.merge_cpu_cost(sum(f.file_size for f in task.parent_files)),
        CAT_COMPACTION,
    )
    for meta in task.parent_files:
        result.edit.deleted_files.append((task.parent_level, meta.file_number))
    result.obsolete_files.extend(task.parent_files)

    result.bytes_written = (
        env.fs.stats.per_category[CAT_COMPACTION].bytes_written - write_start
    )
    result.bytes_read = env.fs.stats.per_category[CAT_COMPACTION].bytes_read - read_start
    return result
