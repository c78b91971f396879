"""Selective Compaction — Algorithm 4 (paper Section IV-A).

For every overlapped child SSTable, choose Table or Block Compaction from
three per-level thresholds:

1. **valid size** — a file grown past ``max_file_size[level]`` is Table
   Compacted so it splits back into ordered, normally sized SSTables (the
   paper's listing tests ``<`` here, but the prose says *exceeding* the
   threshold triggers the split; we follow the prose — see DESIGN.md);
2. **valid ratio** — a file whose live fraction dropped below
   ``min_valid_ratio[level]`` is Table Compacted as garbage collection;
3. **dirty ratio** — when ``FindDirtyBlocks`` reports more than
   ``max_dirty_ratio[level]`` of the valid bytes dirty, Block Compaction
   would rewrite nearly everything while still appending (2x space), so
   Table Compaction wins; otherwise Block Compaction minimizes write
   amplification.

The block style is the same driver with the rule fixed to Block Compaction
for every child its parent slice touches (:func:`run_block_compaction`), so
both styles get Parallel Merging and the offload pool from one loop.

L0 -> L1 compactions never reach this module (L0 files overlap arbitrarily,
so block-grained reuse cannot apply — the DB routes them to Table
Compaction directly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.version import FileMetadata
from ..storage.io_stats import CAT_COMPACTION
from .base import CompactionEnv, CompactionResult, CompactionTask
from .block_compaction import (
    apply_block_update,
    DirtyBlockScan,
    ParentEntry,
    block_compact_file,
    collect_parent_entries,
    find_dirty_blocks,
    partition_parent_slices,
)
from .parallel import SubtaskExecutor
from .table_compaction import merge_into_tables


@dataclass
class SelectiveDecision:
    """Why one child SSTable got the compaction type it did."""

    file_number: int
    compaction_type: str  # 'table' | 'block' | 'skip'
    rule: str  # 'valid-size' | 'valid-ratio' | 'dirty-ratio' | 'block' | 'empty-slice'
    dirty_ratio: float = 0.0
    scan: DirtyBlockScan | None = None


def decide(
    env: CompactionEnv,
    parent_slice: list[ParentEntry],
    child_meta: FileMetadata,
    child_level: int,
) -> SelectiveDecision:
    """Algorithm 4's decision for one overlapped SSTable.

    The paper's "last level L_N" is the deepest level holding data (where
    space amplification matters most, Section IV-A), not the configured
    maximum — a growing tree promotes what counts as "last" over time, so
    the threshold set is chosen dynamically.
    """
    if child_level >= env.version.deepest_nonempty_level():
        thresholds = env.options.selective_thresholds[-1]
    else:
        thresholds = env.options.selective_thresholds[
            min(child_level, len(env.options.selective_thresholds) - 1)
        ]
    if not parent_slice:
        return SelectiveDecision(child_meta.file_number, "skip", "empty-slice")
    # Rule 1: the file grew too large -> split it (prose semantics; the
    # paper's listing has the comparison inverted, see module docstring).
    if child_meta.file_size > env.options.max_file_size(child_level):
        return SelectiveDecision(child_meta.file_number, "table", "valid-size")
    # Rule 2: too many obsolete bytes -> garbage-collect.
    if child_meta.file_size > 0 and (
        child_meta.valid_bytes / child_meta.file_size < thresholds.min_valid_ratio
    ):
        return SelectiveDecision(child_meta.file_number, "table", "valid-ratio")
    # Rule 3: FindDirtyBlocks, then the dirty-ratio trade-off.
    reader = env.table_cache.get(child_meta.file_number, child_meta.file_name())
    scan = find_dirty_blocks([ck[0] for ck, _ in parent_slice], reader.index)
    ratio = scan.dirty_ratio(child_meta.valid_bytes)
    if ratio > thresholds.max_dirty_ratio:
        return SelectiveDecision(child_meta.file_number, "table", "dirty-ratio", ratio, scan)
    return SelectiveDecision(child_meta.file_number, "block", "block", ratio, scan)


def _table_rewrite_subtask(
    env: CompactionEnv,
    parent_slice: list[ParentEntry],
    child_meta: FileMetadata,
    child_level: int,
    result: CompactionResult,
) -> None:
    """Rewrite one child SSTable merged with its parent slice (the Table
    Compaction arm of a selective task)."""
    outputs = merge_into_tables(env, [child_meta], child_level, head=parent_slice)
    with result.apply_lock:
        for meta in outputs:
            result.edit.new_files.append((child_level, meta))
        result.edit.deleted_files.append((child_level, child_meta.file_number))
        result.obsolete_files.append(child_meta)
        result.output_files += len(outputs)
    env.fs.stats.charge_time(
        env.fs.device.merge_cpu_cost(child_meta.file_size), CAT_COMPACTION
    )


def _always_block(
    env: CompactionEnv,
    parent_slice: list[ParentEntry],
    child_meta: FileMetadata,
    child_level: int,
) -> SelectiveDecision:
    """The block style's fixed rule: Block Compaction for every child its
    parent slice touches.  It opens no reader and scans no index —
    :func:`block_compact_file` runs ``FindDirtyBlocks`` itself inside the
    sub-task, so table-cache opens and device charges come in child order."""
    if not parent_slice:
        return SelectiveDecision(child_meta.file_number, "skip", "empty-slice")
    return SelectiveDecision(child_meta.file_number, "block", "block")


def run_block_compaction(
    env: CompactionEnv, task: CompactionTask, executor: SubtaskExecutor
) -> CompactionResult:
    """The block style: :func:`run_selective_compaction`'s driver with the
    per-child rule fixed to :func:`_always_block`."""
    return _run_per_child(env, task, executor, _always_block, "block")


def run_selective_compaction(
    env: CompactionEnv,
    task: CompactionTask,
    executor: SubtaskExecutor,
    decisions_out: list[SelectiveDecision] | None = None,
) -> CompactionResult:
    """Drive one parent file against its overlapped children, choosing the
    scheme per child with Algorithm 4 (:func:`decide`)."""
    return _run_per_child(env, task, executor, decide, "selective", decisions_out)


def _run_per_child(
    env: CompactionEnv,
    task: CompactionTask,
    executor: SubtaskExecutor,
    rule: Callable[..., SelectiveDecision],
    kind: str,
    decisions_out: list[SelectiveDecision] | None = None,
) -> CompactionResult:
    """The one per-child driver: ``rule`` picks each child's scheme, and the
    per-child sub-tasks run on ``executor`` (Parallel Merging).

    When the executor holds an offload pool the block subtasks' merge
    compute runs on it (DESIGN.md §11); their I/O and commit bookkeeping
    stay here."""
    if not task.child_files:
        raise ValueError(f"{kind} compaction requires overlapped child files")
    write_start = env.fs.stats.per_category[CAT_COMPACTION].bytes_written
    read_start = env.fs.stats.per_category[CAT_COMPACTION].bytes_read

    parent_entries = collect_parent_entries(env, task)
    slices = partition_parent_slices(parent_entries, task.child_files)

    result = CompactionResult(kind=kind)
    table_sub = 0
    block_sub = 0
    subtasks = []
    for child_meta, parent_slice in zip(task.child_files, slices):
        decision = rule(env, parent_slice, child_meta, task.child_level)
        if decisions_out is not None:
            decisions_out.append(decision)
        if decision.compaction_type == "skip":
            continue
        if decision.compaction_type == "table":
            table_sub += 1
            subtasks.append(
                lambda s=parent_slice, m=child_meta: _table_rewrite_subtask(
                    env, s, m, task.child_level, result
                )
            )
        else:
            block_sub += 1

            def block_subtask(
                s=parent_slice, m=child_meta, scan=decision.scan
            ) -> None:
                """Block-compact one child file and fold in its outcome."""
                new_meta, _stats = block_compact_file(
                    env, s, m, task.child_level, scan=scan, pool=executor.offload_pool
                )
                apply_block_update(result, task.child_level, m, new_meta)

            subtasks.append(block_subtask)

    executor.run(subtasks)

    env.fs.stats.charge_time(
        env.fs.device.merge_cpu_cost(sum(f.file_size for f in task.parent_files)),
        CAT_COMPACTION,
    )
    for meta in task.parent_files:
        result.edit.deleted_files.append((task.parent_level, meta.file_number))
    result.obsolete_files.extend(task.parent_files)

    result.table_subtasks = table_sub
    result.block_subtasks = block_sub
    result.bytes_written = (
        env.fs.stats.per_category[CAT_COMPACTION].bytes_written - write_start
    )
    result.bytes_read = env.fs.stats.per_category[CAT_COMPACTION].bytes_read - read_start
    return result
