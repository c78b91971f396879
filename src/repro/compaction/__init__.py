"""Compaction schemes: Table, Block, Selective, plus the paper's optimizations."""

from .base import (
    CompactionEnv,
    CompactionResult,
    CompactionTask,
    merge_keep_newest,
    merge_live,
)
from .block_compaction import (
    BlockCompactionFileStats,
    DirtyBlockScan,
    block_compact_file,
    find_dirty_blocks,
    partition_parent_slices,
)
from .lazy_deletion import DeletionManager
from .parallel import SubtaskExecutor, lpt_makespan
from .picker import CompactionPicker
from .policy import (
    CompactionPolicy,
    LeveledPolicy,
    OneLevelingPolicy,
    TieredPolicy,
    make_policy,
)
from .selective import (
    SelectiveDecision,
    decide,
    run_block_compaction,
    run_selective_compaction,
)
from .table_compaction import (
    build_output_tables,
    can_trivially_move,
    run_table_compaction,
    run_trivial_move,
)

__all__ = [
    "CompactionEnv",
    "CompactionResult",
    "CompactionTask",
    "merge_keep_newest",
    "merge_live",
    "BlockCompactionFileStats",
    "DirtyBlockScan",
    "block_compact_file",
    "find_dirty_blocks",
    "partition_parent_slices",
    "run_block_compaction",
    "DeletionManager",
    "SubtaskExecutor",
    "lpt_makespan",
    "CompactionPicker",
    "CompactionPolicy",
    "LeveledPolicy",
    "TieredPolicy",
    "OneLevelingPolicy",
    "make_policy",
    "SelectiveDecision",
    "decide",
    "run_selective_compaction",
    "build_output_tables",
    "can_trivially_move",
    "run_table_compaction",
    "run_trivial_move",
]
