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
    run_block_compaction,
)
from .lazy_deletion import DeletionManager
from .parallel import SubtaskExecutor, lpt_makespan
from .picker import CompactionPicker
from .policy import (
    CompactionPolicy,
    LazyLeveledPolicy,
    LeveledPolicy,
    OneLevelingPolicy,
    TieredPolicy,
    make_policy,
)
from .selective import SelectiveDecision, decide, run_selective_compaction
from .tuner import CompactionTuner, TunerDecision
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
    "LazyLeveledPolicy",
    "OneLevelingPolicy",
    "make_policy",
    "CompactionTuner",
    "TunerDecision",
    "SelectiveDecision",
    "decide",
    "run_selective_compaction",
    "build_output_tables",
    "can_trivially_move",
    "run_table_compaction",
    "run_trivial_move",
]
