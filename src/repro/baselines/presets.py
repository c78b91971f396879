"""Competitor system presets (paper Section V).

The four systems the paper evaluates, expressed over one engine:

* ``leveldb_like`` — LevelDB 1.20: Table Compaction, seek compaction,
  block-based bloom filters, eager obsolete-file deletion.
* ``rocksdb_like`` — RocksDB 6.16.5 (leveled): Table Compaction, **no**
  seek compaction (the Section V-G difference), table-based full filters.
* ``blockdb`` — the paper's system: Selective (Block+Table) Compaction,
  Parallel Merging, Lazy Deletion, reserved-bits bloom filters, seek
  compaction (inherited from its LevelDB base).
* L2SM lives in :mod:`repro.baselines.l2sm` (it changes behaviour, not just
  configuration).

All presets share the paper's common experimental settings (Section V-B)
relative to a caller-chosen SSTable size, mirroring "we equip all
competitors with the same settings".
"""

from __future__ import annotations

from ..options import (
    COMPACTION_SELECTIVE,
    COMPACTION_TABLE,
    FILTER_BLOCK,
    FILTER_TABLE,
    Options,
)


def _common(sstable_size: int, block_cache_capacity: int, **overrides) -> dict:
    base = dict(
        sstable_size=sstable_size,
        memtable_size=sstable_size,  # Section V-I: memtable size == SSTable size
        level0_size_factor=8,  # L0 (and L1) hold 8 SSTables
        level_size_multiplier=10,
        level0_slowdown_writes_trigger=12,
        level0_stop_writes_trigger=16,
        block_cache_capacity=block_cache_capacity,
        bloom_bits_per_key=10,
    )
    base.update(overrides)
    return base


def leveldb_like(
    sstable_size: int = 16 * 1024 * 1024,
    block_cache_capacity: int = 4 * 1024 * 1024 * 1024,
    **overrides,
) -> Options:
    """LevelDB 1.20 configuration."""
    params = _common(
        sstable_size,
        block_cache_capacity,
        compaction_style=COMPACTION_TABLE,
        enable_seek_compaction=True,
        filter_policy=FILTER_BLOCK,
        lazy_deletion=False,
        parallel_merging=False,
    )
    params.update(overrides)
    return Options(**params)


def rocksdb_like(
    sstable_size: int = 16 * 1024 * 1024,
    block_cache_capacity: int = 4 * 1024 * 1024 * 1024,
    **overrides,
) -> Options:
    """RocksDB 6.16.5 leveled-compaction configuration."""
    params = _common(
        sstable_size,
        block_cache_capacity,
        compaction_style=COMPACTION_TABLE,
        enable_seek_compaction=False,  # no seek compaction (Section V-G)
        filter_policy=FILTER_TABLE,
        lazy_deletion=False,
        parallel_merging=False,
    )
    params.update(overrides)
    return Options(**params)


def blockdb(
    sstable_size: int = 16 * 1024 * 1024,
    block_cache_capacity: int = 4 * 1024 * 1024 * 1024,
    **overrides,
) -> Options:
    """BlockDB: Block Compaction + all three optimizations (Section IV).

    Lazy Deletion cleans at 12 SSTables of obsolete bytes
    (``LAZY_DELETION_FACTOR``), not the paper's 12.5: Table II is pinned
    at 12."""
    params = _common(
        sstable_size,
        block_cache_capacity,
        compaction_style=COMPACTION_SELECTIVE,
        enable_seek_compaction=True,  # built on LevelDB
        filter_policy=FILTER_TABLE,  # table-based filters with reserved bits
        bloom_reserved_mid_fraction=0.40,
        bloom_reserved_last_fraction=0.10,
        lazy_deletion=True,
        parallel_merging=True,
        compaction_workers=4,
    )
    params.update(overrides)
    return Options(**params)


def l2sm_options(
    sstable_size: int = 16 * 1024 * 1024,
    block_cache_capacity: int = 4 * 1024 * 1024 * 1024,
    **overrides,
) -> Options:
    """Engine options underlying the L2SM baseline (Table Compaction,
    table-based filters, LevelDB-style seek compaction)."""
    params = _common(
        sstable_size,
        block_cache_capacity,
        compaction_style=COMPACTION_TABLE,
        enable_seek_compaction=True,
        filter_policy=FILTER_TABLE,
        lazy_deletion=False,
        parallel_merging=False,
    )
    params.update(overrides)
    return Options(**params)
