"""Engine configuration.

A single :class:`Options` dataclass configures every subsystem: SSTable
geometry, level sizing, compaction style, caches, bloom filters, and the
paper's optimizations.  The competitor systems in the paper (LevelDB,
RocksDB, L2SM, BlockDB) are expressed as presets over these options — see
:mod:`repro.baselines.presets`.

Defaults follow the paper's experimental setting (Section V-B) scaled for a
pure-Python engine; the experiment drivers override sizes explicitly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import InvalidArgumentError

#: Compaction styles.  ``table`` is the conventional SSTable-grained scheme
#: (LevelDB/RocksDB); ``block`` always uses Block Compaction where legal;
#: ``selective`` applies Algorithm 4 to choose per overlapped SSTable.
COMPACTION_TABLE = "table"
COMPACTION_BLOCK = "block"
COMPACTION_SELECTIVE = "selective"
_COMPACTION_STYLES = (COMPACTION_TABLE, COMPACTION_BLOCK, COMPACTION_SELECTIVE)

#: Compaction *policies* — the picking discipline, orthogonal to the
#: granularity styles above (DESIGN.md §14).  ``leveled`` is LevelDB's
#: score-and-round-robin policy (the default, and the behavior every
#: paper figure uses); ``tiered`` lets levels overfill and merges them
#: wholesale to trade read cost for write amplification; ``one_leveling``
#: keeps all data in L0 + one sorted run.
POLICY_LEVELED = "leveled"
POLICY_TIERED = "tiered"
POLICY_ONE_LEVELING = "one_leveling"
_COMPACTION_POLICIES = (POLICY_LEVELED, POLICY_TIERED, POLICY_ONE_LEVELING)

#: Bloom filter placement.  ``block`` keeps one filter per data block and
#: stores per-block offsets (LevelDB 1.20); ``table`` keeps one filter per
#: SSTable (RocksDB-style full filters, also used by L2SM and BlockDB).
FILTER_NONE = "none"
FILTER_BLOCK = "block"
FILTER_TABLE = "table"
_FILTER_POLICIES = (FILTER_NONE, FILTER_BLOCK, FILTER_TABLE)


@dataclass
class SelectiveThresholds:
    """Per-level thresholds for Selective Compaction (Algorithm 4).

    ``max_dirty_ratio``: above this fraction of dirty bytes, use Table
    Compaction (avoids space blow-up when Block Compaction would rewrite
    almost everything anyway).

    ``min_valid_ratio``: below this fraction of live bytes, use Table
    Compaction as garbage collection.

    ``max_file_growth``: an appendable SSTable may grow to
    ``max_file_growth x sstable_size`` before Table Compaction splits it
    (the paper's MAX_VALID_SIZE / MAX_FILE_SIZE rule).
    """

    max_dirty_ratio: float = 0.5
    min_valid_ratio: float = 0.5
    max_file_growth: float = 2.0

    def validate(self) -> None:
        if not 0.0 <= self.max_dirty_ratio <= 1.0:
            raise InvalidArgumentError(f"max_dirty_ratio {self.max_dirty_ratio} not in [0, 1]")
        if not 0.0 <= self.min_valid_ratio <= 1.0:
            raise InvalidArgumentError(f"min_valid_ratio {self.min_valid_ratio} not in [0, 1]")
        if self.max_file_growth < 1.0:
            raise InvalidArgumentError(f"max_file_growth {self.max_file_growth} must be >= 1")


def default_selective_thresholds(num_levels: int) -> list[SelectiveThresholds]:
    """Paper-faithful per-level defaults.

    Upper/middle levels favour Block Compaction (high dirty-ratio tolerance)
    to minimize write amplification; the last level favours Table Compaction
    (low tolerance) to keep blocks sorted for range scans and bound space
    amplification (Section IV-A).
    """
    thresholds = []
    for level in range(num_levels):
        if level >= num_levels - 1:
            thresholds.append(
                SelectiveThresholds(max_dirty_ratio=0.25, min_valid_ratio=0.6, max_file_growth=1.5)
            )
        else:
            thresholds.append(
                SelectiveThresholds(max_dirty_ratio=0.6, min_valid_ratio=0.4, max_file_growth=2.0)
            )
    return thresholds


@dataclass
class Options:
    """Every tunable of the engine.  See module docstring."""

    # --- SSTable geometry -------------------------------------------------
    block_size: int = 4096
    sstable_size: int = 16 * 1024 * 1024

    # --- Memtable / write path --------------------------------------------
    memtable_size: int = 16 * 1024 * 1024

    # --- Level sizing -------------------------------------------------------
    #: Size ratio between adjacent levels ("a" in the paper's cost model).
    level_size_multiplier: int = 10
    max_levels: int = 7
    #: L0 capacity as a multiple of the SSTable size (paper: 8x).
    level0_size_factor: int = 8
    level0_slowdown_writes_trigger: int = 12
    level0_stop_writes_trigger: int = 16

    # --- Read path ----------------------------------------------------------
    block_cache_capacity: int = 4 * 1024 * 1024
    table_cache_capacity: int = 1000
    #: Number of independently locked shards for the block and table caches
    #: (DESIGN.md §9).  1 (the default) keeps the single-mutex caches and
    #: their eviction order bit-identical; the concurrent pipeline uses 16
    #: so reader threads — which resolve lookups against a refcounted
    #: superversion with the engine lock released — contend on per-shard
    #: locks instead of one cache mutex.
    cache_shards: int = 1

    # --- Bloom filters -------------------------------------------------------
    filter_policy: str = FILTER_TABLE
    bloom_bits_per_key: int = 10
    #: Reserved-bit fractions for appendable filters (Section IV-D): the
    #: filter of a mid-level SSTable can absorb this fraction of extra keys
    #: before a rebuild; the last level reserves less.  Zero (the default)
    #: builds plain exactly-sized filters; the BlockDB preset enables the
    #: paper's 40%/10% reservation.
    bloom_reserved_mid_fraction: float = 0.0
    bloom_reserved_last_fraction: float = 0.0

    # --- Compaction -----------------------------------------------------------
    compaction_style: str = COMPACTION_TABLE
    enable_seek_compaction: bool = True
    #: Floor of a file's seek budget (LevelDB uses 100 for 2 MiB+ files);
    #: scaled-down experiments lower it so the budget keeps the paper's
    #: touches-per-budget ratio.
    seek_compaction_min_seeks: int = 100
    selective_thresholds: list[SelectiveThresholds] = field(default_factory=list)

    # --- Compaction policy (DESIGN.md §14) --------------------------------------
    #: Picking discipline: which level compacts next and with which inputs.
    #: ``leveled`` (the default) is today's LevelDB-style picker,
    #: bit-identical to the pre-policy engine; ``tiered`` and
    #: ``one_leveling`` trade read cost for write amplification.  The
    #: policy is a property of the *open*, not the store, and is fixed for
    #: the open's life: any policy can read any store, because every
    #: policy maintains the same disjoint per-level invariant (tiering is
    #: expressed as overfill-then-merge).
    compaction_policy: str = POLICY_LEVELED

    # --- Concurrency (DESIGN.md §7) -------------------------------------------
    #: Run the flush / compaction / value-log-GC step on a background lane
    #: instead of inline on the writing thread — all this selects: the step
    #: and the write path (colliding writers always group-commit) are the
    #: same code either way.  Off by default: the synchronous mode is
    #: deterministic and generates the paper's figures; the concurrent
    #: mode trades that determinism for real multi-threaded throughput.
    #: Compaction sub-tasks then run on a real thread pool instead of the
    #: deterministic simulated-makespan rebate (Parallel Merging).
    background_compaction: bool = False
    #: Run the merge *compute* (decode, k-way merge, block rebuild, CRC) of
    #: every Block Compaction sub-task — block and selective styles alike —
    #: on an offload pool (DESIGN.md §11):
    #: ``"none"`` (default) keeps it in-process, ``"process"`` uses a
    #: persistent process pool so the compute escapes the GIL.  Enabling
    #: offload also runs the subtasks on real threads (as
    #: ``background_compaction`` does) so subtask I/O overlaps the offloaded
    #: compute.  Default off: the synchronous in-process mode stays
    #: bit-identical on paper metrics and file bytes.
    compaction_offload: str = "none"
    #: ``multiprocessing`` start method for the offload pool.
    #: ``"spawn"`` (default) is safe alongside any threads; ``"fork"`` is
    #: much cheaper to start and fine for synchronous-mode harnesses.
    compaction_offload_mp_context: str = "spawn"

    # --- Optimizations (Section IV) -------------------------------------------
    #: Parallel Merging (Section IV-B): charge the per-child sub-tasks of
    #: every block or selective compaction as if ``compaction_workers`` ran
    #: them at once (the inline executor's makespan rebate, DESIGN.md §7).
    parallel_merging: bool = False
    compaction_workers: int = 4
    #: Lazy Deletion (Section IV-C): batch obsolete-file cleanup until the
    #: pending bytes reach ``LAZY_DELETION_FACTOR x sstable_size``
    #: (:mod:`repro.compaction.lazy_deletion`).
    lazy_deletion: bool = False

    # --- Key-value separation (DESIGN.md §13) -----------------------------------
    #: Store values at or above ``kv_separation_threshold`` in append-only
    #: value-log files (``VLOG-%06d``); the LSM keeps the key plus a fixed
    #: 17-byte pointer that resolves transparently on reads.  Off by
    #: default: the non-separated engine stays bit-identical (stored values
    #: are raw bytes).  Read only when a store is created: its manifest
    #: records the format, and every later open keeps it whatever this says.
    kv_separation: bool = False
    #: Smallest value (bytes) redirected to the value log.
    kv_separation_threshold: int = 1024
    #: Head-file rotation size: a new VLOG file starts once the head
    #: reaches this many bytes.
    vlog_file_size: int = 4 * 1024 * 1024
    #: GC triggers on a sealed vlog file once its manifest-journaled dead
    #: bytes reach this fraction of the file size.
    vlog_gc_ratio: float = 0.5

    # --- Observability (DESIGN.md §8) ------------------------------------------
    #: Record structured begin/end spans (write, group commit, flush,
    #: compaction pick/execute/commit, sub-tasks, stalls, fs I/O) into a
    #: bounded in-memory ring (:mod:`repro.obs.trace`).  Off by default:
    #: the disabled engine holds a shared null tracer and pays one branch
    #: per instrumented site; simulated metrics are bit-identical either
    #: way (the tracer only observes).
    tracing: bool = False
    #: Record put/get/scan/multi_get latency into log-scale histograms
    #: (:mod:`repro.obs.histogram`) exposed via ``DB.latency``,
    #: ``debug_string`` and the Prometheus exporter.
    latency_histograms: bool = False

    # --- Misc -------------------------------------------------------------------
    paranoid_checks: bool = False

    def __post_init__(self) -> None:
        if not self.selective_thresholds:
            self.selective_thresholds = default_selective_thresholds(self.max_levels)

    # Level capacities -----------------------------------------------------

    def level0_file_trigger(self) -> int:
        """Number of L0 files that triggers a compaction (L0 size / SSTable size)."""
        return max(2, self.level0_size_factor)

    def level_capacity_bytes(self, level: int) -> int:
        """Capacity of ``level`` in bytes.

        L0 and L1 hold ``level0_size_factor`` SSTables (the paper sets
        ``L1 size == L0 size``); deeper levels grow by
        ``level_size_multiplier``.
        """
        base = self.level0_size_factor * self.sstable_size
        if level <= 1:
            return base
        return base * (self.level_size_multiplier ** (level - 1))

    def max_file_size(self, level: int) -> int:
        """Maximum size an appendable SSTable may reach at ``level``."""
        growth = self.selective_thresholds[min(level, len(self.selective_thresholds) - 1)].max_file_growth
        return int(self.sstable_size * growth)

    def bloom_reserved_fraction(self, level: int) -> float:
        """Reserved-bit fraction for filters at ``level`` (Section IV-D)."""
        if level >= self.max_levels - 1:
            return self.bloom_reserved_last_fraction
        return self.bloom_reserved_mid_fraction

    def validate(self) -> None:
        """Raise :class:`InvalidArgumentError` on inconsistent settings."""
        if self.block_size < 64:
            raise InvalidArgumentError(f"block_size {self.block_size} too small (min 64)")
        if self.sstable_size < self.block_size:
            raise InvalidArgumentError("sstable_size must be >= block_size")
        if self.memtable_size < self.block_size:
            raise InvalidArgumentError("memtable_size must be >= block_size")
        if self.level_size_multiplier < 2:
            raise InvalidArgumentError("level_size_multiplier must be >= 2")
        if not 2 <= self.max_levels <= 16:
            raise InvalidArgumentError("max_levels must be in [2, 16]")
        if self.compaction_style not in _COMPACTION_STYLES:
            raise InvalidArgumentError(f"unknown compaction_style {self.compaction_style!r}")
        if self.compaction_policy not in _COMPACTION_POLICIES:
            raise InvalidArgumentError(f"unknown compaction_policy {self.compaction_policy!r}")
        if self.filter_policy not in _FILTER_POLICIES:
            raise InvalidArgumentError(f"unknown filter_policy {self.filter_policy!r}")
        if self.bloom_bits_per_key < 1:
            raise InvalidArgumentError(
                "bloom_bits_per_key must be >= 1 (filter_policy='none' disables the filter)"
            )
        if self.compaction_workers < 1:
            raise InvalidArgumentError("compaction_workers must be >= 1")
        if self.compaction_offload not in ("none", "process"):
            raise InvalidArgumentError(
                f"unknown compaction_offload {self.compaction_offload!r}"
            )
        if self.compaction_offload_mp_context not in ("spawn", "fork", "forkserver"):
            raise InvalidArgumentError(
                f"unknown compaction_offload_mp_context {self.compaction_offload_mp_context!r}"
            )
        if not 1 <= self.cache_shards <= 64:
            raise InvalidArgumentError("cache_shards must be in [1, 64]")
        if self.level0_stop_writes_trigger < self.level0_slowdown_writes_trigger:
            raise InvalidArgumentError("stop trigger must be >= slowdown trigger")
        if self.kv_separation_threshold < 1:
            raise InvalidArgumentError("kv_separation_threshold must be >= 1")
        if self.vlog_file_size < 1024:
            raise InvalidArgumentError("vlog_file_size must be >= 1024")
        if not 0.0 < self.vlog_gc_ratio <= 1.0:
            raise InvalidArgumentError("vlog_gc_ratio must be in (0, 1]")
        if len(self.selective_thresholds) < self.max_levels:
            raise InvalidArgumentError("selective_thresholds must cover every level")
        for t in self.selective_thresholds:
            t.validate()

    def copy(self, **overrides) -> "Options":
        """Return a copy of these options with ``overrides`` applied."""
        return dataclasses.replace(self, **overrides)

    def concurrent_pipeline(self, **overrides) -> "Options":
        """Copy with the full concurrent write pipeline enabled: background
        flush/compaction (which brings real parallel sub-task execution
        with it, DESIGN.md §7), plus sharded caches so concurrent
        superversion reads do not meet on one cache mutex (DESIGN.md §9).
        Group commit needs no switch: colliding writers coalesce in every
        configuration.  Simulated metrics are not deterministic in this
        mode; use the default synchronous mode for the paper's figures."""
        params: dict = dict(background_compaction=True, cache_shards=16)
        params.update(overrides)
        return self.copy(**params)
