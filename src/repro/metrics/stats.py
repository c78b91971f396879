"""Engine-level statistics.

:class:`DBStats` counts logical events (user writes, flushes, compactions by
type, per-level write traffic, stalls, filter maintenance); byte-exact I/O
lives in :class:`~repro.storage.io_stats.IOStats`.  Together they provide
every number the paper's figures report.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields


@dataclass
class CompactionEvent:
    """One completed compaction, for tracing and tests."""

    parent_level: int
    child_level: int
    kind: str  # 'table' | 'block' | 'selective' | 'trivial' | 'divert' | 'flush'
    reason: str  # 'size' | 'seek' | 'manual' | 'memtable'
    bytes_read: int
    bytes_written: int
    input_files: int
    output_files: int
    #: Compaction policy that picked this task (DESIGN.md §14); empty for
    #: flushes, which no policy owns.
    policy: str = ""


@dataclass
class DBStats:
    """Logical counters for one DB instance.

    Thread-safety contract (audited for the concurrent pipeline): most
    counters are only updated with the engine lock held — the write path,
    read path, and the background worker's commit step all run under it,
    so their plain ``+=`` updates never race.  The exceptions are the
    *stall* counters (updated by throttled writers that deliberately do
    not hold the engine lock while sleeping/waiting) and the *scan*
    tallies (updated while an iterator is drained, which happens with the
    lock released).  Those sites go through :meth:`record_stall` /
    :meth:`count_scan_entries`, which serialize on a dedicated stats lock
    so concurrent increments sum exactly (a Python ``+=`` on an attribute
    is read-modify-write across several bytecodes and CAN drop updates
    under free-threading or an ill-timed GIL switch).
    """

    # write path
    user_bytes_written: int = 0
    user_writes: int = 0
    user_deletes: int = 0
    flush_count: int = 0
    flush_bytes: int = 0
    stall_events: int = 0
    #: Wall-clock seconds writes spent throttled by the L0 triggers
    #: (slowdown sleeps + stop waits).  The synchronous mode never sleeps,
    #: so this stays 0.0 there while ``stall_events`` still counts
    #: slowdown-trigger hits; the concurrent pipeline records both.
    stall_time_s: float = 0.0
    #: Stop-trigger stalls (writes that blocked until L0 drained), a subset
    #: of ``stall_events``.
    stall_stops: int = 0

    # read path
    gets: int = 0
    gets_found: int = 0
    scans: int = 0
    scan_entries: int = 0
    seek_miss_charges: int = 0

    # compaction
    table_compactions: int = 0
    block_compactions: int = 0
    trivial_moves: int = 0
    seek_triggered_compactions: int = 0
    compaction_bytes_read: int = 0
    compaction_bytes_written: int = 0
    #: Bytes written INTO each level: flushes charge L0, a compaction from
    #: L(i) charges L(i+1) — the series in the paper's Fig 8.
    per_level_write_bytes: list[int] = field(default_factory=list)
    #: Maximum obsolete bytes observed per level (paper Fig 10).
    per_level_max_obsolete_bytes: list[int] = field(default_factory=list)
    #: Live policy switches performed by the online tuner / admin calls
    #: (DESIGN.md §14).
    policy_switches: int = 0
    #: Compactions (flushes excluded) per picking policy, e.g.
    #: ``{"leveled": 12, "tiered": 3}`` after one tuner switch.
    compactions_by_policy: dict[str, int] = field(default_factory=dict)

    # bloom filter maintenance (Section IV-D)
    filter_absorbs: int = 0
    filter_rebuilds: int = 0

    # lazy deletion (Section IV-C)
    obsolete_scans: int = 0
    obsolete_files_deleted: int = 0

    # key-value separation (DESIGN.md §13)
    #: Values redirected to the value log by the write path (GC rewrites
    #: included) and the framed bytes appended for them.
    vlog_separated_values: int = 0
    vlog_separated_bytes: int = 0
    #: Pointer resolutions performed by reads (get/multi_get/scan).
    vlog_resolves: int = 0
    #: Dead frame bytes observed by flush/compaction drop sites.
    vlog_dead_bytes_observed: int = 0
    #: GC activity: runs started, live records rewritten to the head (and
    #: their framed bytes), victim files physically deleted.
    vlog_gc_runs: int = 0
    vlog_gc_rewritten_values: int = 0
    vlog_gc_rewritten_bytes: int = 0
    vlog_files_deleted: int = 0

    # error handling (severity engine)
    #: Background failures observed (any severity).
    bg_failures: int = 0
    #: Transient failures retried with backoff.
    bg_retries: int = 0
    #: Recoveries: a retry succeeded (auto-resume) or ``DB.resume()`` cleared
    #: a degraded state.
    bg_resumes: int = 0
    #: Times the DB entered degraded (read-only) mode.
    degraded_entries: int = 0

    events: list[CompactionEvent] = field(default_factory=list)
    #: Peak total file bytes observed (space-amplification numerator).
    max_space_bytes: int = 0

    #: Guards the counters updated outside the engine lock (stalls, scan
    #: tallies).  Excluded from comparison/repr: it is plumbing, not data.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # -- lock-guarded updates (callers without the engine lock) --------------

    def record_stall(self, *, stop: bool = False, seconds: float = 0.0) -> None:
        """Count one write stall (optionally a hard stop) and its duration.
        Safe to call without the engine lock."""
        with self._lock:
            self.stall_events += 1
            if stop:
                self.stall_stops += 1
            self.stall_time_s += seconds

    def count_scan_entries(self, n: int) -> None:
        """Add ``n`` scanned entries.  Safe to call without the engine lock
        (scans drain iterators with the lock released)."""
        with self._lock:
            self.scan_entries += n

    def count_gets(self, gets: int, found: int) -> None:
        """Batch-add point-lookup counters.  Safe to call without the engine
        lock (the superversion read path resolves lookups lock-free and
        records the tallies afterwards).  Seek-miss charges are *not*
        recorded here — those stay engine-lock-guarded via ``_charge_seeks``
        so the two locking domains never write the same counter."""
        with self._lock:
            self.gets += gets
            self.gets_found += found

    def count_vlog_resolves(self, n: int) -> None:
        """Add ``n`` value-log pointer resolutions.  Safe to call without
        the engine lock (the lock-free read path resolves pointers)."""
        with self._lock:
            self.vlog_resolves += n

    def ensure_levels(self, num_levels: int) -> None:
        while len(self.per_level_write_bytes) < num_levels:
            self.per_level_write_bytes.append(0)
        while len(self.per_level_max_obsolete_bytes) < num_levels:
            self.per_level_max_obsolete_bytes.append(0)

    def charge_level_write(self, level: int, nbytes: int) -> None:
        self.ensure_levels(level + 1)
        self.per_level_write_bytes[level] += nbytes

    def observe_obsolete(self, level: int, nbytes: int) -> None:
        self.ensure_levels(level + 1)
        if nbytes > self.per_level_max_obsolete_bytes[level]:
            self.per_level_max_obsolete_bytes[level] = nbytes

    def observe_space(self, total_bytes: int) -> None:
        if total_bytes > self.max_space_bytes:
            self.max_space_bytes = total_bytes

    def record_event(self, event: CompactionEvent) -> None:
        """Fold one compaction/flush event into the aggregate counters."""
        self.events.append(event)
        if event.kind == "table":
            self.table_compactions += 1
        elif event.kind in ("block", "selective"):
            self.block_compactions += 1
        elif event.kind == "trivial":
            self.trivial_moves += 1
        if event.reason == "seek":
            self.seek_triggered_compactions += 1
        if event.kind != "flush":
            self.compaction_bytes_read += event.bytes_read
            self.compaction_bytes_written += event.bytes_written
            if event.policy:
                self.compactions_by_policy[event.policy] = (
                    self.compactions_by_policy.get(event.policy, 0) + 1
                )

    def numeric(self) -> dict[str, int | float]:
        """Every scalar counter by field name: what the ``OP_STATS`` engine
        section reports and ``ShardedDB.aggregate_stats`` sums."""
        return {name: getattr(self, name) for name in NUMERIC_FIELDS}

    # -- derived metrics -----------------------------------------------------

    def sst_bytes_written(self) -> int:
        """All SSTable bytes written (flush + compaction)."""
        return self.flush_bytes + self.compaction_bytes_written

    def write_amplification(self) -> float:
        """Physical SSTable writes / user bytes (the paper's WA metric;
        WAL traffic excluded, as in the paper's LevelDB measurements)."""
        if self.user_bytes_written == 0:
            return 0.0
        return self.sst_bytes_written() / self.user_bytes_written

    def space_amplification(self, dataset_bytes: int | None = None) -> float:
        """Peak on-disk bytes over the logical dataset size.

        Pass ``dataset_bytes`` (live user data) when known; otherwise the
        cumulative user write volume is used as a conservative denominator.
        """
        denominator = dataset_bytes if dataset_bytes else self.user_bytes_written
        if denominator == 0:
            return 0.0
        return self.max_space_bytes / denominator


#: :class:`DBStats`'s scalar counters in declaration order.
NUMERIC_FIELDS = tuple(f.name for f in fields(DBStats) if f.type in ("int", "float"))
