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


#: Slot of each read tally field in a thread's tally list.
_TALLY_SLOTS = {"gets": 0, "gets_found": 1, "scan_entries": 2, "vlog_resolves": 3}


class _ThreadTally(threading.local):
    """A thread's own read tally: its first touch on a thread makes a fresh
    list and registers it, so the registry keeps the counts of threads that
    have since exited."""

    def __init__(self, registry: list[list[int]]):
        self.counts = [0, 0, 0, 0]
        registry.append(self.counts)


class _ReadTally:
    """A :class:`DBStats` read counter kept as per-thread tallies: reading
    it sums them all.  An assignment (a ``+=``, say) goes into the first
    tally of the registry, which no thread counts into, so that the field
    then reads the value assigned.  The field is not an ``__init__``
    argument.  Nothing here touches the instance ``__dict__``: on CPython
    3.11/3.12 materializing it takes every other counter, which the write
    path bumps with ``+=``, off the inline-values attribute fast path."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = _TALLY_SLOTS[name]

    def __get__(self, stats: "DBStats | None", owner: type | None = None) -> int:
        if stats is None:
            return 0  # the dataclass default
        slot = self.slot
        return sum(counts[slot] for counts in stats._tallies)

    def __set__(self, stats: "DBStats", value: int) -> None:
        stats._tallies[0][self.slot] += value - self.__get__(stats)


@dataclass
class DBStats:
    """Logical counters for one DB instance.

    Thread-safety contract (audited for the concurrent pipeline): most
    counters are only updated with the engine lock held — the write path
    and the background worker's commit step run under it, so their plain
    ``+=`` updates never race.  The exceptions are the *stall* counters
    (updated by throttled writers that deliberately do not hold the engine
    lock while sleeping/waiting) and the *read* tallies — ``gets``,
    ``gets_found``, ``scan_entries``, ``vlog_resolves`` — which readers add
    with no lock held.  A Python ``+=`` on a shared attribute is
    read-modify-write across several bytecodes and CAN drop updates under
    free-threading or an ill-timed GIL switch, so :meth:`record_stall`
    serializes on a dedicated stats lock, and the read tallies go into a
    per-thread tally that only its own thread writes (:meth:`count_gets`,
    :meth:`count_scan_entries`, :meth:`count_vlog_resolves`); reading one
    of those fields sums every thread's tally, so it reads exactly what a
    locked counter would.
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
    gets: int = field(default=_ReadTally(), init=False)
    gets_found: int = field(default=_ReadTally(), init=False)
    scans: int = 0
    scan_entries: int = field(default=_ReadTally(), init=False)
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
    vlog_resolves: int = field(default=_ReadTally(), init=False)
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

    #: Guards the stall counters.  Excluded from comparison/repr: it is
    #: plumbing, not data.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: The read tallies, one ``[gets, gets_found, scan_entries,
    #: vlog_resolves]`` list each: the assignments' first, then every
    #: thread's; and the handle a thread finds its own by.
    _tallies: list = field(
        default_factory=lambda: [[0, 0, 0, 0]], repr=False, compare=False
    )
    _thread_tally: threading.local = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._thread_tally = _ThreadTally(self._tallies)

    # -- updates from callers without the engine lock ------------------------

    def record_stall(self, *, stop: bool = False, seconds: float = 0.0) -> None:
        """Count one write stall (optionally a hard stop) and its duration.
        Safe to call without the engine lock."""
        with self._lock:
            self.stall_events += 1
            if stop:
                self.stall_stops += 1
            self.stall_time_s += seconds

    def count_gets(self, gets: int, found: int) -> None:
        """Add point lookups to this thread's tally: the superversion read
        path resolves lookups with no lock held and counts them afterwards.
        Seek-miss charges are *not* recorded here — those stay
        engine-lock-guarded via ``_charge_seeks``."""
        tally = self._thread_tally.counts
        tally[0] += gets
        tally[1] += found

    def count_scan_entries(self, n: int) -> None:
        """Add ``n`` scanned entries to this thread's tally (scans drain
        iterators with the engine lock released)."""
        self._thread_tally.counts[2] += n

    def count_vlog_resolves(self, n: int) -> None:
        """Add ``n`` value-log pointer resolutions to this thread's tally
        (the lock-free read path resolves pointers)."""
        self._thread_tally.counts[3] += n

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
