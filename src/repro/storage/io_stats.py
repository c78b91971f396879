"""I/O accounting.

Every byte the engine reads or writes flows through one :class:`IOStats`
instance, tagged with a *category* (``wal``, ``flush``, ``compaction``,
``manifest``, ``get``, ``scan``, ``open``).  Write amplification, read
traffic, and the simulated running-time figures are all derived from these
counters, so they must be exact — the storage layer charges them, nothing
else does.  Its per-I/O handles (``WritableFile.append``,
``RandomAccessFile.read``) write the additions out themselves, one storage
frame per simulated I/O; ``tests/test_io_accounting.py`` holds them equal,
bit for bit, to :meth:`IOStats.record_append`, :meth:`IOStats.record_read`
and :meth:`IOStats.charge_time`.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass, field, fields

#: Well-known I/O categories (free-form strings are accepted too).
CAT_WAL = "wal"
CAT_FLUSH = "flush"
CAT_COMPACTION = "compaction"
CAT_MANIFEST = "manifest"
CAT_GET = "get"
CAT_SCAN = "scan"
CAT_OPEN = "open"


@dataclass
class CategoryCounters:
    """Byte/op counters for one I/O category."""

    bytes_written: int = 0
    bytes_read: int = 0
    write_ops: int = 0
    read_ops: int = 0


@dataclass
class IOStats:
    """Global I/O counters plus the simulated-time accumulator."""

    bytes_written: int = 0
    bytes_read: int = 0
    write_ops: int = 0
    read_ops: int = 0
    random_reads: int = 0
    sequential_reads: int = 0
    files_created: int = 0
    files_deleted: int = 0
    #: Durability barriers requested (``WritableFile.sync``).  Each one is a
    #: distinct crash point for the crash-consistency harness.
    syncs: int = 0
    dir_scans: int = 0
    dir_scan_entries: int = 0
    #: Simulated device seconds, charged by the :class:`DeviceModel`.
    sim_time_s: float = 0.0
    per_category: dict[str, CategoryCounters] = field(
        default_factory=lambda: defaultdict(CategoryCounters)
    )
    #: Simulated seconds attributed to each I/O category.  Experiment
    #: drivers use this to model background-compaction overlap (the paper
    #: runs compaction on background threads while 16 client threads issue
    #: requests): foreground time = total - compaction/flush time.
    time_per_category: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def record_append(self, nbytes: int, category: str, seconds: float) -> None:
        """Count one append of ``nbytes`` for ``category`` and charge its
        ``seconds`` of device time (the same additions, in the same order,
        as counting the write and then :meth:`charge_time`).
        ``WritableFile.append`` makes these additions itself, inlined."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self.bytes_written += nbytes
        self.write_ops += 1
        cat = self.per_category[category]
        cat.bytes_written += nbytes
        cat.write_ops += 1
        self.sim_time_s += seconds
        self.time_per_category[category] += seconds

    def record_read(self, nbytes: int, category: str, *, random: bool) -> None:
        """Count one read of ``nbytes`` (random or sequential) for
        ``category``.  ``RandomAccessFile.read`` makes these additions
        itself, inlined, and then charges the time."""
        self.bytes_read += nbytes
        self.read_ops += 1
        if random:
            self.random_reads += 1
        else:
            self.sequential_reads += 1
        cat = self.per_category[category]
        cat.bytes_read += nbytes
        cat.read_ops += 1

    def charge_time(self, seconds: float, category: str = "other") -> None:
        """Advance the simulated clock by ``seconds`` (must be >= 0)."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self.sim_time_s += seconds
        self.time_per_category[category] += seconds

    def rebate_time(self, seconds: float, category: str = "other") -> None:
        """Subtract ``seconds`` from the simulated clock.

        Used by Parallel Merging: sub-tasks are executed deterministically in
        sequence (each charging its own cost), then the scheduler rebates the
        difference between the serial total and the multi-worker makespan.
        """
        if seconds < 0:
            raise ValueError(f"cannot rebate negative time: {seconds}")
        self.sim_time_s = max(0.0, self.sim_time_s - seconds)
        self.time_per_category[category] = max(
            0.0, self.time_per_category[category] - seconds
        )

    def background_time_s(self) -> float:
        """Simulated seconds spent on compaction + flush I/O — work real
        engines run on background threads."""
        return self.time_per_category[CAT_COMPACTION] + self.time_per_category[CAT_FLUSH]

    def category(self, name: str) -> CategoryCounters:
        """Counters for ``name`` (created on first access)."""
        return self.per_category[name]

    def snapshot(self) -> "IOStats":
        """A deep copy usable as a baseline for interval measurements."""
        return IOStats().accumulate(self)

    def delta_since(self, baseline: "IOStats") -> "IOStats":
        """Counters accumulated since ``baseline`` (a prior :meth:`snapshot`)."""
        return self.snapshot().accumulate(baseline, operator.sub)

    def accumulate(self, other: "IOStats", op=operator.add) -> "IOStats":
        """Combine ``other`` into this instance counter by counter, each
        becoming ``op(mine, other's)``; returns ``self``.  Every copy, delta
        and rollup goes through here, so none can leave a counter out."""
        for name in COUNTER_FIELDS:
            setattr(self, name, op(getattr(self, name), getattr(other, name)))
        for category, theirs in other.per_category.items():
            mine = self.per_category[category]
            for name in CATEGORY_FIELDS:
                setattr(mine, name, op(getattr(mine, name), getattr(theirs, name)))
        for category, seconds in other.time_per_category.items():
            self.time_per_category[category] = op(
                self.time_per_category[category], seconds
            )
        return self


def _scalar_fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.type in ("int", "float"))


#: The scalar counters of :class:`IOStats` and :class:`CategoryCounters`, in
#: declaration order: what :meth:`IOStats.accumulate` combines and the
#: Prometheus walk exports.
COUNTER_FIELDS = _scalar_fields(IOStats)
CATEGORY_FIELDS = _scalar_fields(CategoryCounters)
