"""Executing YCSB workloads against a DB and collecting results.

Two entry points: :func:`load_db` bulk-loads a key space (the paper's
"load 40/80 GB uniformly"), and :func:`run_workload` issues a request mix
from a :class:`~repro.ycsb.workloads.WorkloadSpec`.

Results carry deltas of both the simulated-device clock and the logical DB
counters over the run, plus an optional windowed throughput series (the
paper's Fig 6 curve).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from ..core.db import DB
from .workloads import DEFAULT_VALUE_SIZE, WorkloadSpec, make_key, make_value
from .zipfian import make_generator


@dataclass
class ThroughputSample:
    """One window of the throughput curve."""

    ops_done: int
    sim_time_s: float
    ops_per_sec: float


@dataclass
class RunResult:
    """Everything measured over one load or workload run."""

    name: str
    ops: int = 0
    reads: int = 0
    reads_found: int = 0
    writes: int = 0
    scans: int = 0
    scan_entries: int = 0
    #: Client threads that issued the operations (1 = the classic driver).
    client_threads: int = 1
    sim_time_s: float = 0.0
    #: Simulated seconds excluding compaction/flush I/O (the foreground).
    foreground_time_s: float = 0.0
    #: Simulated seconds of compaction + flush I/O (background threads in
    #: real engines).
    background_time_s: float = 0.0
    wall_time_s: float = 0.0
    bytes_written: int = 0
    bytes_read: int = 0
    block_cache_misses: int = 0
    block_cache_hits: int = 0
    throughput_curve: list[ThroughputSample] = field(default_factory=list)
    #: Per-op latency summaries (``{"get": {"count": ..., "p50_ms": ...}}``)
    #: for this run's interval.  Populated only when the DB was opened with
    #: ``Options.latency_histograms``; empty otherwise.
    latency: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def ops_per_sim_sec(self) -> float:
        return self.ops / self.sim_time_s if self.sim_time_s > 0 else 0.0

    @property
    def ops_per_wall_sec(self) -> float:
        """Aggregate wall-clock throughput — the number that moves when the
        concurrent pipeline overlaps work (simulated time cannot: it is a
        serial charge model)."""
        return self.ops / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @property
    def overlapped_time_s(self) -> float:
        """Running time when compactions overlap the foreground perfectly —
        the paper's measurement setup (16 client threads, background
        compaction threads).  ``sim_time_s`` is the fully serial bound; the
        truth lies between, and the *orderings* the paper reports hold under
        the overlapped measure."""
        return max(self.foreground_time_s, self.background_time_s)


class _Measurer:
    """Captures baseline counters and computes the delta at finish."""

    def __init__(self, db: DB, name: str):
        self._db = db
        self.result = RunResult(name)
        self._io_start = db.io_stats.snapshot()
        self._cache_hits = db.block_cache.stats.hits
        self._cache_misses = db.block_cache.stats.misses
        self._latency_start = db.latency.snapshot() if db.latency is not None else None
        self._wall_start = time.perf_counter()

    def finish(self) -> RunResult:
        """Compute the run's deltas and return the filled result."""
        io = self._db.io_stats.delta_since(self._io_start)
        r = self.result
        r.sim_time_s = io.sim_time_s
        r.background_time_s = io.background_time_s()
        r.foreground_time_s = max(0.0, io.sim_time_s - r.background_time_s)
        r.wall_time_s = time.perf_counter() - self._wall_start
        r.bytes_written = io.bytes_written
        r.bytes_read = io.bytes_read
        r.block_cache_hits = self._db.block_cache.stats.hits - self._cache_hits
        r.block_cache_misses = self._db.block_cache.stats.misses - self._cache_misses
        if self._db.latency is not None:
            # Interval deltas, so back-to-back runs against one DB each
            # report only their own tail latencies.
            deltas = self._db.latency.delta_since(self._latency_start)
            r.latency = {
                op: snap.summary() for op, snap in deltas.items() if snap.count
            }
        return r


def load_db(
    db: DB,
    num_keys: int,
    *,
    value_size: int = DEFAULT_VALUE_SIZE,
    order: str = "random",
    seed: int = 0,
    sample_every: int | None = None,
) -> RunResult:
    """Insert keys ``0 .. num_keys-1`` (uniformly shuffled by default).

    ``sample_every`` records a throughput sample each N operations — the
    series behind the paper's Fig 6.
    """
    if order not in ("random", "sequential"):
        raise ValueError(f"unknown load order {order!r}")
    ordinals = list(range(num_keys))
    if order == "random":
        random.Random(seed).shuffle(ordinals)

    measure = _Measurer(db, "load")
    last_time = db.io_stats.sim_time_s
    for done, ordinal in enumerate(ordinals, start=1):
        db.put(make_key(ordinal), make_value(ordinal, 0, value_size))
        measure.result.writes += 1
        measure.result.ops += 1
        if sample_every and done % sample_every == 0:
            now = db.io_stats.sim_time_s
            window = now - last_time
            measure.result.throughput_curve.append(
                ThroughputSample(done, now, sample_every / window if window > 0 else 0.0)
            )
            last_time = now
    return measure.finish()


def run_workload(
    db: DB,
    spec: WorkloadSpec,
    num_ops: int,
    num_keys: int,
    *,
    value_size: int = DEFAULT_VALUE_SIZE,
    seed: int = 1,
    sample_every: int | None = None,
) -> RunResult:
    """Issue ``num_ops`` requests following ``spec`` against a loaded DB.

    ``num_keys`` is the loaded key-space size; insertions extend it.
    """
    rng = random.Random(seed)
    chooser = make_generator(num_keys, spec.zipf, seed=seed + 1)
    measure = _Measurer(db, spec.name)
    _issue_ops(
        db, spec, measure.result, num_ops, rng, chooser,
        next_insert=num_keys,
        generation=1 + seed,  # distinguishes update rounds across runs
        value_size=value_size,
        sample_every=sample_every,
    )
    return measure.finish()


def _issue_ops(
    db: DB,
    spec: WorkloadSpec,
    tally: RunResult,
    num_ops: int,
    rng: random.Random,
    chooser,
    *,
    next_insert: int,
    generation: int,
    value_size: int,
    insert_stride: int = 1,
    sample_every: int | None = None,
) -> None:
    """The one YCSB op loop: issue ``num_ops`` requests following ``spec``,
    counting each into ``tally`` once it returns.  ``rng`` draws the op
    (and a scan's length), ``chooser`` its key; inserts take ordinals from
    ``next_insert`` in steps of ``insert_stride``, and updates write
    ``generation``'s value.  ``sample_every`` appends a throughput sample
    to ``tally`` each N operations."""
    last_time = db.io_stats.sim_time_s
    for done in range(1, num_ops + 1):
        dice = rng.random()
        if dice < spec.read_ratio:
            value = db.get(make_key(chooser.next()))
            tally.reads += 1
            if value is not None:
                tally.reads_found += 1
        elif dice < spec.read_ratio + spec.scan_ratio:
            start = make_key(chooser.next())
            length = rng.randint(spec.scan_min_len, spec.scan_max_len)
            rows = db.scan(start, limit=length)
            tally.scans += 1
            tally.scan_entries += len(rows)
        else:
            if spec.write_mode == "insert":
                ordinal = next_insert
                next_insert += insert_stride
                db.put(make_key(ordinal), make_value(ordinal, 0, value_size))
            else:
                ordinal = chooser.next()
                db.put(make_key(ordinal), make_value(ordinal, generation, value_size))
            tally.writes += 1
        tally.ops += 1
        if sample_every and done % sample_every == 0:
            now = db.io_stats.sim_time_s
            window = now - last_time
            tally.throughput_curve.append(
                ThroughputSample(done, now, sample_every / window if window > 0 else 0.0)
            )
            last_time = now


def run_workload_concurrent(
    db: DB,
    spec: WorkloadSpec,
    num_ops: int,
    num_keys: int,
    *,
    threads: int,
    value_size: int = DEFAULT_VALUE_SIZE,
    seed: int = 1,
) -> RunResult:
    """N-thread client driver: ``num_ops`` total requests following
    ``spec``, issued from ``threads`` concurrent clients (the paper's
    16-thread measurement setup, for the concurrent write pipeline).

    Each thread gets its own request RNG and key chooser (seeded per
    thread, so the op *mix* is reproducible even though interleaving is
    not); inserted ordinals are strided by thread so clients never collide
    on new keys.  Wall-clock throughput (``ops_per_wall_sec``) is the
    headline number — simulated-time deltas are still collected but are
    approximate under concurrency.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if threads == 1:
        result = run_workload(
            db, spec, num_ops, num_keys, value_size=value_size, seed=seed
        )
        result.client_threads = 1
        return result

    measure = _Measurer(db, spec.name)
    counts_lock = threading.Lock()
    errors: list[BaseException] = []
    per_thread = [num_ops // threads] * threads
    for extra in range(num_ops % threads):
        per_thread[extra] += 1

    def client(tid: int, ops: int) -> None:
        """One client thread: its own rng/chooser and local tallies, folded
        into the shared result at the end."""
        tally = RunResult(spec.name)
        try:
            _issue_ops(
                db, spec, tally, ops,
                random.Random(seed + tid * 7919),
                make_generator(num_keys, spec.zipf, seed=seed + 1 + tid * 104729),
                next_insert=num_keys + tid,  # strided: no insert collisions
                insert_stride=threads,
                generation=1 + seed,
                value_size=value_size,
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            with counts_lock:
                errors.append(exc)
        finally:
            with counts_lock:
                r = measure.result
                for name in ("ops", "reads", "reads_found", "writes", "scans",
                             "scan_entries"):
                    setattr(r, name, getattr(r, name) + getattr(tally, name))

    workers = [
        threading.Thread(target=client, args=(tid, ops), name=f"ycsb-client-{tid}")
        for tid, ops in enumerate(per_thread)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    db.wait_for_background(timeout=300)
    result = measure.finish()
    result.client_threads = threads
    return result
