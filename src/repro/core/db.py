"""The database facade — BlockDB and its competitor configurations.

One :class:`DB` class implements the whole engine; the compaction scheme and
the paper's optimizations are chosen by :class:`~repro.options.Options`
(see :mod:`repro.baselines.presets` for the LevelDB / RocksDB / BlockDB
configurations; L2SM subclasses this DB in :mod:`repro.baselines.l2sm`).

Concurrency model (DESIGN.md §7) — one write path and one unit of
background work; :class:`~repro.options.Options` only selects which thread
drains that unit:

* **Writes** commit through ``_apply_locked`` — directly when the engine
  lock is free, else through the :class:`~repro.core.write_queue.WriteQueue`
  (group commit).
* **Background work** is ``_background_step``: one flush, else one
  compaction, else one value-log GC round (:mod:`repro.vlog.gc`).
  **Synchronous (default)**: the write that fills the memtable runs steps
  inline until nothing is due.  Deterministic, and the mode every paper
  figure is generated in; *time* parallelism (Parallel Merging, concurrent
  dirty-block reads) is modelled by the device's makespan
  accounting.  **Concurrent pipeline** (``background_compaction``): the
  write freezes the full memtable — it stays readable — and wakes this
  DB's lane of a background executor (:mod:`repro.core.scheduler` — its
  own one-worker executor, or the one a ``ShardedDB`` shares across its
  shards), which runs one step per wake.  L0 pressure throttles writers via
  the slowdown/stop triggers instead of inlining work, and disjoint
  compaction sub-tasks run on a real thread pool
  (:mod:`repro.compaction.parallel`).  Throughput mode: simulated metrics
  are approximate here.

Reads (DESIGN.md §9): ``get``, ``multi_get`` and iterators reference the
current :class:`~repro.core.superversion.SuperVersion` under the engine
lock, run its traversal with the lock released, and apply the seek charges
it returns under the lock afterwards.

No-wait mode (DESIGN.md §9): ``get`` / ``multi_get`` / ``scan`` / ``write``
(and ``put`` / ``delete``) take ``wait=False``, which never waits and never
runs background work on the calling thread.  It raises
:class:`~repro.errors.WouldBlock` up front, before changing anything, on a
filesystem whose I/O really blocks, when the engine lock is busy (it
try-locks once and holds the lock for the call), and for a write that
would have to queue, sleep on L0 pressure or roll the memtable over into
work it must wait for.  Without a lane, a seek compaction that a no-wait
read or scan makes due stays due — the picker keeps the candidate — until
the next call that may run one.  The serving layer calls it first, on its
event loop.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from itertools import islice
from typing import Iterable

from ..cache.block_cache import BlockCache
from ..cache.table_cache import TableCache
from ..compaction.base import CompactionResult, CompactionTask
from ..compaction.lazy_deletion import DeletionManager
from ..compaction.parallel import SubtaskExecutor
from ..compaction.picker import CompactionPicker
from ..compaction.selective import run_block_compaction, run_selective_compaction
from ..compaction.table_compaction import (
    can_trivially_move,
    run_table_compaction,
    run_trivial_move,
)
from ..errors import (
    CommitError,
    DBClosedError,
    InvalidArgumentError,
    NotFoundError,
    WouldBlock,
)
from ..keys import ComparableKey, seek_comparable
from ..memtable.memtable import MemTable
from ..memtable.wal import WalRecoveryStats, WalWriter
from ..metrics.amplification import level_rows
from ..metrics.stats import CompactionEvent, DBStats
from ..obs.histogram import LatencyRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..options import (
    COMPACTION_BLOCK,
    COMPACTION_SELECTIVE,
    COMPACTION_TABLE,
    Options,
)
from ..storage.fs import FileSystem, SimulatedFS
from ..storage.io_stats import CAT_COMPACTION, CAT_FLUSH, CAT_SCAN
from ..vlog import (
    VlogManager,
    parse_vlog_file_name,
    stored_size_bound,
    vlog_file_name,
)
from ..vlog import gc as vlog_gc
from . import sync
from .flush import flush_memtable
from .iterator import DBIterator
from .merge import EntryStream
from .scheduler import STATE_DEGRADED, ErrorHandler, SchedulerLane, SharedBackgroundExecutor
from .snapshot import Snapshot, SnapshotRegistry
from .superversion import SuperVersion
from .manifest import (
    CURRENT_FILE,
    ManifestWriter,
    read_pointer,
    replay_manifest,
    write_pointer,
)
from .version import (
    FileMetadata,
    Version,
    VersionEdit,
    catalog_violations,
    seek_budget,
    table_file_name,
)
from .write_batch import HEADER as BATCH_HEADER, WriteBatch, replay_wal
from .write_queue import WriteQueue


def _log_name(number: int) -> str:
    return f"{number:06d}.log"


_NULL_CONTEXT = nullcontext()

#: Sleep applied once per write while L0 is at or above the slowdown
#: trigger (LevelDB sleeps 1 ms).  Concurrent pipeline only.
LEVEL0_SLOWDOWN_SLEEP_S = 0.001
#: Upper bound on one write's stop-trigger stall before it proceeds anyway:
#: writes must never error under L0 pressure.
LEVEL0_STOP_MAX_WAIT_S = 30.0
#: Upper bound on a rollover's wait for the previous frozen memtable's
#: flush, for the same reason.
ROLLOVER_MAX_WAIT_S = 60.0


class DB:
    """An LSM-tree key-value store with pluggable compaction.

    >>> db = DB()
    >>> db.put(b"k", b"v")
    >>> db.get(b"k")
    b'v'
    """

    def __init__(
        self,
        fs: FileSystem | None = None,
        options: Options | None = None,
        *,
        block_cache=None,
        table_cache=None,
        offload_pool=None,
        background_executor: SharedBackgroundExecutor | None = None,
        lane_name: str = "db",
    ):
        # The keyword-only injection points are how ShardedDB makes N
        # engines share global budgets instead of multiplying them: a
        # pre-built block/table cache (one byte budget across shards), a
        # shared compaction OffloadPool, and the SharedBackgroundExecutor
        # this DB registers its lane (``lane_name``) on.  All default to
        # None, which makes the DB build and own its own.
        self.options = options or Options()
        self.options.validate()
        self.fs = fs if fs is not None else SimulatedFS()
        # Observability (DESIGN.md §8): both surfaces are inert by default —
        # the null tracer costs one branch per instrumented site, and a None
        # latency registry skips the clock reads entirely.
        if self.options.tracing:
            self.tracer = Tracer(sim_clock=lambda: self.fs.stats.sim_time_s)
            self.fs.tracer = self.tracer
        else:
            self.tracer = NULL_TRACER
        self.latency: LatencyRegistry | None = (
            LatencyRegistry() if self.options.latency_histograms else None
        )
        if self.latency is not None:
            # Cache the per-op histograms: the registry's name lookup is
            # measurable on the get/put hot paths.
            self._hist_put = self.latency.histogram("put")
            self._hist_get = self.latency.histogram("get")
            self._hist_multi_get = self.latency.histogram("multi_get")
            self._hist_scan = self.latency.histogram("scan")
        self.stats = DBStats()
        self.stats.ensure_levels(self.options.max_levels)
        # cache_shards=1 (the default) degenerates to the single-mutex
        # caches, keeping eviction order — and thus simulated metrics —
        # bit-identical to the unsharded engine.
        self.block_cache = block_cache if block_cache is not None else BlockCache(
            self.options.block_cache_capacity,
            shards=self.options.cache_shards,
            tracer=self.tracer,
        )
        self.table_cache = (
            table_cache
            if table_cache is not None
            else TableCache(self.fs, self.options, tracer=self.tracer)
        )
        self.picker = CompactionPicker(self.options)
        self.deletion_manager = DeletionManager(
            self.fs, self.options, self.table_cache, self.block_cache, self.stats
        )
        # Key-value separation (DESIGN.md §13): None — a raw store — means
        # values live inline in the LSM exactly as before; compaction's
        # drop_observer() and every read-path resolve site key off this
        # attribute, so the raw engine stays bit-identical.  _recover sets
        # it from the store's recorded format.
        self.vlog: VlogManager | None = None
        self.version = Version(self.options.max_levels)
        self.snapshots = SnapshotRegistry()
        # One coarse engine lock: concurrent readers and a writer may share
        # the DB (the paper's 16-thread clients); all structural mutation
        # happens under it.  Reentrant: compactions run inside writes.
        self._lock = sync.RLock()
        # Signalled when a flush commits (immutable drained) and when a
        # compaction commits (stop-trigger waiters), and — both — when the
        # DB degrades or closes: the three ways a writer's wait ends.
        # Condition.wait on an RLock releases every recursion level, so
        # waiting from inside the write path is safe.
        self._flush_cv = sync.Condition(self._lock)
        self._l0_cv = sync.Condition(self._lock)
        self._fnum_lock = sync.Lock()

        self._sequence = 0
        # The read path (DESIGN.md §9): readers resolve lookups against a
        # refcounted superversion instead of holding the engine lock.
        # Installed at the end of recovery; None again once closed.
        self._superversion: SuperVersion | None = None
        self._sv_number = 0
        self._next_file_number = 1
        self._manifest: ManifestWriter | None = None
        self._wal: WalWriter | None = None
        self._log_number = 0
        self._closed = False
        # Error-severity engine (DESIGN.md §10): classifies failures,
        # retries transient ones with capped simulated backoff, and owns the
        # degraded (read-only) state the write paths consult under the
        # engine lock.
        self._error_handler = ErrorHandler(fs=self.fs, stats=self.stats, tracer=self.tracer)
        #: What tolerant WAL replay salvaged/skipped at the last open.
        self._wal_recovery = WalRecoveryStats()

        self._pending_log: str | None = None  # frozen memtable's WAL, freed on commit
        self._last_flush_meta: FileMetadata | None = None
        self._write_queue = WriteQueue(self._lock, self.tracer)
        #: Runs compaction sub-tasks (inline, or on real threads in the
        #: concurrent/offload modes) and holds the offload pool.
        self._subtasks = SubtaskExecutor(
            self.fs.stats, self.options, offload_pool=offload_pool, tracer=self.tracer
        )
        self._scheduler: SchedulerLane | None = None
        #: The one-worker executor a standalone DB runs its lane on; a
        #: shared (injected) one is closed by its owner, not here.
        self._own_background_executor: SharedBackgroundExecutor | None = None

        # Anything past this point can raise (corrupt manifest, torn WAL).
        # Executors hold non-daemon worker threads and processes, so a
        # failed open must tear them down or the process leaks workers and
        # may never exit.
        try:
            self._recover()
            self._install_superversion_locked()

            # Started last: the worker must only ever see a fully-recovered DB.
            if self.options.background_compaction:
                if background_executor is None:
                    background_executor = SharedBackgroundExecutor(
                        workers=1, name="repro-background"
                    )
                    self._own_background_executor = background_executor
                self._scheduler = background_executor.register(
                    self._background_step,
                    name=lane_name,
                    tracer=self.tracer,
                    on_error=self._handle_background_error,
                )
        except BaseException:
            self._shutdown_executors()
            raise

    # ------------------------------------------------------------------ setup

    def new_file_number(self) -> int:
        # Own lock (not the engine lock): background flush/compaction build
        # output files with the engine lock released.
        with self._fnum_lock:
            number = self._next_file_number
            self._next_file_number += 1
            return number

    def _recover(self) -> None:
        """Rebuild state from CURRENT/manifest/WAL, or initialize fresh."""
        self._memtable = MemTable()
        self._immutable: MemTable | None = None

        current = read_pointer(self.fs, CURRENT_FILE)
        # The stored-value format is the store's, recorded in its manifest
        # (DESIGN.md §13): only a new store takes it from the options.
        tagged = current is None and self.options.kv_separation
        old_logs: list[str] = []
        if current is not None:
            for edit in replay_manifest(self.fs, current):
                self.version.apply(edit)
                tagged = tagged or edit.values_tagged
                if edit.next_file_number is not None:
                    self._next_file_number = edit.next_file_number
                if edit.last_sequence is not None:
                    self._sequence = edit.last_sequence
                if edit.log_number is not None:
                    self._log_number = edit.log_number
                for level, key in edit.compact_pointers:
                    self.picker.compact_pointer[level] = key
            # Crash recovery for in-place block appends: an append session
            # syncs the grown file *before* the manifest edit that makes the
            # new footer live.  A crash between the two leaves the file
            # longer on disk than the catalog records — truncating back to
            # the recorded size restores the previously-live footer at the
            # tail, which is exactly the state the catalog describes.
            for name, size in self.version.live_files().items():
                if size is not None and self.fs.exists(name) and self.fs.file_size(name) > size:
                    self.fs.truncate_file(name, size)
            # Replay EVERY log at or past the manifest's log number, oldest
            # first: a crash between a WAL rotation and the flush landing
            # leaves two live logs (the frozen memtable's and the active
            # one), and both must replay or acknowledged writes in the
            # newer log would silently vanish.  Replay is *tolerant*: it
            # stops at the first torn or corrupt record (an append whose
            # ack the client never saw) instead of failing the open, and
            # counts what it skipped in ``self._wal_recovery``.
            if self._log_number:
                live_numbers: list[int] = []
                for name in self.fs.list_dir():
                    if not name.endswith(".log"):
                        continue
                    try:
                        number = int(name[:-4])
                    except ValueError:
                        continue
                    if number >= self._log_number:
                        live_numbers.append(number)
                for number in sorted(live_numbers):
                    log_name = _log_name(number)
                    old_logs.append(log_name)
                    self._sequence = max(
                        self._sequence,
                        replay_wal(self.fs, log_name, self._memtable, self._wal_recovery),
                    )

        if tagged:
            self.vlog = VlogManager(self.fs, self.options, self.stats)
            self._recover_vlog()

        # Entries replayed from the old WAL go straight to an L0 table (as
        # LevelDB does during recovery) so the old log can be dropped and a
        # fresh one opened.
        recovered_file: FileMetadata | None = None
        if len(self._memtable):
            self._memtable.freeze()
            recovered_file = flush_memtable(
                self.fs,
                self.options,
                self._memtable,
                self.new_file_number(),
                on_drop=self.vlog.observe_drop if self.vlog is not None else None,
            )
            self._memtable = MemTable()
            if recovered_file is not None:
                recovered_file.built = None  # no eager open here to take it
        # Dead bytes the recovery flush observed (shadowed replayed entries)
        # fold into the ledger before the snapshot below re-emits it.
        if self.vlog is not None:
            self.version.apply(VersionEdit(vlog_dead=self.vlog.take_pending_dead()))

        # Start a fresh manifest snapshotting the recovered state.
        self._manifest = ManifestWriter(self.fs, self.new_file_number())
        self._log_number = self.new_file_number()
        self._wal = WalWriter(self.fs, _log_name(self._log_number))
        snapshot = VersionEdit(
            log_number=self._log_number,
            next_file_number=self._next_file_number,
            last_sequence=self._sequence,
            new_files=self.version.all_files(),
            compact_pointers=[
                (lv, key)
                for lv, key in enumerate(self.picker.compact_pointer)
                if key
            ],
            values_tagged=tagged,
        )
        if recovered_file is not None:
            self.version.apply(VersionEdit(new_files=[(0, recovered_file)]))
            snapshot.new_files.append((0, recovered_file))
        # Re-emit the value-log catalog: registrations and garbage ledger.
        if self.version.vlog:
            snapshot.new_vlog_files = sorted(self.version.vlog)
            snapshot.vlog_dead = [
                (number, dead)
                for number, dead in sorted(self.version.vlog.items())
                if dead
            ]
        self._manifest.log_edit(snapshot)
        write_pointer(self.fs, CURRENT_FILE, self._manifest.name)
        for old_log in old_logs:
            if self.fs.exists(old_log):
                self.fs.delete_file(old_log)

    def _recover_vlog(self) -> None:
        """Value-log recovery (DESIGN.md §13), reconciling the manifest's
        registrations with the VLOG files on disk in both directions.

        A registered file absent on disk never became durable: its
        registration is journaled before the file is created, and its
        first sync is the head append that precedes any WAL pointer into
        it.  No durable pointer addresses it, so the registration is
        dropped.  An on-disk VLOG file absent from the replayed manifest
        has no durable pointer into it either (a crash between create and
        register, or a GC victim journaled deleted but not yet unlinked),
        so it is deleted.  Registered files lose any torn tail
        (:meth:`VlogManager.salvage_tail`).  A fresh head always opens —
        sealed files never grow again, keeping every durable pointer's
        (file, offset) stable.
        """
        names = self.fs.list_dir()
        on_disk = set(names)
        for number in [n for n in self.version.vlog if vlog_file_name(n) not in on_disk]:
            del self.version.vlog[number]
        for name in names:
            number = parse_vlog_file_name(name)
            if number is None:
                continue
            if number in self.version.vlog:
                self.vlog.salvage_tail(number)
            else:
                self.fs.delete_file(name)
        head = self.new_file_number()
        self.vlog.open_head(head)
        self.version.vlog.setdefault(head, 0)

    # ------------------------------------------------------------------ helpers

    def _check_open(self) -> None:
        if self._closed:
            raise DBClosedError("database is closed")

    @property
    def io_stats(self):
        return self.fs.stats

    @property
    def last_sequence(self) -> int:
        return self._sequence

    # ------------------------------------------------------------------ snapshots

    def snapshot(self) -> Snapshot:
        """Pin the current sequence: reads through the returned handle see
        the database exactly as of now.  Release it promptly — live
        snapshots force compactions to retain old versions."""
        self._check_open()
        with self._lock:
            snap = Snapshot(self._sequence, self)
            self.snapshots.pin(snap.sequence)
            return snap

    def release_snapshot(self, snapshot: Snapshot) -> None:
        """Unpin ``snapshot`` (idempotent via ``Snapshot.close``)."""
        with self._lock:
            self.snapshots.unpin(snapshot.sequence)

    def snapshot_boundaries(self) -> list[int]:
        """Live pinned sequences, for compaction version retention."""
        return self.snapshots.boundaries()

    @staticmethod
    def _resolve_snapshot(snapshot: Snapshot | None, default: int) -> int:
        if snapshot is None:
            return default
        if snapshot.released:
            raise InvalidArgumentError("snapshot has been released")
        return snapshot.sequence

    # ------------------------------------------------------------------ writes

    def put(self, key: bytes, value: bytes, *, wait: bool = True) -> None:
        """Insert or update one key (``wait``: see :meth:`write`)."""
        self.write(WriteBatch().put(key, value), wait=wait)

    def delete(self, key: bytes, *, wait: bool = True) -> None:
        """Delete one key (writes a tombstone; ``wait``: see :meth:`write`)."""
        batch = WriteBatch()
        batch.delete(key)
        self.write(batch, wait=wait)

    def write(self, batch: WriteBatch, *, wait: bool = True) -> None:
        """Apply a batch atomically: WAL record, then memtable.  A failed
        try-lock *is* the contention signal (another writer or a background
        commit holds the engine lock); only then does the writer queue.

        ``wait=False`` never queues, sleeps or rolls the memtable over into
        work it must wait for: it raises :class:`WouldBlock` first, with
        nothing written (see :meth:`_lock_nowait_write`)."""
        if self._closed:  # _check_open, inlined
            raise DBClosedError("database is closed")
        if not batch.ops:
            return
        tracer = self.tracer
        if tracer.enabled:
            tracer.begin("write", "write", {"n": len(batch.ops)})
        start = time.perf_counter() if self.latency is not None else 0.0
        if not wait:
            try:
                self._lock_nowait_write(batch)
            except BaseException:  # declined, not served: no latency sample
                if tracer.enabled:
                    tracer.end("write", "write")
                raise
        # A no-wait call holds the engine lock from here: nothing may come
        # between taking it and the ``try`` whose ``finally`` releases it.
        try:
            if wait and self._scheduler is not None:
                # Only a fast-fail: the authoritative degraded check runs
                # inside ``_apply_locked`` under the engine lock.
                self._error_handler.check_writable()
                self._throttle_l0()
            if not wait or (not self._write_queue.writers and self._lock.acquire(False)):
                try:
                    self._apply_locked([batch])
                    # _maybe_freeze_locked's own test first: a call only
                    # for the write that fills the memtable.
                    if self._memtable.approximate_bytes >= self.options.memtable_size:
                        self._maybe_freeze_locked(wait)
                finally:
                    self._lock.release()
            else:
                self._write_queue.commit(batch, self._commit_group_locked)
        finally:
            if self.latency is not None:
                self._hist_put.record(time.perf_counter() - start)
            if tracer.enabled:
                tracer.end("write", "write")

    def _lock_nowait_write(self, batch: WriteBatch) -> None:
        """Take the engine lock for a ``wait=False`` write, or raise
        :class:`WouldBlock` with nothing changed.  A device that really
        blocks, a busy lock and a writer queue (:class:`WriteQueue`'s wait)
        are declined here; the other two waits are declined, under the
        lock and before a byte is written, by the code that owns them — L0
        past the slowdown trigger by :meth:`_throttle_l0`, a rollover that
        would wait by :meth:`_rollover_waits_locked`."""
        if self.fs.blocking or self._write_queue.writers or not self._lock.acquire(False):
            raise WouldBlock("device or engine lock busy")
        try:
            if self._scheduler is not None:
                self._throttle_l0(wait=False)
            if self._rollover_waits_locked(batch):
                raise WouldBlock("memtable rollover would wait")
        except BaseException:
            self._lock.release()
            raise

    def _commit_group_locked(self, batches: list[WriteBatch]) -> None:
        """What a group-commit leader runs for its group, under the engine
        lock (see :class:`WriteQueue`)."""
        self._apply_locked(batches)
        self._maybe_freeze_locked()

    def _apply_locked(self, batches: list[WriteBatch], user: bool = True) -> None:
        """The atomic core of every write — a lone batch, a group-commit
        leader's run, or vlog GC's re-puts (``user=False``): one WAL append
        carrying one record per batch, then the memtable adds.

        The degraded-mode check lives HERE, under the engine lock, not in
        the pre-lock fast path: a background error recorded between a
        writer's pre-check and its critical section must still refuse the
        batch (the bg_error propagation race)."""
        # ErrorHandler.check_writable's unlocked test, inlined (its
        # docstring has the argument): under the engine lock it observes
        # every transition into degraded that a locked read would.
        if self._error_handler.state == STATE_DEGRADED:
            self._error_handler.check_writable()
        stored = batches
        if self.vlog is not None:
            # Separate BEFORE the WAL append: the vlog frames are synced
            # inside (one append + sync for the whole group), so a durable
            # WAL pointer always addresses a durable frame (a crash in
            # between leaves only orphan vlog garbage).
            stored = self.vlog.separate(batches, self._roll_vlog_head_locked)
        first = self._sequence + 1
        if len(stored) == 1:
            # A lone batch, every put's: WriteBatch.serialize, inlined,
            # and its own ops list is the one the memtable pass walks.
            ops = stored[0].ops
            rep = stored[0].rep
            BATCH_HEADER.pack_into(rep, 0, first, len(ops))
            payloads = [bytes(rep)]
        else:
            ops = []
            payloads = []
            for batch in stored:
                payloads.append(batch.serialize(first + len(ops)))
                ops += batch.ops
        try:
            self._wal.add_records(payloads)
        except BaseException as exc:  # noqa: BLE001 - log integrity
            # A failed append may leave a torn frame mid-log; appending
            # more records behind it would make them unrecoverable
            # (replay stops at the tear), so ANY WAL failure — even a
            # transient one — degrades the DB instead of retrying.
            self._error_handler.record(exc, "wal", retryable=False)
            raise
        sequence = first
        add = self._memtable.add
        for value_type, key, value in ops:
            add(sequence, value_type, key, value)
            sequence += 1
        self._sequence = sequence - 1
        if user:
            # GC re-puts skip this: they are engine-internal traffic and
            # must not deflate the measured write amplification.  User
            # bytes are charged at the ORIGINAL size for the same reason —
            # separation must not shrink the denominator.
            deletes = 0
            stats = self.stats
            for batch in batches:
                deletes += batch.deletes
                stats.user_bytes_written += batch.user_bytes
            stats.user_writes += sequence - first - deletes
            if deletes:
                stats.user_deletes += deletes
            # Without a lane nothing sleeps on L0 pressure (the work is
            # inlined instead), but each write past the trigger — a group
            # member's as much as a direct one — counts as a stall.
            if (
                self._scheduler is None
                and len(self.version.levels[0]) >= self.options.level0_slowdown_writes_trigger
            ):
                stats.stall_events += len(batches)
                if self.tracer.enabled:
                    self.tracer.instant("stall", "write", {"kind": "slowdown"})

    def _roll_vlog_head_locked(self) -> None:
        """Open a fresh value-log head file.

        The registration edit is journaled (ManifestWriter syncs per
        record) BEFORE any pointer into the new file can reach the WAL —
        the invariant that lets recovery delete any unregistered on-disk
        VLOG file outright."""
        number = self.new_file_number()
        self._apply_edit(
            VersionEdit(new_vlog_files=[number], next_file_number=self._next_file_number)
        )
        self.vlog.open_head(number)

    def _throttle_l0(self, wait: bool = True) -> None:
        """Feed L0 pressure back into the write path (MakeRoomForWrite):
        past the slowdown trigger each write sleeps briefly; past the stop
        trigger it blocks until the background worker drains L0 (bounded by
        ``LEVEL0_STOP_MAX_WAIT_S`` so writes never error, merely slow).
        ``wait=False`` raises :class:`WouldBlock` instead of either."""
        opts = self.options
        if len(self.version.files_at(0)) < opts.level0_slowdown_writes_trigger:
            return
        if not wait:
            raise WouldBlock("L0 at the slowdown trigger")
        self._scheduler.wake()
        stop = len(self.version.files_at(0)) >= opts.level0_stop_writes_trigger
        with self.tracer.span("stall", "write", {"kind": "stop" if stop else "slowdown"}):
            if stop:
                start = sync.monotonic()
                with self._lock:
                    self._l0_cv.wait_for(
                        lambda: len(self.version.files_at(0)) < opts.level0_stop_writes_trigger
                        or self._error_handler.degraded
                        or self._closed,
                        LEVEL0_STOP_MAX_WAIT_S,
                    )
                seconds = sync.monotonic() - start
            else:
                seconds = LEVEL0_SLOWDOWN_SLEEP_S
                sync.sleep(seconds)
            # Throttled writers run OUTSIDE the engine lock, so these
            # counters go through the dedicated stats lock (see DBStats).
            self.stats.record_stall(stop=stop, seconds=seconds)

    def _rollover_waits_locked(self, batch: WriteBatch) -> bool:
        """Whether writing ``batch`` now would end in a rollover its writer
        waits for (:meth:`_maybe_freeze_locked`, below): the memtable
        would be full, and there is no lane (the flush and compactions run
        inline) or the previous frozen memtable is still pending.  The fill
        is the memtable's own accounting — exact, or with separated values
        the value log's upper bound, so a write let through never rolls
        over where one turned away would not have."""
        if self._scheduler is not None and self._immutable is None:
            return False  # freeze, wake the lane: nothing to wait for
        payload = batch.byte_size()
        if self.vlog is not None:
            payload = stored_size_bound(payload, len(batch))
        return self._memtable.would_reach(self.options.memtable_size, payload, len(batch))

    def _maybe_freeze_locked(self, wait: bool = True) -> None:
        """Memtable rollover: freeze a full memtable and hand it to the
        step — wake the lane, or (synchronous mode) flush and compact
        inline.  With a lane, if the previous freeze is still being
        flushed, wait for it (writers have outrun the flusher) rather than
        stacking immutables.  A ``wait=False`` write was let through by
        :meth:`_rollover_waits_locked` because neither applies; if one does,
        the two have drifted apart, and that fails here, loudly."""
        if self._memtable.approximate_memory_usage() < self.options.memtable_size:
            return
        if not wait and (self._scheduler is None or self._immutable is not None):
            raise AssertionError("a wait=False write reached a rollover that waits")
        if self._scheduler is None:
            self._drain_immutable_locked()  # a failed flush's leftover: see _flush_locked
        elif self._immutable is not None:
            with self.tracer.span("stall", "write", {"kind": "memtable"}):
                self._scheduler.wake()
                start = sync.monotonic()
                self._flush_cv.wait_for(
                    lambda: self._immutable is None
                    or self._error_handler.degraded
                    or self._closed,
                    ROLLOVER_MAX_WAIT_S,
                )
                self.stats.record_stall(seconds=sync.monotonic() - start)
            if self._immutable is not None:
                return  # flusher wedged or errored; keep accepting writes
            if self._memtable.approximate_memory_usage() < self.options.memtable_size:
                return  # frozen while this writer waited (a GC round's flush)
        self._freeze_locked()
        self._request_compaction()

    def flush(self) -> FileMetadata | None:
        """Freeze the active memtable and flush it to an L0 SSTable on the
        calling thread — with a lane, quiesced first, as the manual
        compactions do.  With a lane, a flush that fails into degraded mode
        raises :class:`ReadOnlyError` chained to its cause, as the lane's
        own failed steps surface; without one, the cause itself."""
        self._check_open()
        with self._background_paused():
            with self._lock:
                try:
                    return self._flush_locked()
                except BaseException:
                    if self._scheduler is not None:
                        self._error_handler.check_writable()
                    raise

    def _flush_locked(self) -> FileMetadata | None:
        # A hard flush failure degrades the DB with the frozen memtable
        # still pending in ``_immutable`` (its WAL still on disk guarding
        # it).  Land that leftover before freezing again — ``_freeze_locked``
        # would silently replace it, losing acked writes whose log the
        # manifest's rotated log_number no longer replays.
        self._error_handler.check_writable()
        self._drain_immutable_locked()
        if len(self._memtable) == 0:
            return None
        self._freeze_locked()
        self._drain_immutable_locked()
        return self._last_flush_meta

    def _retry_transient(self, context: str) -> bool:
        """Synchronous-mode analogue of the lane's ``on_error`` retry: run
        one :meth:`_background_step`, retrying while the severity engine
        says the failure is transient (each retry charges capped
        exponential backoff to the simulated clock), raising once it
        degrades."""
        while True:
            try:
                return self._background_step()
            except BaseException as exc:  # noqa: BLE001 - severity-routed
                if not self._error_handler.record(exc, context):
                    raise

    def _freeze_locked(self) -> None:
        """Freeze the active memtable into ``_immutable`` and rotate the
        WAL; the retiring log's name goes to ``_pending_log`` (deleted once
        the flush lands — until then it still guards the frozen entries)."""
        if not len(self._memtable):  # a writer that missed a roll: a WAL rotated for nothing
            raise AssertionError("froze an empty memtable")
        self._memtable.freeze()
        self._immutable = self._memtable
        self._memtable = MemTable()

        # Rotate the WAL with the memtable: the new log only covers the new
        # memtable, so the old log can go once the flush lands.
        self._pending_log = _log_name(self._log_number)
        self._wal.close()
        self._log_number = self.new_file_number()
        self._wal = WalWriter(self.fs, _log_name(self._log_number))
        self._install_superversion_locked()

    def _build_flush(self) -> FileMetadata | None:
        """Build the L0 table from the frozen memtable.  Safe without the
        engine lock: ``_immutable`` is frozen and only cleared by the same
        thread that commits the flush.  One attempt: a failure deletes the
        partial table so a retry (which takes a fresh file number) leaves
        no orphan behind."""
        immutable = self._immutable
        file_number = self.new_file_number()
        if self.vlog is not None:
            # Discard observations from a failed earlier attempt — folding
            # them would double-count the same drops after a retry.
            self.vlog.take_pending_dead()
        with self.tracer.span(
            "flush.build", "flush", {"file": file_number, "entries": len(immutable)}
        ):
            try:
                return flush_memtable(
                    self.fs,
                    self.options,
                    immutable,
                    file_number,
                    self.snapshot_boundaries(),
                    on_drop=self.vlog.observe_drop if self.vlog is not None else None,
                )
            except BaseException:
                name = table_file_name(file_number)
                try:
                    if self.fs.exists(name):
                        self.fs.delete_file(name)
                except Exception:  # noqa: BLE001 - best-effort cleanup
                    pass
                raise

    def _commit_flush_locked(self, meta: FileMetadata | None) -> None:
        self._immutable = None
        dead = self.vlog.take_pending_dead() if self.vlog is not None else []
        if meta is None:
            # No table came out (everything dropped), so no version edit —
            # but _immutable was cleared, which is a read-source change.
            # Dropped entries may still have freed vlog frames, though:
            # journal the ledger delta on its own.
            if dead:
                self._apply_edit(VersionEdit(vlog_dead=dead))
            self._install_superversion_locked()
        else:
            with self.tracer.span(
                "flush.commit", "flush", {"file": meta.file_number, "bytes": meta.file_size}
            ):
                edit = VersionEdit(
                    log_number=self._log_number,
                    next_file_number=self._next_file_number,
                    last_sequence=self._sequence,
                    new_files=[(0, meta)],
                    vlog_dead=dead,
                )
                self._apply_edit(edit)
                self.stats.flush_count += 1
                self.stats.flush_bytes += meta.file_size
                self.stats.charge_level_write(0, meta.file_size)
                self.stats.record_event(
                    CompactionEvent(
                        parent_level=-1,
                        child_level=0,
                        kind="flush",
                        reason="memtable",
                        bytes_read=0,
                        bytes_written=meta.file_size,
                        input_files=0,
                        output_files=1,
                    )
                )
                # Open the new table eagerly; the metadata load belongs to the
                # flush, not to the first foreground read (see run_compaction).
                self._open_built(meta, CAT_FLUSH)
                self._on_flush(meta)
        if self._pending_log is not None and self.fs.exists(self._pending_log):
            self.fs.delete_file(self._pending_log)
        self._pending_log = None
        self._observe_space()
        self._last_flush_meta = meta
        self._flush_cv.notify_all()

    def _apply_edit(self, edit: VersionEdit) -> None:
        self.version.apply(edit)
        assert self._manifest is not None
        try:
            self._manifest.log_edit(edit)
        except BaseException as exc:  # noqa: BLE001 - commit divergence
            # The in-memory version already advanced but the durable catalog
            # did not: retrying in place can't reconcile them, so this is a
            # fatal commit failure — the DB degrades and only a reopen (which
            # rebuilds from the durable state) truly clears it.
            commit_exc = CommitError(f"manifest commit failed: {exc}")
            commit_exc.__cause__ = exc
            self._error_handler.record(commit_exc, "commit")
            raise commit_exc from exc
        self._install_superversion_locked()

    # ------------------------------------------------------------------ superversions

    def _install_superversion_locked(self) -> None:
        """Swap in a fresh superversion (DESIGN.md §9).  Caller holds the
        engine lock; called whenever a read source changed — memtable
        rotation, flush commit, compaction commit.

        The pointer moves first, then the outgoing superversion drops its
        install reference.  If in-flight readers still hold it, the
        deletion manager takes one pin on its behalf so files retired by
        this very commit stay on disk; the last reader's unref releases the
        pin (deferred deletion)."""
        old = self._superversion
        self._sv_number += 1
        self._superversion = SuperVersion(
            self._sv_number,
            self._memtable,
            self._immutable,
            self.version.clone_file_lists(),
            self._superversion_drained,
            self.table_cache,
            self.block_cache,
            self._extra_get_after_level,
        )
        if old is not None and old.retire():
            old.deletion_pinned = True
            self.deletion_manager.pin()

    def _superversion_drained(self, sv: SuperVersion) -> None:
        """The last reader reference to a retired superversion dropped (its
        pinned table readers are already released).  Runs on that reader's
        thread.  ``deletion_pinned`` is read under the engine lock: the
        retire that sets it, with the pin, may still be inside its critical
        section when the reader drains."""
        with self._lock:
            if self._closed or not sv.deletion_pinned:
                # close() already force-cleaned via flush_all(), which
                # zeroed the pin count: nothing to release.
                return
            self.deletion_manager.unpin()

    def _acquire_read(self) -> tuple[SuperVersion, int]:
        """A lookup's pin, taken without the engine lock: load the current
        superversion, pin it, read the latest sequence, and keep the pair
        only if the pointer has not moved meanwhile (DESIGN.md §9, "Why a
        lock-free pin reads a consistent pair"); a moved pointer is
        unpinned and the load retried.  A closed store's pointer is None."""
        while True:
            sv = self._superversion
            if sv is None:
                raise DBClosedError("database is closed")
            sv.pins.append(None)
            sequence = self._sequence
            if self._superversion is sv:
                return sv, sequence
            sv.unref()

    # ------------------------------------------------------------------ compaction

    def _pick_compaction(self) -> CompactionTask | None:
        """Ask the picker for due work, traced as a ``compaction.pick`` span."""
        tracer = self.tracer
        if not tracer.enabled:
            return self.picker.pick(self.version)
        tracer.begin("compaction.pick", "compaction")
        task = self.picker.pick(self.version)
        if task is None:
            tracer.end("compaction.pick", "compaction", {"picked": False})
        else:
            tracer.end(
                "compaction.pick", "compaction",
                {
                    "picked": True,
                    "parent_level": task.parent_level,
                    "child_level": task.child_level,
                    "reason": task.reason,
                },
            )
        return task

    def _request_compaction(self, wait: bool = True) -> None:
        """Background work became due: wake the lane, or — synchronous
        mode — run its step here until the backlog is drained.  A
        ``wait=False`` caller never runs it here: the work stays due (the
        picker keeps its candidates) for the next request that may.

        Each inline step runs under the transient-retry loop: a unit that
        failed before its commit left the version untouched (outputs are
        orphans), so re-running the step — which re-picks it — is safe; a
        failure *during* commit surfaces as a fatal :class:`CommitError`
        and is never retried."""
        if self._scheduler is not None:
            self._scheduler.wake()
        elif wait and not self._error_handler.degraded:  # else read-only until resume()
            with self._lock:
                while self._retry_transient("compaction"):
                    pass

    def _background_paused(self):
        """Context manager quiescing the background worker (no-op in
        synchronous mode, or when already on the worker thread)."""
        scheduler = self._scheduler
        if scheduler is None or scheduler.on_worker_thread():
            return _NULL_CONTEXT
        return scheduler.quiesce()

    def _background_step(self) -> bool:
        """One unit of background work, the only flush-or-compact-or-GC
        code there is: a pending flush (which gates foreground writers, so
        it always goes first), else one compaction pick-execute-commit,
        else one value-log GC round — the heavy half without taking the
        engine lock, the commit under it.  Returns True when something was
        done (more may be due), False when the backlog is drained.  The
        :class:`SchedulerLane` calls it once per wake (one unit per call is
        what lets N shards interleave fairly on one worker pool);
        synchronous mode calls it until it returns False, on the writing
        thread (:meth:`_request_compaction`)."""
        if self._closed:
            return False
        if self._immutable is not None:
            meta = self._build_flush()
            with self._lock:
                self._commit_flush_locked(meta)
            self._error_handler.note_success()
            return True
        with self._lock:
            if self._closed:
                return False
            task = self._pick_compaction()
        if task is None:
            # Lowest-priority unit: value-log GC (flushes and compactions
            # always drain first, keeping writers unblocked).
            return vlog_gc.run_round(self)
        result = self._execute_compaction(task)
        with self._lock:
            self._commit_compaction(task, result)
            # Safe point between tasks: no task in flight references any
            # file, so auxiliary maintenance (L2SM's log drain) may compact.
            self._post_compaction_maintenance()
        self._error_handler.note_success()
        return True

    def _handle_background_error(self, exc: BaseException) -> bool:
        """Lane ``on_error`` hook: route a failed background step through
        the severity engine.  True = retry (the frozen memtable / pending
        compaction is still there, so the next ``_background_step``
        re-attempts exactly the failed unit); False = park the lane,
        leaving the DB read-only until resume()."""
        retry = self._error_handler.record(exc)
        if not retry:
            # Wake anyone blocked on the flush/stop conditions: the degraded
            # state ``record`` just set is what unblocks them now (the lane
            # stores its own error only after this returns).
            with self._lock:
                self._flush_cv.notify_all()
                self._l0_cv.notify_all()
        return retry

    def wait_for_background(self, timeout: float | None = None) -> bool:
        """Block until queued background flush/compaction work has drained
        (re-raising any stored background failure).  Returns False if the
        timeout elapsed first; always True in synchronous mode."""
        if self._scheduler is None:
            return True
        self._scheduler.wake()
        drained = self._scheduler.wait_idle(timeout)
        self._scheduler.raise_if_failed()
        return drained

    def compaction_style_for(self, task: CompactionTask) -> str:
        """Which scheme handles ``task`` (overridable hook).

        L0 parents always use Table Compaction: L0 files overlap each other,
        so block-grained reuse does not apply (paper Section IV-A).  So does
        a level rewrite (a task with no parent files, :meth:`compact_all`'s
        bottom pass): there is no parent slice to merge into blocks.

        Seek-triggered compactions also use Table Compaction: they exist to
        optimize the read path (Section V-G), and appending blocks would
        leave the merged data physically scattered — the opposite of what a
        read-triggered reorganization is for.  This matches Selective
        Compaction's stated goal of keeping lower levels sorted for range
        queries.

        Otherwise the engine-wide ``Options.compaction_style`` decides, the
        same at every level and under every policy.
        """
        if task.parent_level == 0 or not task.child_files or not task.parent_files:
            return COMPACTION_TABLE
        if task.reason == "seek":
            return COMPACTION_TABLE
        return self.options.compaction_style

    def _maybe_divert_task(self, task: CompactionTask) -> CompactionResult | None:
        """L2SM hook: return a result to bypass normal compaction.

        Implementations must not run further compactions from inside this
        hook — the in-flight ``task`` still references live files.  Use
        :meth:`_post_compaction_maintenance` for follow-up work.
        """
        return None

    def _post_compaction_maintenance(self) -> None:
        """Hook called between compaction tasks (no task in flight)."""

    def run_compaction(self, task: CompactionTask) -> CompactionResult:
        """Execute one compaction task and apply its result.

        In concurrent mode the caller-facing entry quiesces the background
        worker first (two compactions must never run at once — the worker
        being the sole routine mutator is what makes its lock-free
        execution safe)."""
        self._check_open()
        self._error_handler.check_writable()
        with self._background_paused():
            with self._lock:
                result = self._execute_compaction(task)
                return self._commit_compaction(task, result)

    def _execute_compaction(self, task: CompactionTask) -> CompactionResult:
        """The heavy half: merge/rewrite and build output files.  In the
        background worker this runs with the engine lock released — it only
        reads the version (stable between pick and commit) and writes fresh
        files nothing else references yet."""
        if self.vlog is not None:
            # Discard a failed prior attempt's drop observations (see
            # _build_flush) so retries never double-fold dead bytes.
            self.vlog.take_pending_dead()
        with self.tracer.span(
            "compaction.execute", "compaction",
            {
                "parent_level": task.parent_level,
                "child_level": task.child_level,
                "reason": task.reason,
                "parent_files": len(task.parent_files),
                "child_files": len(task.child_files),
            },
        ):
            diverted = self._maybe_divert_task(task)
            if diverted is not None:
                result = diverted
            elif can_trivially_move(self, task) and task.reason != "manual":
                # Manual compactions force a rewrite (LevelDB's CompactRange
                # semantics): moving a file wholesale would carry its garbage
                # (shadowed versions, droppable tombstones) along.
                result = run_trivial_move(self, task)
            else:
                style = self.compaction_style_for(task)
                if style == COMPACTION_TABLE:
                    result = run_table_compaction(self, task)
                elif style == COMPACTION_BLOCK:
                    result = run_block_compaction(self, task, self._subtasks)
                elif style == COMPACTION_SELECTIVE:
                    result = run_selective_compaction(self, task, self._subtasks)
                else:  # pragma: no cover - options.validate() rejects this
                    raise InvalidArgumentError(f"unknown style {style!r}")

            # Open the outputs now (LevelDB verifies each new table is usable
            # right after building it), charging the metadata loads to the
            # compaction rather than to the first foreground read.
            for _level, meta in result.edit.new_files:
                self._open_built(meta, CAT_COMPACTION)
            for _level, meta in result.edit.updated_files:
                self.table_cache.get(meta.file_number, meta.file_name(), CAT_COMPACTION)
        return result

    def _open_built(self, meta: FileMetadata, category: str) -> None:
        """Open a table right after it was written, charging ``category``,
        and hand the reader what its writer built (``meta.built``, taken:
        :mod:`repro.sstable.table_reader` says what the reader does with
        it)."""
        built, meta.built = meta.built, None
        self.table_cache.get(meta.file_number, meta.file_name(), category, built)

    def _commit_compaction(
        self, task: CompactionTask, result: CompactionResult
    ) -> CompactionResult:
        """The short half, always under the engine lock: install the version
        edit, retire replaced files, record stats."""
        with self.tracer.span(
            "compaction.commit", "compaction",
            {
                "parent_level": task.parent_level,
                "child_level": task.child_level,
                "kind": result.kind,
                "bytes_written": result.bytes_written,
                "output_files": result.output_files,
            },
        ):
            if task.parent_files:
                # A level rewrite (no parent files) starts no round-robin.
                self.picker.advance_pointer(task)
                result.edit.compact_pointers.append(
                    (task.parent_level, self.picker.compact_pointer[task.parent_level])
                )
            result.edit.next_file_number = self._next_file_number
            if self.vlog is not None:
                # Fold the drops this compaction observed into its own edit:
                # ledger deltas commit atomically with the file changes that
                # made the frames dead.
                result.edit.vlog_dead = self.vlog.take_pending_dead()
            self._apply_edit(result.edit)
            for meta in result.obsolete_files:
                self.picker.forget_file(meta.file_number)
            self.deletion_manager.retire(result.obsolete_files)

            self.stats.charge_level_write(task.child_level, result.bytes_written)
            self.stats.record_event(
                CompactionEvent(
                    parent_level=task.parent_level,
                    child_level=task.child_level,
                    kind=result.kind,
                    reason=task.reason,
                    bytes_read=result.bytes_read,
                    bytes_written=result.bytes_written,
                    input_files=len(task.parent_files) + len(task.child_files),
                    output_files=result.output_files,
                )
            )
            self._observe_space()
            for level in range(self.version.num_levels):
                self.stats.observe_obsolete(level, self.version.level_obsolete_bytes(level))
            # Stop-trigger waiters: whichever thread drained L0 — the lane,
            # or a manual compaction with the lane paused.
            self._l0_cv.notify_all()
            if self.options.paranoid_checks:
                self._verify_catalog()
        return result

    def _verify_catalog(self) -> None:
        """Paranoid mode: raise the catalog rule's first violation, storage
        clauses included (:func:`~repro.core.version.catalog_violations`)."""
        violations = catalog_violations(self.version, self.fs)
        if violations:
            raise InvalidArgumentError(violations[0])

    def compact_all(self) -> None:
        """Drain every level into the deepest non-empty level (manual full
        compaction, used by tests and experiment setup): an unbounded
        :meth:`compact_range`, then the bottom level rewritten in place —
        a task with no parent files, so the shadowed versions and
        unprotected tombstones that reached the bottom are collected
        (LevelDB's CompactRange has the same follow-up pass)."""
        self._check_open()
        with self._background_paused():
            with self._lock:
                self._compact_range_locked(None, None)
                level = self.version.deepest_nonempty_level()
                files = list(self.version.files_at(level))
                if files:
                    self.run_compaction(
                        CompactionTask(level - 1, [], files, reason="manual")
                    )

    def _drain_immutable_locked(self) -> None:
        """Land a pending frozen memtable inline (manual compactions run
        with the background worker paused, so nobody else will): with one
        pending, the step is exactly that flush."""
        if self._immutable is not None:
            self._retry_transient("flush")

    def compact_range(self, begin: bytes | None = None, end: bytes | None = None) -> None:
        """Manually compact every file overlapping ``[begin, end]`` down the
        tree (LevelDB's ``CompactRange``: None bounds mean open-ended).

        Forces rewrites (no trivial moves), so shadowed versions and
        droppable tombstones in the range are collected.
        """
        self._check_open()
        with self._background_paused():
            with self._lock:
                self._compact_range_locked(begin, end)

    def _compact_range_locked(self, begin: bytes | None, end: bytes | None) -> None:
        self._drain_immutable_locked()
        if len(self._memtable):
            self._flush_locked()
        for _pass in range(self.version.num_levels * 4):
            moved = False
            for level in range(self.version.num_levels - 1):
                while True:
                    overlapping = self.version.overlapping_files(level, begin, end)
                    if not overlapping:
                        break
                    self.run_compaction(
                        self.picker.build_task(
                            self.version, level, overlapping[:1], reason="manual"
                        )
                    )
                    moved = True
            if not moved:
                break

    def approximate_size(self, begin: bytes, end: bytes) -> int:
        """Approximate on-disk bytes of live data in ``[begin, end)``.

        Sums, per overlapping SSTable, the valid bytes of the data blocks
        whose ranges intersect the interval — metadata only, no data I/O
        (LevelDB's ``GetApproximateSizes``).
        """
        self._check_open()
        if begin >= end:
            return 0
        with self._lock:
            return self._approximate_size_locked(begin, end)

    def _approximate_size_locked(self, begin: bytes, end: bytes) -> int:
        total = 0
        for level in range(self.version.num_levels):
            for meta in self.version.overlapping_files(level, begin, end):
                reader = self.table_cache.get(meta.file_number, meta.file_name())
                for entry in reader.index.entries:
                    if entry.smallest_user_key < end and entry.largest_user_key >= begin:
                        total += entry.size
        return total

    def multi_get(
        self,
        keys: list[bytes],
        *,
        snapshot: Snapshot | None = None,
        wait: bool = True,
    ) -> dict[bytes, bytes | None]:
        """Batched point lookups: ``{key: value-or-None}`` for each input.

        A true batch, not a per-key loop: the snapshot and superversion
        are resolved once, and SSTable probes are grouped per file —
        each table's reader is fetched from the table cache once per batch
        instead of once per (key, file) pair.  Lookup results (including
        seek-compaction charges) match ``get`` called per key.  ``wait``
        is :meth:`get`'s."""
        if self._closed:  # _check_open, inlined
            raise DBClosedError("database is closed")
        checked: list[bytes] = []
        for key in keys:
            if not isinstance(key, (bytes, bytearray)):
                raise InvalidArgumentError("keys must be bytes")
            checked.append(bytes(key))
        start = time.perf_counter() if self.latency is not None else 0.0
        if not wait:
            self.lock_nowait()
        try:
            # One superversion pin for the batch; the engine lock is taken
            # only at the end, if seek charges accrued (compacting mid-batch
            # would pull files from under its probes).
            sv, sequence = self._acquire_read()
            try:
                if snapshot is not None:
                    sequence = self._resolve_snapshot(snapshot, sequence)
                resolved, charges = sv.multi_lookup(checked, sequence)
                # Resolve pointers before unref (see get).
                if self.vlog is not None:
                    for key, value in resolved.items():
                        if value is not None:
                            resolved[key] = self.vlog.resolve(value)
            finally:
                sv.unref()
            values = [resolved.get(key) for key in checked]
            self.stats.count_gets(len(checked), len(checked) - values.count(None))
            self._charge_seeks(charges, wait)
            return dict(zip(checked, values))
        finally:
            if not wait:
                self._lock.release()
            if self.latency is not None:
                self._hist_multi_get.record(time.perf_counter() - start)

    def _observe_space(self) -> None:
        total = self.version.total_file_bytes() + self.deletion_manager.pending_bytes
        self.stats.observe_space(total)

    # ------------------------------------------------------------------ reads

    def get(
        self,
        key: bytes,
        default: bytes | None = None,
        *,
        snapshot: Snapshot | None = None,
        wait: bool = True,
    ) -> bytes | None:
        """Point lookup; returns ``default`` when the key is absent.

        Pass a live :class:`Snapshot` to read a pinned point-in-time view.

        ``wait=False`` is the no-wait mode every read shares (DESIGN.md
        §9, :meth:`lock_nowait`): :class:`WouldBlock`, before
        anything is read or counted, on a filesystem that really blocks or
        when the engine lock is busy.  The lock is then held for the call,
        so nothing further down — the seek charge, a draining
        superversion's callback — can wait for it (the superversion pin
        takes no lock).
        """
        if self._closed:  # _check_open, inlined
            raise DBClosedError("database is closed")
        if not isinstance(key, (bytes, bytearray)):
            raise InvalidArgumentError("keys must be bytes")
        key = bytes(key)
        start = time.perf_counter() if self.latency is not None else 0.0
        if not wait:
            self.lock_nowait()
        try:
            sv, sequence = self._acquire_read()
            try:
                if snapshot is not None:
                    sequence = self._resolve_snapshot(snapshot, sequence)
                value, charge = sv.lookup(key, sequence)
                # Resolve while still holding the superversion reference:
                # pointer resolution must finish before this read stops
                # being visible to the GC deletion barrier.
                if value is not None and self.vlog is not None:
                    value = self.vlog.resolve(value)
            finally:
                sv.unref()
            self.stats.count_gets(1, 0 if value is None else 1)
            if charge is not None:
                self._charge_seeks((charge,), wait)
            return default if value is None else value
        finally:
            if not wait:
                self._lock.release()
            if self.latency is not None:
                self._hist_get.record(time.perf_counter() - start)

    def lock_nowait(self) -> None:
        """Take the engine lock for a ``wait=False`` read or scan, or raise
        :class:`WouldBlock` with nothing read, counted or charged: the
        filesystem really blocks (any block, table open or value-log frame
        the call needs might), or another thread holds the lock.  Public
        for ``ShardedDB``, which takes every involved shard's before a
        fanned-out no-wait read starts; pair with :meth:`unlock_nowait`."""
        if self.fs.blocking or not self._lock.acquire(False):
            raise WouldBlock("device or engine lock busy")

    def unlock_nowait(self) -> None:
        self._lock.release()

    #: L2SM hook, ``(level, key, sequence) -> (found, value) | None``: search
    #: the auxiliary components stacked under ``level``, called with no lock
    #: held.  None (no such components) for every other engine.
    _extra_get_after_level = None

    def _charge_seeks(
        self, charges: Iterable[tuple[int, FileMetadata]], wait: bool = True
    ) -> None:
        """Apply the seek charges a finished lookup observed.  Takes the
        engine lock (picker state and the compaction this may request —
        ``wait`` is :meth:`_request_compaction`'s — are guarded by it); a
        file compacted away in the meantime is harmless: the picker drops
        candidates it no longer finds."""
        if not charges:
            return
        with self._lock:
            if self._closed:
                return
            for level, meta in charges:
                meta.allowed_seeks -= 1
                self.stats.seek_miss_charges += 1
                if meta.allowed_seeks <= 0:
                    self.picker.note_seek_exhausted(level, meta)
                    meta.allowed_seeks = self._seek_budget(meta)
                    self._request_compaction(wait)

    def _seek_budget(self, meta: FileMetadata) -> int:
        return seek_budget(meta.file_size, self.options.seek_compaction_min_seeks)

    def __getitem__(self, key: bytes) -> bytes:
        value = self.get(key)
        if value is None:
            raise NotFoundError(key)
        return value

    def __setitem__(self, key: bytes, value: bytes) -> None:
        self.put(key, value)

    def __delitem__(self, key: bytes) -> None:
        self.delete(key)

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------ scans

    def _charge_scan_seek(self, level: int, meta: FileMetadata) -> None:
        """Iterators sample a seek charge per file they actually read —
        LevelDB's read-sampling, which is what makes repeated range scans
        trigger seek compactions and collapse levels (Section V-G).

        A file grown by Block Compaction appends is charged one more seek
        per append: each left at least one more out-of-order run of blocks
        that a scan pays a device seek for, so the file reaches its seek
        compaction — which rewrites it in key order
        (:func:`~repro.compaction.can_trivially_move`) — that much sooner.

        The triggered compaction itself is deferred until the iterator
        closes (see :meth:`_release_iterator`); mutating the tree mid-scan
        would pull files out from under the open iterator.
        """
        meta.allowed_seeks -= 1 + meta.append_count
        if meta.allowed_seeks <= 0:
            self.picker.note_seek_exhausted(level, meta)
            meta.allowed_seeks = self._seek_budget(meta)

    def _release_iterator(self, sv: SuperVersion, sequence: int, wait: bool = True) -> None:
        """Iterator teardown: drop the superversion reference first (its
        drain callback takes the engine lock itself), then release the
        sequence pin and deletion pin under the lock, and run the seek
        compactions the scan made due (``wait``:
        :meth:`_request_compaction`'s)."""
        sv.unref()
        with self._lock:
            self.snapshots.unpin(sequence)
            if self._closed:
                return
            self.deletion_manager.unpin()
            if self.deletion_manager.active_pins == 0 and self.picker.seek_candidates:
                self._request_compaction(wait)

    def _extra_entry_sources(
        self, seek: ComparableKey | None, category: str
    ) -> list[EntryStream]:
        """L2SM hook: extra sorted sources for iterators."""
        return []

    def iterator(
        self,
        start: bytes | None = None,
        end: bytes | None = None,
        *,
        snapshot: Snapshot | None = None,
        wait: bool = True,
    ) -> DBIterator:
        """Forward iterator over live keys in ``[start, end)``.

        The iterator pins obsolete-file deletion while open; close it (or
        exhaust it) promptly.  Pass a live :class:`Snapshot` to iterate a
        pinned point-in-time view.  ``wait=False`` (what a no-wait
        :meth:`scan` passes) only tells the close not to run the seek
        compactions the scan made due on the closing thread.
        """
        self._check_open()
        with self._lock:
            snapshot = self._resolve_snapshot(snapshot, self._sequence)
            seek = seek_comparable(start, snapshot) if start is not None else None
            # The iterator reads from a refcounted superversion and pins
            # its sequence in the snapshot registry for its lifetime: a
            # compaction landing mid-scan could otherwise merge away key
            # versions this iterator still needs (the memtable/file pins
            # alone don't protect versions inside surviving files).
            sv = self._superversion.ref()
            self.snapshots.pin(snapshot)

            sources = sv.scan_sources(
                seek, end, self._extra_entry_sources(seek, CAT_SCAN), self._charge_scan_seek
            )
            self.deletion_manager.pin()
            self.stats.scans += 1
            return DBIterator(
                sources,
                snapshot,
                end=end,
                on_close=lambda: self._release_iterator(sv, snapshot, wait),
                resolve=self.vlog.resolve if self.vlog is not None else None,
            )

    def scan(
        self,
        start: bytes | None = None,
        end: bytes | None = None,
        limit: int | None = None,
        *,
        snapshot: Snapshot | None = None,
        wait: bool = True,
    ) -> list[tuple[bytes, bytes]]:
        """Materialized range scan: up to ``limit`` live pairs in [start, end)
        (``None``: all of them; 0: none; negative: an error).

        ``wait=False`` (see :meth:`get`) runs the whole scan under the
        engine lock it took without waiting, so bound it with ``limit``."""
        if limit is not None and limit < 0:
            raise InvalidArgumentError(f"scan limit must be >= 0, got {limit}")
        clock_start = time.perf_counter() if self.latency is not None else 0.0
        if not wait:
            self.lock_nowait()
        try:
            # The iterator drains with the engine lock released (a waiting
            # scan's does), so the entry tally is taken from the result
            # and added to this thread's read tally (DBStats).
            with self.iterator(start, end, snapshot=snapshot, wait=wait) as it:
                results = list(it if limit is None else islice(it, limit))
            self.stats.count_scan_entries(len(results))
            if self.latency is not None:
                self._hist_scan.record(time.perf_counter() - clock_start)
            return results
        finally:
            if not wait:
                self._lock.release()

    def _on_flush(self, meta: FileMetadata) -> None:
        """L2SM hook: observe flushed key ranges for hotness tracking."""

    # ------------------------------------------------------------------ admin

    def level_sizes(self) -> list[int]:
        """Live bytes per level (diagnostics)."""
        return [self.version.level_valid_bytes(lv) for lv in range(self.version.num_levels)]

    def num_files_per_level(self) -> list[int]:
        return [len(self.version.files_at(lv)) for lv in range(self.version.num_levels)]

    def table_cache_memory(self):
        """Resident index/filter bytes (paper Fig 15)."""
        return self.table_cache.memory_cost()

    def health(self) -> dict:
        """Liveness/error snapshot (DESIGN.md §10).

        ``state`` is the severity engine's state machine (``ok`` /
        ``retrying`` / ``degraded``); ``wal_recovery`` reports what tolerant
        WAL replay salvaged and skipped at the last open.
        """
        report = self._error_handler.health()
        report["closed"] = self._closed
        report["wal_recovery"] = {
            "records": self._wal_recovery.records,
            "bytes_replayed": self._wal_recovery.bytes_replayed,
            "bytes_skipped": self._wal_recovery.bytes_skipped,
            "corrupt": self._wal_recovery.corrupt,
        }
        return report

    def resume(self) -> bool:
        """Attempt to leave degraded (read-only) mode.

        Call once the underlying fault is believed cleared.  Clears the
        severity engine, revives a parked background worker, and returns
        True if there was anything to clear.  Durable state is rebuilt
        from disk only on a reopen — resume() trusts the in-memory state,
        which is exactly what hard (non-fatal) errors leave intact.
        """
        self._check_open()
        cleared = self._error_handler.clear()
        if self._scheduler is not None:
            self._scheduler.reset_error()
            self._scheduler.wake()
        return cleared

    def debug_string(self) -> str:
        """Multi-line summary of the tree and counters (LevelDB's
        ``GetProperty("leveldb.stats")`` equivalent)."""
        lines = [
            "Level  Files  Valid(KiB)  File(KiB)  Obsolete(KiB)",
            "-----  -----  ----------  ---------  -------------",
        ]
        with self._lock:
            rows = level_rows(self.version)[: self.version.deepest_nonempty_level() + 1]
        for row in rows:
            lines.append(
                f"{row.level:>5}  {row.files:>5}  {row.valid_bytes / 1024:>10.1f}  "
                f"{row.file_bytes / 1024:>9.1f}  {row.obsolete_bytes / 1024:>13.1f}"
            )
        s = self.stats
        lines.append("")
        lines.append(
            f"writes={s.user_writes} deletes={s.user_deletes} gets={s.gets} "
            f"scans={s.scans} flushes={s.flush_count}"
        )
        lines.append(
            f"compactions: table={s.table_compactions} block={s.block_compactions} "
            f"trivial={s.trivial_moves} seek-triggered={s.seek_triggered_compactions} "
            f"policy={self.picker.policy.name}"
        )
        lines.append(
            f"WA={s.write_amplification():.2f} "
            f"peak-space={s.max_space_bytes / 1024:.1f} KiB "
            f"sim-time={self.io_stats.sim_time_s:.4f} s"
        )
        lines.append(
            f"stalls: events={s.stall_events} stops={s.stall_stops} "
            f"stall-time={s.stall_time_s:.3f} s"
        )
        health = self._error_handler.health()
        if health["state"] != "ok" or s.bg_failures:
            lines.append(
                f"health: state={health['state']} severity={health['severity']} "
                f"failures={s.bg_failures} retries={s.bg_retries} "
                f"resumes={s.bg_resumes} error={health['error']}"
            )
        io = self.io_stats
        per_cat = ", ".join(
            f"{name}={counters.bytes_written + counters.bytes_read}"
            for name, counters in sorted(io.per_category.items())
            if counters.bytes_written or counters.bytes_read
        )
        if per_cat:
            lines.append(f"io bytes by category: {per_cat}")
        bc = self.block_cache.snapshot()
        tc = self.table_cache.snapshot()
        lines.append(
            f"block-cache: shards={self.block_cache.num_shards} "
            f"hits={bc.hits} misses={bc.misses} evictions={bc.evictions} "
            f"invalidations={bc.invalidations}"
        )
        lines.append(
            f"table-cache: shards={self.table_cache.num_shards} "
            f"hits={tc.hits} misses={tc.misses} open={len(self.table_cache)}"
        )
        if self._superversion is not None:
            lines.append(
                f"superversion: number={self._superversion.number} "
                f"refs={self._superversion.refs} "
                f"pinned-readers={self._superversion.pinned_reader_count}"
            )
        if self.latency is not None:
            lines.append("")
            lines.append("latency (ms):        count       p50       p99      p999       max")
            for name, snap in self.latency.snapshot().items():
                if snap.count == 0:
                    continue
                lines.append(
                    f"  {name:<12} {snap.count:>12,d} "
                    f"{snap.quantile(0.5) * 1e3:>9.4f} "
                    f"{snap.quantile(0.99) * 1e3:>9.4f} "
                    f"{snap.quantile(0.999) * 1e3:>9.4f} "
                    f"{snap.max * 1e3:>9.4f}"
                )
        if self.tracer.enabled:
            lines.append(
                f"tracing: {len(self.tracer)} events buffered "
                f"({self.tracer.events_recorded} recorded, "
                f"capacity {self.tracer.capacity})"
            )
        return "\n".join(lines)

    def close(self) -> None:
        """Flush nothing (in-memory data survives via WAL), release files.

        A frozen-but-unflushed memtable also survives: its WAL is only
        deleted once its flush commits, and recovery replays every live
        log."""
        if self._closed:
            return
        # Stop background machinery before taking the lock: the worker may
        # need the lock to finish its in-flight round.
        self._shutdown_executors()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._close_locked()
            self._flush_cv.notify_all()
            self._l0_cv.notify_all()

    def _shutdown_executors(self) -> None:
        """Deterministically drain and stop every execution backend.

        Order matters: the background lane goes first (its in-flight
        compaction step may still submit subtasks), then the subtask
        executor (its threads, then the offload pool they may be waiting
        on).  All shutdowns wait, so no worker thread or process outlives
        this call.  Idempotent — called both by :meth:`close` and by a
        failed ``__init__``.
        """
        if self._scheduler is not None:
            self._scheduler.close()
        if self._own_background_executor is not None:
            self._own_background_executor.close()
        self._subtasks.close()

    def _close_locked(self) -> None:
        if self._superversion is not None:
            # First, so that no read can pin the store from here on.  Drop
            # the install reference: in-flight readers (if any) keep their
            # snapshot alive; their final unref sees _closed and skips the
            # deletion-manager unpin (flush_all below zeroes the pin count
            # unconditionally).
            sv, self._superversion = self._superversion, None
            sv.retire()
        if self._wal is not None:
            self._wal.close()
        if self.vlog is not None:
            # Deferred GC deletions that never cleared simply stay on disk:
            # their deletion edits are journaled, so the next open unlinks
            # them via the unregistered-file rule.
            self.vlog.close()
        if self._manifest is not None:
            self._manifest.close()
        self.deletion_manager.flush_all()
        self.table_cache.close()
        self.block_cache.clear()

    def __enter__(self) -> "DB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
