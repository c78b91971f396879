"""The database facade — BlockDB and its competitor configurations.

One :class:`DB` class implements the whole engine; the compaction scheme and
the paper's optimizations are chosen by :class:`~repro.options.Options`
(see :mod:`repro.baselines.presets` for the LevelDB / RocksDB / BlockDB
configurations; L2SM subclasses this DB in :mod:`repro.baselines.l2sm`).

Concurrency model (DESIGN.md §7) — one write path and one unit of
background work; :class:`~repro.options.Options` only selects which thread
drains that unit:

* **Writes** commit through ``_apply_locked`` — directly when the engine
  lock is free, else through the writer queue, whose head commits everyone
  behind it in one WAL append (group commit; a lone batch is a group of
  one).
* **Background work** is ``_background_step``: one flush, else one
  compaction, else one value-log GC round.  **Synchronous (default)**: the
  write that fills the memtable runs steps inline until nothing is due.
  Deterministic, and the mode every paper figure is generated in; *time*
  parallelism (Parallel Merging, concurrent dirty-block reads) is modelled
  by the device's makespan accounting.  **Concurrent pipeline**
  (``background_compaction``): the write freezes the full memtable — it
  stays readable — and wakes this DB's lane of a background executor
  (:mod:`repro.core.scheduler` — its own one-worker executor, or the one a
  ``ShardedDB`` shares across its shards), which runs one step per wake.
  L0 pressure throttles writers via the slowdown/stop triggers instead of
  inlining work, and disjoint compaction sub-tasks run on a real thread
  pool (:mod:`repro.compaction.parallel`).  Throughput mode: simulated
  metrics are approximate here.

Reads (DESIGN.md §9): ``get``,
``multi_get`` and iterators take a reference on the current refcounted
:class:`~repro.core.superversion.SuperVersion` under the engine lock,
resolve against that snapshot with the lock released, and apply any
seek-compaction charge under the lock afterwards.  Synchronous mode is
simply the case with one reader.

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
from bisect import bisect_left
from collections import deque
from contextlib import nullcontext
from itertools import chain, islice
from typing import Iterable, Iterator

from ..bloom.bloom import _hash_pair
from ..cache.block_cache import BlockCache
from ..cache.table_cache import TableCache
from ..compaction.base import CompactionResult, CompactionTask
from ..compaction.block_compaction import run_block_compaction
from ..compaction.lazy_deletion import DeletionManager
from ..compaction.parallel import SubtaskExecutor
from ..compaction.picker import CompactionPicker
from ..compaction.policy import make_policy
from ..compaction.selective import run_selective_compaction
from ..compaction.tuner import CompactionTuner
from ..compaction.table_compaction import (
    can_trivially_move,
    merge_into_tables,
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
from ..keys import ComparableKey, TYPE_VALUE, seek_comparable
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
    encode_pointer,
    parse_vlog_file_name,
    salvage_scan,
    stored_size_bound,
    vlog_file_name,
    wrap_inline,
)
from . import sync
from .flush import flush_memtable
from .iterator import DBIterator, EntryStream
from .scheduler import ErrorHandler, SchedulerLane, SharedBackgroundExecutor
from .snapshot import Snapshot, SnapshotRegistry
from .superversion import SuperVersion
from .manifest import (
    CURRENT_FILE,
    ManifestWriter,
    read_pointer,
    replay_manifest,
    write_pointer,
)
from .version import FileMetadata, Version, VersionEdit, seek_budget, table_file_name
from .write_batch import WriteBatch, replay_wal


def _log_name(number: int) -> str:
    return f"{number:06d}.log"


_NULL_CONTEXT = nullcontext()

#: Largest run of queued batches one group-commit leader adopts.
_GROUP_COMMIT_MAX_BYTES = 1 * 1024 * 1024

#: Sleep applied once per write while L0 is at or above the slowdown
#: trigger (LevelDB sleeps 1 ms).  Concurrent pipeline only.
LEVEL0_SLOWDOWN_SLEEP_S = 0.001
#: Upper bound on one write's stop-trigger stall before it proceeds anyway:
#: writes must never error under L0 pressure.
LEVEL0_STOP_MAX_WAIT_S = 30.0
#: Upper bound on a rollover's wait for the previous frozen memtable's
#: flush, for the same reason.
ROLLOVER_MAX_WAIT_S = 60.0


class _GroupWriter:
    """One queued batch in the group-commit writer queue (LevelDB's
    ``Writer``); see :meth:`DB._write_queued`."""

    __slots__ = ("batch", "done", "error")

    def __init__(self, batch: WriteBatch):
        self.batch = batch
        self.done = False
        self.error: BaseException | None = None


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
        seed: int = 0,
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
        # Online policy tuner (DESIGN.md §14): None — the default — keeps
        # every op path free of tuner branches beyond one attribute test.
        self._tuner: CompactionTuner | None = (
            CompactionTuner(self) if self.options.compaction_tuner else None
        )
        self.deletion_manager = DeletionManager(
            self.fs, self.options, self.table_cache, self.block_cache, self.stats
        )
        # Key-value separation (DESIGN.md §13): None — the default — means
        # values live inline in the LSM exactly as before; compaction's
        # drop_observer() and every read-path resolve site key off this
        # attribute, so the non-separated engine stays bit-identical.
        self.vlog: VlogManager | None = (
            VlogManager(self.fs, self.options, self.stats)
            if self.options.kv_separation
            else None
        )
        #: Re-entrancy guard: a GC re-put can fill the memtable, whose flush
        #: runs compactions, whose completion would otherwise start GC again.
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

        self._seed = seed
        self._memtable_counter = 0
        self._sequence = 0
        # The read path (DESIGN.md §9): readers resolve lookups against a
        # refcounted superversion instead of holding the engine lock.
        # Installed at the end of recovery; None again once closed.
        self._superversion: SuperVersion | None = None
        self._sv_number = 0
        # L2SM stacks auxiliary read components under the levels; probing
        # them is not superversion-safe, so reads take the engine lock
        # around the hook when a subclass overrides it.
        self._has_extra_read_hook = (
            type(self)._extra_get_after_level is not DB._extra_get_after_level
        )
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
        self._writers: deque[_GroupWriter] = deque()  # queued behind a busy engine lock
        self._writers_cv = sync.Condition()
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

    def _new_memtable(self) -> MemTable:
        self._memtable_counter += 1
        return MemTable(seed=self._seed + self._memtable_counter)

    def new_file_number(self) -> int:
        # Own lock (not the engine lock): background flush/compaction build
        # output files with the engine lock released.
        with self._fnum_lock:
            number = self._next_file_number
            self._next_file_number += 1
            return number

    def _recover(self) -> None:
        """Rebuild state from CURRENT/manifest/WAL, or initialize fresh."""
        self._memtable = self._new_memtable()
        self._immutable: MemTable | None = None

        current = read_pointer(self.fs, CURRENT_FILE)
        old_logs: list[str] = []
        if current is not None:
            for edit in replay_manifest(self.fs, current):
                self.version.apply(edit)
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
            for _level, meta in self.version.all_files():
                name = meta.file_name()
                if self.fs.exists(name) and self.fs.file_size(name) > meta.file_size:
                    self.fs.truncate_file(name, meta.file_size)
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

        if self.vlog is not None:
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
            self._memtable = self._new_memtable()
            if recovered_file is not None:
                recovered_file.built = None  # no eager open here to take it
        # Dead bytes the recovery flush observed (shadowed replayed entries)
        # fold into the ledger before the snapshot below re-emits it.
        if self.vlog is not None:
            for number, delta in self.vlog.take_pending_dead():
                if number in self.version.vlog:
                    self.version.vlog[number] += delta

        # Start a fresh manifest snapshotting the recovered state.
        self._manifest = ManifestWriter(self.fs, self.new_file_number())
        self._log_number = self.new_file_number()
        if self.options.enable_wal:
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
        )
        if recovered_file is not None:
            self.version.apply(VersionEdit(new_files=[(0, recovered_file)]))
            snapshot.new_files.append((0, recovered_file))
        # Re-emit the value-log catalog (registrations + garbage ledger)
        # into the fresh manifest — kept even with separation off, so a
        # store's vlog state survives an interim non-separated open.
        if self.version.vlog:
            snapshot.new_vlog_files = sorted(self.version.vlog)
            snapshot.vlog_dead = [
                (number, dead)
                for number, dead in sorted(self.version.vlog.items())
                if dead
            ]
        snapshot.next_file_number = self._next_file_number
        self._manifest.log_edit(snapshot)
        write_pointer(self.fs, CURRENT_FILE, self._manifest.name)
        for old_log in old_logs:
            if self.fs.exists(old_log):
                self.fs.delete_file(old_log)

    def _recover_vlog(self) -> None:
        """Value-log recovery (DESIGN.md §13).

        A head registration edit is journaled (and synced) BEFORE any
        pointer into that file can reach the WAL, so an on-disk VLOG file
        absent from the replayed manifest has no durable pointer referencing
        it — this one rule covers both a crash between create and register
        and a GC victim journaled deleted but not yet unlinked; such files
        are deleted here.  Registered files may carry a torn tail (an
        append whose pointers never reached the WAL): truncate back to the
        last intact frame.  A fresh head always opens — sealed files never
        grow again, keeping every durable pointer's (file, offset) stable.
        """
        for name in self.fs.list_dir():
            number = parse_vlog_file_name(name)
            if number is None:
                continue
            if number not in self.version.vlog:
                self.fs.delete_file(name)
                continue
            size = self.fs.file_size(name)
            if size == 0:
                continue
            _records, intact = salvage_scan(self.vlog.read_file(number))
            if intact < size:
                self.fs.truncate_file(name, intact)
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
        batch = WriteBatch()
        batch.put(key, value)
        self.write(batch, wait=wait)

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
        self._check_open()
        if len(batch) == 0:
            return
        tracer = self.tracer
        if tracer.enabled:
            tracer.begin("write", "write", {"n": len(batch)})
        start = time.perf_counter() if self.latency is not None else 0.0
        if not wait:
            try:
                self._lock_nowait_write(batch)
            except BaseException:  # declined, not served: no sample, no tuner tick
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
            if not wait or (not self._writers and self._lock.acquire(False)):
                try:
                    self._apply_locked([batch])
                    self._maybe_freeze_locked(wait)
                finally:
                    self._lock.release()
            else:
                self._write_queued(batch)
        finally:
            if self.latency is not None:
                self._hist_put.record(time.perf_counter() - start)
            if tracer.enabled:
                tracer.end("write", "write")
            if self._tuner is not None:
                self._tuner.record_op()

    def _lock_nowait_write(self, batch: WriteBatch) -> None:
        """Take the engine lock for a ``wait=False`` write, or raise
        :class:`WouldBlock` with nothing changed.  A device that really
        blocks, a busy lock and a writer queue (``_write_queued``'s wait)
        are declined here; the other two waits are declined, under the
        lock and before a byte is written, by the code that owns them — L0
        past the slowdown trigger by :meth:`_throttle_l0`, a rollover that
        would wait by :meth:`_rollover_waits_locked`."""
        if self.fs.blocking or self._writers or not self._lock.acquire(False):
            raise WouldBlock("device or engine lock busy")
        try:
            if self._scheduler is not None:
                self._throttle_l0(wait=False)
            if self._rollover_waits_locked(batch):
                raise WouldBlock("memtable rollover would wait")
        except BaseException:
            self._lock.release()
            raise

    def _write_queued(self, batch: WriteBatch) -> None:
        """Group commit: contended writers queue up; the queue head leads,
        committing a whole run of batches in one WAL append and one
        lock-held memtable pass, then wakes the followers (LevelDB's
        ``BuildBatchGroup``).  Each batch keeps its own WAL record — only
        the ``fs.append`` (the expensive device op) is shared."""
        writer = _GroupWriter(batch)
        cv = self._writers_cv
        with cv:
            self._writers.append(writer)
            cv.wait_for(lambda: writer.done or self._writers[0] is writer)
            if writer.done:
                if writer.error is not None:
                    raise writer.error
                return
        # Leader.  The queue is left intact until completion so new
        # arrivals keep waiting behind it.
        group = [writer]
        size = batch.byte_size()
        error: BaseException | None = None
        tracer = self.tracer
        if tracer.enabled:
            tracer.begin("group_commit", "write")
        try:
            with self._lock:
                # Adopt followers only now: everyone who queued while the
                # leader waited for the engine lock rides along, up to the
                # byte cap.
                with cv:
                    for follower in islice(self._writers, 1, None):
                        size += follower.batch.byte_size()
                        if size > _GROUP_COMMIT_MAX_BYTES:
                            break
                        group.append(follower)
                self._apply_locked([m.batch for m in group])
                self._maybe_freeze_locked()
        except BaseException as exc:  # noqa: BLE001 - delivered to every member
            error = exc
        finally:
            if tracer.enabled:
                tracer.end("group_commit", "write", {"writers": len(group), "bytes": size})
        with cv:
            for member in group:
                popped = self._writers.popleft()
                assert popped is member
                member.error = error
                member.done = True
            cv.notify_all()
        if error is not None:
            raise error

    def _apply_locked(self, batches: list[WriteBatch], user: bool = True) -> None:
        """The atomic core of every write — a lone batch, a group-commit
        leader's run, or vlog GC's re-puts (``user=False``): one WAL append
        carrying one record per batch, then the memtable adds.

        The degraded-mode check lives HERE, under the engine lock, not in
        the pre-lock fast path: a background error recorded between a
        writer's pre-check and its critical section must still refuse the
        batch (the bg_error propagation race)."""
        self._error_handler.check_writable()
        stored = batches
        if self.vlog is not None:
            # Separate BEFORE the WAL append: the vlog frames are synced
            # inside (one append + sync for the whole group), so a durable
            # WAL pointer always addresses a durable frame (a crash in
            # between leaves only orphan vlog garbage).
            stored = self._separate_group_locked(batches)
        first = self._sequence + 1
        if self._wal is not None:
            payloads: list[bytes] = []
            base = first
            for batch in stored:
                payloads.append(batch.serialize(base))
                base += len(batch)
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
        puts = 0
        add = self._memtable.add
        for batch in stored:
            for value_type, key, value in batch:
                add(sequence, value_type, key, value)
                sequence += 1
                if value_type == TYPE_VALUE:
                    puts += 1
        self._sequence = sequence - 1
        if user:
            # GC re-puts skip this: they are engine-internal traffic and
            # must not deflate the measured write amplification.  User
            # bytes are charged at the ORIGINAL size for the same reason —
            # separation must not shrink the denominator.
            stats = self.stats
            stats.user_writes += puts
            stats.user_deletes += sequence - first - puts
            for batch in batches:
                stats.user_bytes_written += batch.byte_size()
            # Without a lane nothing sleeps on L0 pressure (the work is
            # inlined instead), but each write past the trigger — a group
            # member's as much as a direct one — counts as a stall.
            if (
                self._scheduler is None
                and len(self.version.files_at(0)) >= self.options.level0_slowdown_writes_trigger
            ):
                stats.stall_events += len(batches)
                if self.tracer.enabled:
                    self.tracer.instant("stall", "write", {"kind": "slowdown"})

    def _separate_group_locked(self, batches: list[WriteBatch]) -> list[WriteBatch]:
        """Rewrite batches into stored form: values at or past the
        separation threshold move to the value log (one framed, synced
        append for the whole run) and become pointers; everything else is
        inline-tagged.  Caller holds the engine lock."""
        threshold = self.options.kv_separation_threshold
        ops_per = [list(batch) for batch in batches]
        large: list[tuple[int, int]] = []
        pairs: list[tuple[bytes, bytes]] = []
        for bi, ops in enumerate(ops_per):
            for oi, (value_type, key, value) in enumerate(ops):
                if value_type == TYPE_VALUE and len(value) >= threshold:
                    large.append((bi, oi))
                    pairs.append((key, value))
        pointers: list[bytes] = []
        if pairs:
            if self.vlog.head_full():
                self._roll_vlog_head_locked()
            pointers = self.vlog.append_records(pairs)
        stored = dict(zip(large, pointers))
        out: list[WriteBatch] = []
        for bi, ops in enumerate(ops_per):
            rewritten = WriteBatch()
            for oi, (value_type, key, value) in enumerate(ops):
                if value_type != TYPE_VALUE:
                    rewritten.delete(key)
                elif (bi, oi) in stored:
                    rewritten.put(key, stored[(bi, oi)])
                else:
                    rewritten.put(key, wrap_inline(value))
            out.append(rewritten)
        return out

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
        tracer = self.tracer
        self._scheduler.wake()
        stop = len(self.version.files_at(0)) >= opts.level0_stop_writes_trigger
        if tracer.enabled:
            tracer.begin("stall", "write", {"kind": "stop" if stop else "slowdown"})
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
        if tracer.enabled:
            tracer.end("stall", "write")

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
            if self.tracer.enabled:
                self.tracer.begin("stall", "write", {"kind": "memtable"})
            self._scheduler.wake()
            start = sync.monotonic()
            self._flush_cv.wait_for(
                lambda: self._immutable is None
                or self._error_handler.degraded
                or self._closed,
                ROLLOVER_MAX_WAIT_S,
            )
            self.stats.record_stall(seconds=sync.monotonic() - start)
            if self.tracer.enabled:
                self.tracer.end("stall", "write")
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
        self._memtable = self._new_memtable()

        # Rotate the WAL with the memtable: the new log only covers the new
        # memtable, so the old log can go once the flush lands.
        self._pending_log = _log_name(self._log_number) if self._wal is not None else None
        if self._wal is not None:
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
        tracer = self.tracer
        if tracer.enabled:
            tracer.begin("flush.build", "flush", {"file": file_number, "entries": len(immutable)})
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
        finally:
            if tracer.enabled:
                tracer.end("flush.build", "flush")

    def _commit_flush_locked(self, meta: FileMetadata | None) -> None:
        traced = self.tracer.enabled and meta is not None
        if traced:
            self.tracer.begin(
                "flush.commit", "flush",
                {"file": meta.file_number, "bytes": meta.file_size},
            )
        try:
            self._immutable = None
            dead = self.vlog.take_pending_dead() if self.vlog is not None else []
            if meta is not None:
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
            else:
                # No table came out (everything dropped), so no version edit —
                # but _immutable was cleared, which is a read-source change.
                # Dropped entries may still have freed vlog frames, though:
                # journal the ledger delta on its own.
                if dead:
                    self._apply_edit(VersionEdit(vlog_dead=dead))
                self._install_superversion_locked()
            if self._pending_log is not None and self.fs.exists(self._pending_log):
                self.fs.delete_file(self._pending_log)
            self._pending_log = None
            self._observe_space()
            self._last_flush_meta = meta
            self._flush_cv.notify_all()
        finally:
            if traced:
                self.tracer.end("flush.commit", "flush")

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

        The outgoing superversion drops its install reference here.  If
        in-flight readers still hold it, the deletion manager takes one pin
        on its behalf so files retired by this very commit stay on disk;
        the last reader's unref releases the pin (deferred deletion)."""
        old = self._superversion
        self._sv_number += 1
        self._superversion = SuperVersion(
            self._sv_number,
            self._memtable,
            self._immutable,
            self.version.clone_file_lists(),
            self._superversion_drained,
        )
        if old is not None and old.retire():
            self.deletion_manager.pin()

    def _superversion_drained(self, sv: SuperVersion) -> None:
        """Last reference to a retired superversion dropped (its pinned
        table readers are already released).  Runs on whichever thread
        dropped the last ref, with no superversion lock held."""
        if not sv.deletion_pinned:
            return
        with self._lock:
            if self._closed:
                # close() already force-cleaned via flush_all(); the pin
                # count was zeroed, so there is nothing to release.
                return
            self.deletion_manager.unpin()

    def _acquire_read(self) -> tuple[SuperVersion, int]:
        """A lookup's only engine-lock touch before it resolves: load the
        current superversion pointer, incref, read the latest sequence.

        The lock is tried first and waited for only when another thread
        holds it — the same sequence with tracing on or off.  With tracing
        on, the wait is recorded as one pre-timed ``get.lock_wait`` event
        (the ``cache.shard_wait`` pattern); an uncontended reader records
        nothing, because a ring append on every get costs more than the
        tracing-overhead gate (benchmarks/perf/hotpaths.py) allows."""
        lock = self._lock
        if not lock.acquire(blocking=False):
            tracer = self.tracer
            start = time.perf_counter() if tracer.enabled else 0.0
            lock.acquire()
            if tracer.enabled:
                tracer.complete("get.lock_wait", "get", dur=time.perf_counter() - start)
        try:
            self._check_open()
            return self._superversion.ref(), self._sequence
        finally:
            lock.release()

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
            return self._maybe_run_vlog_gc()
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
        so block-grained reuse does not apply (paper Section IV-A).

        Seek-triggered compactions also use Table Compaction: they exist to
        optimize the read path (Section V-G), and appending blocks would
        leave the merged data physically scattered — the opposite of what a
        read-triggered reorganization is for.  This matches Selective
        Compaction's stated goal of keeping lower levels sorted for range
        queries.

        Otherwise the policy's per-level granularity override (set by the
        online tuner, DESIGN.md §14) wins, falling back to the engine-wide
        ``Options.compaction_style`` — so the default leveled policy with
        no overrides behaves exactly as before.
        """
        if task.parent_level == 0 or not task.child_files:
            return COMPACTION_TABLE
        if task.reason == "seek":
            return COMPACTION_TABLE
        return self.picker.policy.granularity_for(
            task.child_level, self.options.compaction_style
        )

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
            # _build_flush_file) so retries never double-fold dead bytes.
            self.vlog.take_pending_dead()
        tracer = self.tracer
        if tracer.enabled:
            tracer.begin(
                "compaction.execute", "compaction",
                {
                    "parent_level": task.parent_level,
                    "child_level": task.child_level,
                    "reason": task.reason,
                    "parent_files": len(task.parent_files),
                    "child_files": len(task.child_files),
                },
            )
            try:
                result = self._execute_compaction_inner(task)
            finally:
                tracer.end("compaction.execute", "compaction")
            return result
        return self._execute_compaction_inner(task)

    def _execute_compaction_inner(self, task: CompactionTask) -> CompactionResult:
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
                result = run_block_compaction(self, task)
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
        traced = self.tracer.enabled
        if traced:
            self.tracer.begin(
                "compaction.commit", "compaction",
                {
                    "parent_level": task.parent_level,
                    "child_level": task.child_level,
                    "kind": result.kind,
                    "bytes_written": result.bytes_written,
                    "output_files": result.output_files,
                },
            )
        try:
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
                    policy=self.picker.policy.name,
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
        finally:
            if traced:
                self.tracer.end("compaction.commit", "compaction")
        return result

    def _verify_catalog(self) -> None:
        """Paranoid mode: every live file exists with its recorded size."""
        for _level, meta in self.version.all_files():
            name = meta.file_name()
            if not self.fs.exists(name):
                raise InvalidArgumentError(f"catalog references missing file {name}")
            actual = self.fs.file_size(name)
            if actual != meta.file_size:
                raise InvalidArgumentError(
                    f"catalog size mismatch for {name}: recorded "
                    f"{meta.file_size}, on disk {actual}"
                )
        if self.vlog is not None:
            for number in self.version.vlog:
                name = vlog_file_name(number)
                if not self.fs.exists(name):
                    raise InvalidArgumentError(
                        f"catalog references missing value-log file {name}"
                    )

    def switch_compaction_policy(
        self,
        name: str,
        *,
        granularity: dict[int, str] | None = None,
        reason: str = "",
    ) -> bool:
        """Swap the live compaction policy (the tuner's transition protocol,
        DESIGN.md §14); returns True if anything changed.

        Sequence: quiesce the background worker (counted pause/resume — any
        in-flight compaction drains first, so no task built under the old
        policy commits after the swap), then under the engine lock install
        the new policy object and migrate picker state (compact pointers
        survive untouched and stay manifest-journaled; seek candidates the
        new policy vetoes are dropped), apply per-level granularity
        overrides, and on resume nudge the scheduler — the new policy may
        consider work due immediately.

        The policy is deliberately NOT persisted: ``Options
        .compaction_policy`` seeds the picker at open, so a crash here is
        indistinguishable from a restart with the configured options and
        recovery needs no new manifest record.
        """
        self._check_open()
        changed = False
        with self._background_paused():
            with self._lock:
                policy = self.picker.policy
                if policy.name != name:
                    policy = make_policy(name, self.options)
                    self.picker.set_policy(policy)
                    self.stats.policy_switches += 1
                    changed = True
                if granularity is not None and granularity != policy.granularity_overrides():
                    for level in list(policy.granularity_overrides()):
                        policy.set_granularity(level, None)
                    for level, style in granularity.items():
                        policy.set_granularity(level, style)
                    changed = True
                if changed and self.tracer.enabled:
                    self.tracer.instant(
                        "compaction.policy_switch", "compaction",
                        {"policy": name, "reason": reason},
                    )
        if changed:
            self._request_compaction()
        return changed

    def compact_all(self) -> None:
        """Drain every level into the deepest non-empty level (manual full
        compaction, used by tests and experiment setup): an unbounded
        :meth:`compact_range`, then the bottom level rewritten in place."""
        self._check_open()
        with self._background_paused():
            with self._lock:
                self._compact_range_locked(None, None)
                self._rewrite_bottom_level()

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
                    meta = overlapping[0]
                    children = self.version.overlapping_files(
                        level + 1, meta.smallest_user_key, meta.largest_user_key
                    )
                    task = CompactionTask(
                        parent_level=level,
                        parent_files=[meta],
                        child_files=children,
                        reason="manual",
                    )
                    self.run_compaction(task)
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
        self._check_open()
        checked: list[bytes] = []
        for key in keys:
            if not isinstance(key, (bytes, bytearray)):
                raise InvalidArgumentError("keys must be bytes")
            checked.append(bytes(key))
        start = time.perf_counter() if self.latency is not None else 0.0
        if not wait:
            self.lock_nowait()
        try:
            return self._multi_get(checked, snapshot, wait)
        finally:
            if not wait:
                self._lock.release()
            if self.latency is not None:
                self._hist_multi_get.record(time.perf_counter() - start)
            if self._tuner is not None:
                self._tuner.record_op()

    def _multi_get(
        self, keys: list[bytes], snapshot: Snapshot | None, wait: bool = True
    ) -> dict[bytes, bytes | None]:
        """The batched traversal, against one superversion reference: the
        engine lock is touched once to incref (plus once at the end if any
        seek charges accrued — ``wait`` is :meth:`_charge_seeks`'s)."""
        sv, sequence = self._acquire_read()
        resolved: dict[bytes, bytes | None] = {}
        # Seek charges, (level, meta) each, applied under the engine lock after
        # the batch: compacting mid-batch would pull files from under its probes.
        charges: list[tuple[int, FileMetadata]] = []
        try:
            sequence = self._resolve_snapshot(snapshot, sequence)
            memtable, immutable = sv.memtable, sv.immutable
            # Keys the memtables did not answer, in batch order, each with
            # its seek-charge state (_lookup's rule): None until a probe
            # reads a block and misses, then that (level, file) — appended
            # to ``charges`` and set False when the walk goes on past it.
            pending: dict[bytes, tuple[int, FileMetadata] | None | bool] = {}
            for key in keys:
                if key in resolved or key in pending:
                    continue
                found, value = memtable.get(key, sequence)
                if not found and immutable is not None:
                    found, value = immutable.get(key, sequence)
                if found:
                    resolved[key] = value
                else:
                    pending[key] = None

            hashes: dict[bytes, tuple[int, int]] = {}  # filled at a key's first probe
            readers = sv.readers
            table_cache, block_cache = self.table_cache, self.block_cache
            hook = self._has_extra_read_hook
            for level in range(sv.num_levels):
                if not pending:
                    break
                # The level's probes as (file, keys) groups.  An L0 file's keys are
                # picked at its turn (None here): a newer file may resolve some.
                if level == 0:
                    groups = [(meta, None) for meta in sv.level0_newest_first]
                else:
                    by_file: dict[int, tuple[FileMetadata, list[bytes]]] = {}
                    for key in pending:
                        meta = sv.file_for_key(level, key)
                        if meta is not None:
                            by_file.setdefault(meta.file_number, (meta, []))[1].append(key)
                    groups = by_file.values()
                for meta, file_keys in groups:
                    if file_keys is None:
                        smallest, largest = meta.smallest_user_key, meta.largest_user_key
                        file_keys = [key for key in pending if smallest <= key <= largest]
                        if not file_keys:
                            continue
                    reader = readers.get(meta.file_number)
                    if reader is None:
                        reader = sv.reader_for(meta, table_cache)
                    for key in file_keys:
                        key_hash = hashes.get(key) or hashes.setdefault(key, _hash_pair(key))
                        found, value, touched = reader.lookup(
                            key, sequence, block_cache=block_cache, key_hash=key_hash
                        )
                        if found:
                            resolved[key] = value
                            first_miss = pending.pop(key)
                            if first_miss:
                                charges.append(first_miss)
                        elif touched:
                            first_miss = pending[key]
                            if first_miss is None:
                                pending[key] = (level, meta)
                            elif first_miss:
                                charges.append(first_miss)
                                pending[key] = False
                if hook and level and pending:
                    with self._lock:
                        extras = [
                            (key, self._extra_get_after_level(level, key, sequence))
                            for key in pending
                        ]
                    for key, extra in extras:
                        if extra is not None and extra[0]:
                            resolved[key] = extra[1]
                            del pending[key]
            # Resolve pointers before unref (see get).
            if self.vlog is not None:
                for key, value in resolved.items():
                    if value is not None:
                        resolved[key] = self.vlog.resolve(value)
        finally:
            sv.unref()

        values = [resolved.get(key) for key in keys]
        self.stats.count_gets(len(keys), len(keys) - values.count(None))
        self._charge_seeks(charges, wait)
        return dict(zip(keys, values))

    def _rewrite_bottom_level(self) -> None:
        """Rewrite the deepest level in place, dropping shadowed versions
        and unprotected tombstones that accumulated there.

        Ordinary compactions only merge *into* a level, so garbage that
        reaches the bottom has no natural collection point; LevelDB's
        CompactRange has the same follow-up pass.
        """
        level = self.version.deepest_nonempty_level()
        files = list(self.version.files_at(level))
        if not files:
            return
        write_start = self.fs.stats.per_category[CAT_COMPACTION].bytes_written
        if self.vlog is not None:
            self.vlog.take_pending_dead()
        outputs = merge_into_tables(self, files, level)
        edit = VersionEdit(next_file_number=self._next_file_number)
        if self.vlog is not None:
            edit.vlog_dead = self.vlog.take_pending_dead()
        for meta in files:
            edit.deleted_files.append((level, meta.file_number))
        for meta in outputs:
            edit.new_files.append((level, meta))
        self._apply_edit(edit)
        for meta in outputs:
            self._open_built(meta, CAT_COMPACTION)
        self.deletion_manager.retire(files)
        written = self.fs.stats.per_category[CAT_COMPACTION].bytes_written - write_start
        self.stats.charge_level_write(level, written)
        self.stats.compaction_bytes_written += written
        self.stats.table_compactions += 1
        self._observe_space()

    def _observe_space(self) -> None:
        total = self.version.total_file_bytes() + self.deletion_manager.pending_bytes
        self.stats.observe_space(total)

    # ------------------------------------------------------------------ value-log GC

    def _maybe_run_vlog_gc(self) -> bool:
        """Run one value-log GC round if a file qualifies, then try any
        deferred physical deletions.  Returns True when work happened.

        The one entry point is :meth:`_background_step`'s lowest-priority
        unit, so a failed round is retried by whichever driver ran the
        step.  A round cannot re-enter itself: its re-puts go through
        :meth:`_apply_locked`, which never rolls the memtable, and
        :meth:`_gc_maybe_flush` only ever runs the step that is the pending
        flush."""
        if self.vlog is None or self._closed:
            return False
        with self._lock:
            victim = self.vlog.pick_gc_victim(self.version.vlog)
        did = False
        if victim is not None:
            self._run_vlog_gc(victim)
            self._error_handler.note_success()
            did = True
        if self._process_vlog_deletes():
            did = True
        return did

    def _run_vlog_gc(self, victim: int) -> None:
        """Rewrite ``victim``'s still-live records to the log head, then
        journal its deletion.

        Crash consistency: re-puts are ordinary durable writes, so a crash
        at ANY point leaves only duplicate-but-live records — never a
        dangling pointer.  Before the deletion edit lands the victim stays
        registered and a re-run converges (the re-pointed keys now fail the
        liveness check); after it lands, recovery unlinks the file via the
        unregistered-file rule."""
        if self.tracer.enabled:
            self.tracer.begin("vlog.gc", "compaction", {"file": victim})
        self.stats.vlog_gc_runs += 1
        try:
            records, _intact = salvage_scan(self.vlog.read_file(victim))
            chunk: list[tuple[int, int, bytes, bytes]] = []
            for record in records:
                chunk.append(record)
                if len(chunk) >= 64:
                    self._gc_rewrite_chunk(victim, chunk)
                    chunk = []
                    self._gc_maybe_flush()
            if chunk:
                self._gc_rewrite_chunk(victim, chunk)
                self._gc_maybe_flush()
            with self._lock:
                self._apply_edit(VersionEdit(deleted_vlog_files=[victim]))
                # Physical deletion waits for every reader that might still
                # hold the old pointers: barrier = the first sequence at
                # which all live versions point at the head copies.
                self.vlog.defer_delete(victim, self._sequence)
        finally:
            if self.tracer.enabled:
                self.tracer.end("vlog.gc", "compaction")

    def _gc_rewrite_chunk(
        self, victim: int, chunk: list[tuple[int, int, bytes, bytes]]
    ) -> None:
        """Re-point one chunk of victim records.  Liveness re-check and
        re-put happen under a single engine-lock hold, so a concurrent
        writer can never be clobbered by a stale GC copy: a record is
        rewritten only while the newest version of its key is EXACTLY the
        pointer to this frame."""
        with self._lock:
            survivors = WriteBatch()
            for frame_offset, frame_length, key, value in chunk:
                # The engine lock is held, so the current superversion
                # cannot be retired under this walk: no reference needed.
                stored, _charge = self._lookup(
                    self._superversion, key, self._sequence
                )
                if stored is not None and stored == encode_pointer(
                    victim, frame_offset, frame_length
                ):
                    survivors.put(key, value)
            if len(survivors):
                # Re-put through the one durable write core (vlog
                # re-separation + WAL + memtable), as engine traffic.
                self._apply_locked([survivors], user=False)
                self.stats.vlog_gc_rewritten_values += len(survivors)
                self.stats.vlog_gc_rewritten_bytes += sum(
                    len(value) for _type, _key, value in survivors
                )

    def _gc_maybe_flush(self) -> None:
        """Keep the memtable bounded while GC re-puts stream through it:
        freeze-and-flush inline (both modes).  Compactions the flushes make
        due run after the GC round finishes."""
        with self._lock:
            if (
                self._immutable is None
                and self._memtable.approximate_memory_usage()
                >= self.options.memtable_size
            ):
                self._freeze_locked()
            self._drain_immutable_locked()

    def _process_vlog_deletes(self) -> bool:
        """Physically unlink journaled-deleted vlog files once nothing can
        still read them: no deletion pin (open iterator / draining
        superversion) and no snapshot older than the GC barrier."""
        if self.vlog is None or not self.vlog.pending_deletes:
            return False
        with self._lock:
            if self.deletion_manager.active_pins:
                return False
            boundaries = self.snapshots.boundaries()
            oldest = min(boundaries) if boundaries else None
            return (
                self.vlog.process_deletes(
                    lambda barrier: oldest is None or oldest >= barrier
                )
                > 0
            )

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
        so nothing further down — the superversion reference, the seek
        charge, a draining superversion's callback — can wait for it.
        """
        self._check_open()
        if not isinstance(key, (bytes, bytearray)):
            raise InvalidArgumentError("keys must be bytes")
        key = bytes(key)
        start = time.perf_counter() if self.latency is not None else 0.0
        if not wait:
            self.lock_nowait()
        try:
            sv, sequence = self._acquire_read()
            try:
                sequence = self._resolve_snapshot(snapshot, sequence)
                value, charge = self._lookup(sv, key, sequence)
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
            if self._tuner is not None:
                self._tuner.record_op()

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

    def _lookup(
        self, sv: SuperVersion, key: bytes, sequence: int
    ) -> tuple[bytes | None, tuple[int, FileMetadata] | None]:
        """The single-key traversal: newest stored (unresolved) value for
        ``key`` at ``sequence`` in ``sv``, newest component first; None
        covers both absent and deleted.

        Also returns the seek-compaction charge the walk earned, as
        ``(level, file)`` or None: the first file that cost a block read
        but did not contain the key is charged one seek if the lookup had
        to continue past it — to a later block read, or to the file that
        holds the key (LevelDB's rule).  The charge is only observed
        here — the caller applies it under the engine lock once the walk is
        over (mutating picker state from here would race the background
        worker, and a compaction in the middle of a level walk would pull
        files out from under it)."""
        found, value = sv.memtable.get(key, sequence)
        if not found and sv.immutable is not None:
            found, value = sv.immutable.get(key, sequence)
        if found:
            return value, None

        # The probe — the reader from the superversion's memo, the key hashed
        # once (at the first file asked) for every filter, the charge
        # bookkeeping — is written out twice: sharing it through a closure
        # or a helper costs a cached get more bytecodes than the probe is.
        first_miss: tuple[int, FileMetadata] | None = None
        charge: tuple[int, FileMetadata] | None = None
        readers = sv.readers
        table_cache, block_cache = self.table_cache, self.block_cache
        key_hash = None
        for meta in sv.level0_newest_first:
            if meta.smallest_user_key <= key <= meta.largest_user_key:
                reader = readers.get(meta.file_number)
                if reader is None:
                    reader = sv.reader_for(meta, table_cache)
                if key_hash is None:
                    key_hash = _hash_pair(key)
                found, value, touched = reader.lookup(
                    key, sequence, block_cache=block_cache, key_hash=key_hash
                )
                if found:
                    return value, first_miss
                if touched:  # a block read for nothing: charged once another follows
                    charge, first_miss = first_miss, first_miss or (0, meta)
        # L2SM's log holds entries diverted FROM a level (older than its
        # content, newer than everything deeper): asked after every level.
        hook = self._has_extra_read_hook
        for level in range(1, sv.num_levels):
            meta = sv.file_for_key(level, key)
            if meta is not None:
                reader = readers.get(meta.file_number)
                if reader is None:
                    reader = sv.reader_for(meta, table_cache)
                if key_hash is None:
                    key_hash = _hash_pair(key)
                found, value, touched = reader.lookup(
                    key, sequence, block_cache=block_cache, key_hash=key_hash
                )
                if found:
                    return value, first_miss
                if touched:  # a block read for nothing: charged once another follows
                    charge, first_miss = first_miss, first_miss or (level, meta)
            if hook:
                with self._lock:
                    extra = self._extra_get_after_level(level, key, sequence)
                if extra is not None and extra[0]:
                    return extra[1], charge
        return None, charge

    def _extra_get_after_level(
        self, level: int, key: bytes, snapshot: int
    ) -> tuple[bool, bytes | None] | None:
        """L2SM hook: search auxiliary components stacked under ``level``."""
        return None

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

    def _level_blocks(
        self,
        level: int,
        files: list[FileMetadata] | tuple[FileMetadata, ...],
        first: int,
        seek: ComparableKey | None,
        end: bytes | None,
    ) -> Iterator[Iterable[tuple[ComparableKey, bytes]]]:
        """The block stream of one sorted run for a scan: ``files[first:]``
        of a level >= 1 (``first`` from :meth:`SuperVersion.seek_index`), or
        one L0 file.  Each resume fetches one block and yields its entries
        as a C-level ``zip`` — this frame is the only Python between the
        merge and :meth:`TableReader.read_block` — so :meth:`iterator`
        flattens it with ``chain.from_iterable`` and pays nothing per row.

        * Files wholly at or past ``end`` are never opened: the run is
          disjoint and ordered, so the first such file ends the stream.
        * The reader is pinned while the stream is inside its file: a table
          cache eviction (or file retirement) must not close the handle
          under the iterator.
        * Reads follow the index order, each block handed the one before
          it so that :meth:`TableReader.read_block` can charge a miss by
          physical contiguity (sequential when it continues the last read,
          random for a file's first block or one scattered by an earlier
          Block Compaction).
        * A file charges its seek (:meth:`_charge_scan_seek`) on the first
          entry it actually produces — LevelDB's read sampling: a file that
          is opened but yields nothing charges nothing.
        * Only the first block read is cut at ``seek``; every block is
          decoded eagerly, since all of it is about to be drained.
        """
        table_cache = self.table_cache
        block_cache = self.block_cache
        for i in range(first, len(files)):
            meta = files[i]
            if end is not None and meta.smallest_user_key >= end:
                return
            reader = table_cache.get(meta.file_number, meta.file_name())
            reader.acquire()
            try:
                index = reader.index
                entries = index.entries
                start = 0 if seek is None else index.first_overlapping(seek[0])
                uncharged = True
                previous = None
                for entry in entries[start:] if start else entries:
                    block = reader.read_block(
                        entry, CAT_SCAN, block_cache, False, False, previous
                    )
                    previous = entry
                    keys = block.keys
                    values = block.values
                    if seek is not None:
                        cut = bisect_left(keys, seek)
                        keys = keys[cut:]
                        values = values[cut:]
                        seek = None
                    if uncharged:
                        if not keys:
                            continue
                        self._charge_scan_seek(level, meta)
                        uncharged = False
                    yield zip(keys, values)
            finally:
                reader.release()
            seek = None

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

            sources: list[EntryStream] = [
                sv.memtable.entries_from(seek)
                if seek is not None
                else sv.memtable.entries()
            ]
            if sv.immutable is not None:
                sources.append(
                    sv.immutable.entries_from(seek)
                    if seek is not None
                    else sv.immutable.entries()
                )
            sources.extend(self._extra_entry_sources(seek, CAT_SCAN))
            flatten = chain.from_iterable
            for meta in sv.level0_newest_first:
                if end is not None and meta.smallest_user_key >= end:
                    continue  # wholly past the bound: never opened
                sources.append(flatten(self._level_blocks(0, (meta,), 0, seek, end)))
            for level in range(1, sv.num_levels):
                files = sv.file_lists[level]
                if files:
                    first = sv.seek_index(level, start) if start is not None else 0
                    sources.append(flatten(self._level_blocks(level, files, first, seek, end)))

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
            # and added through the stats lock.
            with self.iterator(start, end, snapshot=snapshot, wait=wait) as it:
                results = list(it if limit is None else islice(it, limit))
            self.stats.count_scan_entries(len(results))
            if self.latency is not None:
                self._hist_scan.record(time.perf_counter() - clock_start)
            if self._tuner is not None:
                self._tuner.record_op()
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
            f"trivial={s.trivial_moves} seek-triggered={s.seek_triggered_compactions}"
        )
        if self._tuner is not None or s.policy_switches or s.compactions_by_policy:
            by_policy = " ".join(
                f"{name}={count}"
                for name, count in sorted(s.compactions_by_policy.items())
            )
            line = (
                f"policy: current={self.picker.policy.name} "
                f"switches={s.policy_switches}"
            )
            if by_policy:
                line += f" by-policy: {by_policy}"
            if self._tuner is not None:
                state = self._tuner.debug_state()
                line += (
                    f" tuner: windows={state['windows']} "
                    f"pending={state['pending'] or '-'}"
                )
                if state["last_reason"]:
                    line += f" last={state['last_reason']!r}"
            lines.append(line)
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
        if self._wal is not None:
            self._wal.close()
        if self.vlog is not None:
            # Deferred GC deletions that never cleared simply stay on disk:
            # their deletion edits are journaled, so the next open unlinks
            # them via the unregistered-file rule.
            self.vlog.close()
        if self._manifest is not None:
            self._manifest.close()
        if self._superversion is not None:
            # Drop the install reference.  In-flight readers (if any) keep
            # their snapshot alive; their final unref sees _closed and
            # skips the deletion-manager unpin (flush_all below zeroes the
            # pin count unconditionally).
            sv, self._superversion = self._superversion, None
            sv.retire()
        self.deletion_manager.flush_all()
        self.table_cache.close()
        self.block_cache.clear()

    def __enter__(self) -> "DB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
