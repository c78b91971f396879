"""ShardedDB: a range-partitioned router over N independent engines.

Each shard is a full :class:`~repro.core.db.DB` — its own WAL, manifest,
memtable, levels — so every per-engine win shipped so far (group commit,
lock-free reads, offloaded compaction) becomes a per-shard win that
aggregates.  What does **not** multiply are the global resource budgets
(DESIGN.md §12):

* **one background worker pool** — every shard registers a
  :class:`~repro.core.scheduler.SchedulerLane` on a shared
  :class:`~repro.core.scheduler.SharedBackgroundExecutor`, whose workers
  pick runnable shards round-robin, one flush/compaction unit at a time;
* **one block / table cache budget** — all shards share a single
  :class:`~repro.cache.lru.ShardedLRUCache` per cache, with per-shard key
  namespaces, so a hot shard may hold more than 1/N of the bytes while the
  total never exceeds the configured capacity;
* **one compaction offload pool** shared by all shards' selective
  compactions.

Dynamic **split/merge**: when a shard's cumulative level bytes or its
write-stall count crosses a threshold, the shard is split at its median
key into two fresh engines (or two adjacent cold shards are merged into
one).  The protocol is crash-consistent: children are fully written and
flushed *before* the router catalog commits the new map (one atomic
pointer swap — see :mod:`repro.sharding.router`), and the retired source
directory is deleted only after.  A crash anywhere leaves either the old
map with the old shard intact, or the new map with durable children;
orphan directories are garbage-collected on reopen.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

from ..cache.block_cache import BlockCache
from ..cache.lru import ShardedLRUCache
from ..cache.table_cache import TableCache
from ..compaction.offload import OFFLOAD_NONE, OffloadPool
from ..core import sync
from ..core.db import DB
from ..core.scheduler import SharedBackgroundExecutor
from ..core.write_batch import WriteBatch
from ..errors import InvalidArgumentError, WouldBlock
from ..keys import TYPE_VALUE
from ..metrics.stats import NUMERIC_FIELDS
from ..options import Options
from ..storage.io_stats import IOStats
from .router import RouterMap, ShardSpec, load_router, save_router
from .store import ShardStore


class _RWLock:
    """Many concurrent client ops (readers) vs. one router edit (writer).

    Writer-preferring: an arriving writer blocks new readers while the
    in-flight ones drain, so a steady op stream cannot starve a split.
    """

    def __init__(self):
        self._cv = sync.Condition()
        self._readers = 0
        self._writer = False

    @contextmanager
    def read_locked(self, wait: bool = True):
        """Shared lock for data ops; many readers, excluded by a writer —
        which ``wait=False`` declines to wait out (``WouldBlock``)."""
        with self._cv:
            if self._writer:
                if not wait:
                    raise WouldBlock("router edit in progress")
                self._cv.wait_for(lambda: not self._writer)
            self._readers += 1
        try:
            yield
        finally:
            with self._cv:
                self._readers -= 1
                if self._readers == 0:
                    self._cv.notify_all()

    def acquire_write(self, *, blocking: bool = True) -> bool:
        """Exclusive lock for split/merge; waits out (or, non-blocking,
        yields to) current readers and writers."""
        with self._cv:
            if not blocking and (self._writer or self._readers):
                return False
            self._cv.wait_for(lambda: not self._writer)
            self._writer = True
            self._cv.wait_for(lambda: not self._readers)
            return True

    def release_write(self) -> None:
        with self._cv:
            self._writer = False
            self._cv.notify_all()

    @contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@contextmanager
def _held_nowait(dbs: list[DB]):
    """Hold the engine lock of every shard a fanned-out ``wait=False`` read
    will visit, or raise ``WouldBlock`` holding none — taken before any
    shard runs its part, so a declined read has counted and charged nothing
    anywhere (the engines' own try-lock then re-enters the held lock)."""
    held: list[DB] = []
    try:
        for db in dbs:
            db.lock_nowait()
            held.append(db)
        yield
    finally:
        for db in held:
            db.unlock_nowait()


_NOT_HELD = nullcontext()  # the waiting path: each engine locks for itself


class ShardedDB:
    """Range-partitioned multi-tenant engine; see module docstring.

    >>> db = ShardedDB(MemoryShardStore(), shards=2, boundaries=[b"m"])
    >>> db.put(b"apple", b"1"); db.put(b"zebra", b"2")
    >>> db.get(b"zebra")
    b'2'

    With ``shards=1`` the router degenerates to a pass-through and the
    single engine's simulated metrics and file bytes are bit-identical to
    a plain :class:`DB` (asserted by ``tests/test_sharding.py``).
    """

    def __init__(
        self,
        store: ShardStore,
        options: Options | None = None,
        *,
        shards: int = 1,
        boundaries: list[bytes] | None = None,
        bg_workers: int | None = None,
        auto_rebalance: bool = False,
        split_threshold_bytes: int = 64 * 1024 * 1024,
        merge_threshold_bytes: int | None = None,
        stall_split_threshold: int = 16,
        rebalance_check_interval: int = 64,
        max_shards: int = 64,
    ):
        self.store = store
        self.options = options or Options()
        self.options.validate()
        self._closed = False
        self._rw = _RWLock()
        self.auto_rebalance = auto_rebalance
        self.split_threshold_bytes = split_threshold_bytes
        self.merge_threshold_bytes = (
            merge_threshold_bytes
            if merge_threshold_bytes is not None
            else split_threshold_bytes // 8
        )
        self.stall_split_threshold = stall_split_threshold
        self.rebalance_check_interval = rebalance_check_interval
        self.max_shards = max_shards
        #: Lifetime router-edit counters (surfaced in benchmarks/metrics).
        self.splits = 0
        self.merges = 0
        self._op_count = 0
        self._op_lock = sync.Lock()
        self._rebalancing = False
        #: Per-shard stall_events already folded into rebalance decisions.
        self._seen_stalls: dict[str, int] = {}

        # -- shared budgets (the whole point of this class) --------------
        self._block_lru = ShardedLRUCache(
            self.options.block_cache_capacity, shards=self.options.cache_shards
        )
        self._table_lru = TableCache.shared_lru(
            self.options.table_cache_capacity, shards=self.options.cache_shards
        )
        self._executor: SharedBackgroundExecutor | None = None
        if self.options.background_compaction:
            workers = bg_workers if bg_workers is not None else min(4, max(1, shards))
            self._executor = SharedBackgroundExecutor(workers=workers)
        self._offload_pool: OffloadPool | None = None
        if self.options.compaction_offload != OFFLOAD_NONE:
            self._offload_pool = OffloadPool.from_options(self.options)

        self._dbs: dict[str, DB] = {}
        try:
            recovered = load_router(store.root_fs)
            if recovered is not None:
                self._map = recovered
                live = {spec.name for spec in self._map.specs}
                # Orphans from a crash mid-split/merge: never referenced by
                # the committed map, so their contents are not acked state.
                for orphan in self.store.shard_names():
                    if orphan not in live:
                        self.store.drop_shard(orphan)
            else:
                self._map = RouterMap.initial(shards, boundaries)
                save_router(store.root_fs, self._map)
            for spec in self._map.specs:
                self._dbs[spec.name] = self._open_shard_db(spec)
        except BaseException:
            self._teardown()
            raise

    # ------------------------------------------------------------ lifecycle

    def _open_shard_db(self, spec: ShardSpec) -> DB:
        fs = self.store.open_shard(spec.name)
        return DB(
            fs,
            self.options,
            block_cache=BlockCache(0, lru=self._block_lru, namespace=spec.name),
            table_cache=TableCache(
                fs, self.options, lru=self._table_lru, namespace=spec.name
            ),
            offload_pool=self._offload_pool,
            background_executor=self._executor,
            lane_name=spec.name,
        )

    def _teardown(self) -> None:
        for db in list(self._dbs.values()):
            try:
                db.close()
            except Exception:
                pass
        self._dbs.clear()
        if self._executor is not None:
            self._executor.close()
        if self._offload_pool is not None:
            self._offload_pool.close()

    def close(self) -> None:
        """Close every shard engine, then the shared executor and offload
        pool; idempotent."""
        if self._closed:
            return
        with self._rw.write_locked():
            self._closed = True
            for db in self._dbs.values():
                db.close()
            self._dbs.clear()
        if self._executor is not None:
            self._executor.close()
        if self._offload_pool is not None:
            self._offload_pool.close()

    def __enter__(self) -> "ShardedDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- routing

    @property
    def num_shards(self) -> int:
        return len(self._map)

    @property
    def router(self) -> RouterMap:
        return self._map

    def shard_names(self) -> list[str]:
        return [spec.name for spec in self._map.specs]

    def shard_dbs(self) -> list[tuple[str, DB]]:
        """(name, engine) pairs in key order — the observability surface
        the per-shard Prometheus exporter iterates."""
        rmap = self._map
        return [(spec.name, self._dbs[spec.name]) for spec in rmap.specs]

    def _db_for(self, key: bytes) -> DB:
        rmap = self._map
        return self._dbs[rmap.specs[rmap.shard_for(key)].name]

    def _after_write_ops(self, count: int, wait: bool = True) -> None:
        if not self.auto_rebalance:
            return
        with self._op_lock:
            self._op_count += count
            if self._op_count < self.rebalance_check_interval or not wait:
                return  # not due — or due, and left to the next waiting write
            self._op_count = 0
        self.maybe_rebalance(blocking=False)

    def _decline_rebalance_check(self, count: int) -> None:
        """A rebalance check may split or merge on the calling thread, so a
        no-wait write that would make one due raises before it writes."""
        if (
            self.auto_rebalance
            and self._op_count + count >= self.rebalance_check_interval
        ):
            raise WouldBlock("rebalance check due")

    # ------------------------------------------------------------- data ops
    #
    # ``wait=False`` is the engines' no-wait mode (``DB.get`` / ``DB.write``)
    # plus the router's: WouldBlock while a split or merge holds the router,
    # and for a write that would make a rebalance check due.  It raises with
    # nothing written, counted or charged on any shard: a batch that spans
    # shards is declined outright, and a read fanned out over several shards
    # first try-locks every engine it will visit (``_held_nowait``).

    def put(self, key: bytes, value: bytes, *, wait: bool = True) -> None:
        if not wait:
            self._decline_rebalance_check(1)
        with self._rw.read_locked(wait):
            self._db_for(key).put(key, value, wait=wait)
        self._after_write_ops(1, wait)

    def delete(self, key: bytes, *, wait: bool = True) -> None:
        if not wait:
            self._decline_rebalance_check(1)
        with self._rw.read_locked(wait):
            self._db_for(key).delete(key, wait=wait)
        self._after_write_ops(1, wait)

    def get(
        self, key: bytes, default: bytes | None = None, *, wait: bool = True
    ) -> bytes | None:
        with self._rw.read_locked(wait):
            return self._db_for(key).get(key, default, wait=wait)

    def multi_get(
        self, keys: list[bytes], *, wait: bool = True
    ) -> dict[bytes, bytes | None]:
        """Batched lookups: keys are grouped per shard so each engine
        resolves its group with one snapshot/lock acquisition."""
        with self._rw.read_locked(wait):
            rmap = self._map
            groups: dict[str, list[bytes]] = {}
            for key in keys:
                name = rmap.specs[rmap.shard_for(key)].name
                groups.setdefault(name, []).append(key)
            dbs = [self._dbs[name] for name in groups]
            results: dict[bytes, bytes | None] = {}
            with _held_nowait(dbs) if not wait else _NOT_HELD:
                for db, group in zip(dbs, groups.values()):
                    results.update(db.multi_get(group, wait=wait))
            return {key: results.get(key) for key in keys}

    def write_batch(self, batch: WriteBatch, *, wait: bool = True) -> None:
        """Apply a batch, split per shard.  Atomic *within* each shard (one
        WAL record per engine); cross-shard atomicity is documented out of
        scope — a crash can land a prefix of the per-shard sub-batches.
        For the same reason ``wait=False`` declines a batch that spans
        shards outright: a later shard's ``WouldBlock`` could not take the
        earlier shards' sub-batches back."""
        if not wait:
            self._decline_rebalance_check(len(batch))
        with self._rw.read_locked(wait):
            rmap = self._map
            subs: dict[str, WriteBatch] = {}
            for value_type, key, value in batch:
                name = rmap.specs[rmap.shard_for(key)].name
                sub = subs.get(name)
                if sub is None:
                    sub = subs[name] = WriteBatch()
                if value_type == TYPE_VALUE:
                    sub.put(key, value)
                else:
                    sub.delete(key)
            if not wait and len(subs) > 1:
                raise WouldBlock("batch spans shards")
            for name, sub in subs.items():
                self._dbs[name].write(sub, wait=wait)
        self._after_write_ops(len(batch), wait)

    # Alias matching DB.write(batch).
    write = write_batch

    def scan(
        self,
        start: bytes | None = None,
        end: bytes | None = None,
        limit: int | None = None,
        *,
        wait: bool = True,
    ) -> list[tuple[bytes, bytes]]:
        """Ordered range scan across shards.  Shards are disjoint and
        visited in key order, so concatenation is globally sorted.
        ``limit`` as for :meth:`DB.scan`: ``None`` all, 0 none, negative an
        error."""
        if limit is not None and limit < 0:
            raise InvalidArgumentError(f"scan limit must be >= 0, got {limit}")
        with self._rw.read_locked(wait):
            rmap = self._map
            dbs: list[DB] = []
            for index, spec in enumerate(rmap.specs):
                lower = rmap.lower(index)
                if end is not None and lower is not None and lower >= end:
                    break
                if start is not None and spec.upper is not None and spec.upper <= start:
                    continue
                dbs.append(self._dbs[spec.name])
            out: list[tuple[bytes, bytes]] = []
            with _held_nowait(dbs) if not wait else _NOT_HELD:
                for db in dbs:
                    remaining = None if limit is None else limit - len(out)
                    if remaining is not None and remaining <= 0:
                        break
                    out.extend(db.scan(start, end, remaining, wait=wait))
            return out

    # --------------------------------------------------------- maintenance

    def flush(self) -> None:
        with self._rw.read_locked():
            for db in self._dbs.values():
                db.flush()

    def compact_all(self) -> None:
        with self._rw.read_locked():
            for db in self._dbs.values():
                db.compact_all()

    def wait_for_background(self, timeout: float | None = None) -> bool:
        with self._rw.read_locked():
            dbs = list(self._dbs.values())
        drained = True
        for db in dbs:
            drained = db.wait_for_background(timeout) and drained
        return drained

    # ------------------------------------------------------- split / merge

    def _copy_entries(self, db: DB, entries: list[tuple[bytes, bytes]]) -> None:
        batch = WriteBatch()
        for key, value in entries:
            batch.put(key, value)
            if len(batch) >= 128:
                db.write(batch)
                batch = WriteBatch()
        if len(batch):
            db.write(batch)
        if entries:
            db.flush()
            db.wait_for_background()

    def split_shard(
        self, index: int, split_key: bytes | None = None
    ) -> tuple[str, str] | None:
        """Split shard ``index`` at ``split_key`` (default: its median live
        key).  Returns the two child names, or None when the shard has too
        few distinct keys to split.  Blocks client ops for the duration
        (router write lock) — splits are rare, ops are not."""
        with self._rw.write_locked():
            return self._split_locked(index, split_key)

    def _split_locked(
        self, index: int, split_key: bytes | None = None
    ) -> tuple[str, str] | None:
        self._check_open()
        rmap = self._map
        spec = rmap.specs[index]
        source = self._dbs[spec.name]
        source.wait_for_background()
        entries = source.scan(None, None)
        if split_key is None:
            if len(entries) < 2:
                return None
            split_key = entries[len(entries) // 2][0]
        lower = rmap.lower(index)
        if (lower is not None and split_key <= lower) or (
            spec.upper is not None and split_key >= spec.upper
        ):
            return None

        new_map, left_spec, right_spec = rmap.split(index, split_key)
        left_db = self._open_shard_db(left_spec)
        right_db = self._open_shard_db(right_spec)
        try:
            cut = 0
            while cut < len(entries) and entries[cut][0] < split_key:
                cut += 1
            # Children are durable (WAL-synced writes + flush) BEFORE the
            # router commit — the crash-consistency linchpin.
            self._copy_entries(left_db, entries[:cut])
            self._copy_entries(right_db, entries[cut:])
            save_router(self.store.root_fs, new_map)
        except BaseException:
            # Pre-commit failure: the old map still rules; children are
            # orphans (GC'd on reopen, dropped eagerly here).
            left_db.close()
            right_db.close()
            self.store.drop_shard(left_spec.name)
            self.store.drop_shard(right_spec.name)
            raise
        self._map = new_map
        self._dbs[left_spec.name] = left_db
        self._dbs[right_spec.name] = right_db
        del self._dbs[spec.name]
        self._seen_stalls.pop(spec.name, None)
        source.close()
        self.store.drop_shard(spec.name)
        self.splits += 1
        return (left_spec.name, right_spec.name)

    def merge_shards(self, index: int) -> str | None:
        """Merge adjacent shards ``index`` and ``index+1`` into one child.
        Returns the child name."""
        with self._rw.write_locked():
            return self._merge_locked(index)

    def _merge_locked(self, index: int) -> str | None:
        self._check_open()
        rmap = self._map
        if index + 1 >= len(rmap.specs):
            return None
        left_spec = rmap.specs[index]
        right_spec = rmap.specs[index + 1]
        left = self._dbs[left_spec.name]
        right = self._dbs[right_spec.name]
        left.wait_for_background()
        right.wait_for_background()
        entries = left.scan(None, None) + right.scan(None, None)

        new_map, child_spec = rmap.merge(index)
        child_db = self._open_shard_db(child_spec)
        try:
            self._copy_entries(child_db, entries)
            save_router(self.store.root_fs, new_map)
        except BaseException:
            child_db.close()
            self.store.drop_shard(child_spec.name)
            raise
        self._map = new_map
        self._dbs[child_spec.name] = child_db
        for spec, db in ((left_spec, left), (right_spec, right)):
            del self._dbs[spec.name]
            self._seen_stalls.pop(spec.name, None)
            db.close()
            self.store.drop_shard(spec.name)
        self.merges += 1
        return child_spec.name

    def maybe_rebalance(self, *, blocking: bool = True) -> str | None:
        """One rebalance action if thresholds warrant it: split the worst
        over-threshold shard (by level bytes or stall pressure), else merge
        the smallest under-threshold adjacent pair.  Returns a description
        of the action taken, or None.  Non-blocking mode (the auto path off
        the write hot loop) gives up instead of queueing behind client ops.
        """
        if self._rebalancing:
            return None
        if not self._rw.acquire_write(blocking=blocking):
            return None
        self._rebalancing = True
        try:
            if self._closed:
                return None
            return self._rebalance_locked()
        finally:
            self._rebalancing = False
            self._rw.release_write()

    def _shard_pressure(self, name: str) -> tuple[int, int]:
        db = self._dbs[name]
        size = sum(db.level_sizes())
        stalls = db.stats.stall_events - self._seen_stalls.get(name, 0)
        return size, stalls

    def _rebalance_locked(self) -> str | None:
        rmap = self._map
        # Split candidate: largest shard over either threshold.
        if len(rmap) < self.max_shards:
            candidates = []
            for index, spec in enumerate(rmap.specs):
                size, stalls = self._shard_pressure(spec.name)
                if size >= self.split_threshold_bytes or stalls >= self.stall_split_threshold:
                    candidates.append((size, stalls, index, spec.name))
            if candidates:
                candidates.sort(reverse=True)
                size, stalls, index, name = candidates[0]
                self._seen_stalls[name] = self._dbs[name].stats.stall_events
                children = self._split_locked(index)
                if children is not None:
                    return f"split {name} -> {children[0]},{children[1]}"
        # Merge candidate: adjacent pair jointly under the merge threshold.
        if len(rmap) > 1:
            best = None
            for index in range(len(rmap.specs) - 1):
                left_size, _ = self._shard_pressure(rmap.specs[index].name)
                right_size, _ = self._shard_pressure(rmap.specs[index + 1].name)
                combined = left_size + right_size
                if combined < self.merge_threshold_bytes:
                    if best is None or combined < best[0]:
                        best = (combined, index)
            if best is not None:
                index = best[1]
                left_name = rmap.specs[index].name
                right_name = rmap.specs[index + 1].name
                child = self._merge_locked(index)
                if child is not None:
                    return f"merge {left_name}+{right_name} -> {child}"
        return None

    # ------------------------------------------------------- observability

    def _check_open(self) -> None:
        if self._closed:
            raise InvalidArgumentError("ShardedDB is closed")

    def aggregate_io_stats(self) -> IOStats:
        """Summed I/O counters across shards (+ the router catalog fs).
        ``sim_time_s`` sums too — it is total device work, not wall time;
        shards overlap in wall time by design."""
        total = IOStats()
        for db in self._dbs.values():
            total.accumulate(db.io_stats)
        return total.accumulate(self.store.root_fs.stats)

    def aggregate_stats(self) -> dict:
        """Every numeric engine counter summed across shards (the rollup of
        what the Prometheus walk labels per shard), plus the router's shard
        count and lifetime splits/merges."""
        total = dict.fromkeys(NUMERIC_FIELDS, 0)
        for db in self._dbs.values():
            for name, value in db.stats.numeric().items():
                total[name] += value
        total["shards"] = len(self._map)
        total["splits"] = self.splits
        total["merges"] = self.merges
        return total

    def level_sizes(self) -> list[int]:
        """Per-level byte totals summed across shards."""
        totals: list[int] = []
        for db in self._dbs.values():
            for level, size in enumerate(db.level_sizes()):
                while len(totals) <= level:
                    totals.append(0)
                totals[level] += size
        return totals

    def health(self) -> dict:
        """Worst-of health rollup plus per-shard detail."""
        shards = {name: db.health() for name, db in self.shard_dbs()}
        return {
            "writable": all(entry["writable"] for entry in shards.values()),
            "shards": shards,
        }

    def cache_usage(self) -> dict:
        """Shared-budget occupancy (the observable proof the budgets are
        global, not per shard)."""
        return {
            "block_cache_capacity": self._block_lru.capacity,
            "block_cache_usage": self._block_lru.usage,
            "table_cache_capacity": self._table_lru.capacity,
            "table_cache_usage": self._table_lru.usage,
        }
