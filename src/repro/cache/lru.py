"""Charge-aware LRU caches, single-mutex and sharded.

Entries carry an explicit *charge* (bytes), so capacity is a byte budget
rather than an entry count.  Used by both the block cache (charge =
serialized block size) and the table cache (charge = 1 per open table).

:class:`LRUCache` is the single-mutex building block; :class:`ShardedLRUCache`
partitions the key space across N independent shards (LevelDB's
``ShardedLRUCache``) so concurrent readers contend on per-shard locks
instead of one global mutex (DESIGN.md §9).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable, Hashable, Iterable, Iterator

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF


def _fnv1a_64(data: bytes) -> int:
    value = _FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & _FNV_MASK
    return value


@lru_cache(maxsize=256)
def _text_hash(text: str) -> int:
    """FNV-1a of ``text``, remembered: under ``ShardedDB`` every block- and
    table-cache key leads with the shard's namespace string, and walking it
    byte by byte in Python on each lookup was most of the routing cost."""
    return _fnv1a_64(text.encode("utf-8"))


def stable_hash(key: Hashable) -> int:
    """A process-stable hash for shard routing.

    Python's builtin ``hash`` is randomized per process for ``str`` /
    ``bytes`` (PYTHONHASHSEED), so two processes — or two runs — would
    route the same key to different shards.  Ints (and, transitively,
    tuples of ints) keep their builtin hash, which is already
    deterministic, so the engine's historical ``(file_number, offset)``
    routing is unchanged; text-like keys go through FNV-1a instead.
    """
    if isinstance(key, tuple):
        # hash(hash(i)) == hash(i) for an int, so an all-int tuple is its
        # own builtin hash and a namespaced one swaps only its head.  The
        # block and table caches' key shapes — (file, offset), (namespace,
        # file), (namespace, file, offset) — are spelled out so that the
        # lookup behind every cached block costs no generator.
        size = len(key)
        if size == 2:
            head, file_number = key
            if type(file_number) is int:
                if type(head) is int:
                    return hash(key)
                if type(head) is str:
                    return hash((_text_hash(head), file_number))
        elif size == 3:
            head, file_number, offset = key
            if type(head) is str and type(file_number) is int and type(offset) is int:
                return hash((_text_hash(head), file_number, offset))
        return hash(tuple(stable_hash(item) for item in key))
    if isinstance(key, str):
        return _text_hash(key)
    if isinstance(key, (bytes, bytearray, memoryview)):
        return _fnv1a_64(bytes(key))
    return hash(key)


@dataclass
class LRUStats:
    """Hit/miss/eviction/invalidation counters for one cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    #: Entries removed because their backing object was destroyed (e.g. an
    #: SSTable deleted by Table Compaction) rather than by capacity pressure.
    invalidations: int = 0

    def add(self, other: "LRUStats") -> None:
        """Fold ``other``'s counters into this one (shard aggregation)."""
        self.hits += other.hits
        self.misses += other.misses
        self.insertions += other.insertions
        self.evictions += other.evictions
        self.invalidations += other.invalidations


class LRUCache:
    """Least-recently-used cache with per-entry charges.

    An entry inserted with a ``group`` is also indexed under it, so
    :meth:`invalidate_group` drops a group's entries without visiting
    anyone else's (the block cache groups each file's blocks).
    """

    def __init__(self, capacity: int, on_evict: Callable[[Hashable, Any], None] | None = None):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        #: key -> (value, charge, group or None).
        self._entries: OrderedDict[Hashable, tuple[Any, int, Hashable]] = OrderedDict()
        #: group -> its cached keys (as dict keys), kept in step with
        #: ``_entries`` on insert, eviction and removal; a group leaves with
        #: its last key.
        self._groups: dict[Hashable, dict[Hashable, None]] = {}
        self._usage = 0
        self._on_evict = on_evict
        self.stats = LRUStats()
        # Concurrent readers share the cache (the paper's 16-thread
        # workloads); OrderedDict mutation needs the lock.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        # Under the lock: a concurrent insert's evict loop mutates the
        # OrderedDict, and an unlocked membership probe can observe it
        # mid-rehash.
        with self._lock:
            return key in self._entries

    @property
    def usage(self) -> int:
        """Sum of charges currently held."""
        with self._lock:
            return self._usage

    def snapshot(self) -> LRUStats:
        """A consistent copy of the counters (readers without the cache lock
        would otherwise see torn hit/miss pairs mid-update)."""
        with self._lock:
            return replace(self.stats)

    def get(self, key: Hashable) -> Any | None:
        """Return the cached value (refreshing recency) or None on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def peek(self, key: Hashable) -> Any | None:
        """Return the cached value without touching recency or stats."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else entry[0]

    def insert(
        self, key: Hashable, value: Any, charge: int = 1, group: Hashable = None
    ) -> None:
        """Insert (or replace) ``key``, evicting LRU entries to fit.  A
        ``group`` other than None indexes the entry for
        :meth:`invalidate_group`."""
        if charge < 0:
            raise ValueError("charge must be >= 0")
        with self._lock:
            entries = self._entries
            if key in entries:
                self._remove(key, invalidation=False, count_eviction=False)
            capacity = self.capacity
            # An entry larger than the whole cache is simply not retained.
            if charge > capacity:
                return
            if group is not None:
                self._groups.setdefault(group, {})[key] = None
            entries[key] = (value, charge, group)
            usage = self._usage + charge
            self.stats.insertions += 1
            # usage > capacity >= 0 means an entry is left to evict.
            while usage > capacity:
                # _remove(oldest, count_eviction=True), without the lookup
                # of a key that is known to be the first one.
                oldest, (evicted, evicted_charge, evicted_group) = entries.popitem(last=False)
                if evicted_group is not None:
                    # _leave_group, inlined: this loop runs on every evicting miss.
                    members = self._groups[evicted_group]
                    del members[oldest]
                    if not members:
                        del self._groups[evicted_group]
                usage -= evicted_charge
                self.stats.evictions += 1
                if self._on_evict is not None:
                    self._usage = usage
                    self._on_evict(oldest, evicted)
            self._usage = usage

    def replace(self, key: Hashable, old: Any, new: Any) -> None:
        """Swap ``key``'s value ``old``, if still there, for ``new`` in place."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is old:
                self._entries[key] = (new, entry[1], entry[2])  # keeps its place

    def get_or_insert(
        self, key: Hashable, factory: Callable[[], Any], charge: int = 1
    ) -> Any:
        """Atomic get-or-create: on a miss, ``factory()`` runs and its result
        is inserted, all under the cache lock.  Counters match a ``get``
        followed by an ``insert`` exactly; the atomicity is what keeps two
        concurrent misses from constructing (and leaking) duplicate values
        — e.g. double-opened table readers on the lock-free read path."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry[0]
            self.stats.misses += 1
            value = factory()
            self.insert(key, value, charge)
            return value

    def erase(self, key: Hashable) -> bool:
        """Remove ``key`` if present; returns whether it was present."""
        with self._lock:
            if key not in self._entries:
                return False
            self._remove(key, invalidation=False, count_eviction=False)
            return True

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Remove every entry whose key satisfies ``predicate``; returns the
        number removed.  Counted as invalidations, not evictions."""
        with self._lock:
            doomed = [k for k in self._entries if predicate(k)]
            for key in doomed:
                self._remove(key, invalidation=True, count_eviction=False)
            return len(doomed)

    def invalidate_group(self, group: Hashable, keys: Iterable[Hashable] | None = None) -> int:
        """Remove the entries inserted under ``group`` — all of them, or
        those also in ``keys`` — as :meth:`invalidate_where` would, visiting
        only that group's entries.  Returns the number removed; counted as
        invalidations."""
        with self._lock:
            members = self._groups.get(group)
            if members is None:
                return 0
            doomed = list(members) if keys is None else list(members.keys() & keys)
            for key in doomed:
                self._remove(key, invalidation=True, count_eviction=False)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            for key in list(self._entries):
                self._remove(key, invalidation=False, count_eviction=False)

    def keys(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._entries.keys()))

    def _remove(self, key: Hashable, *, invalidation: bool, count_eviction: bool) -> None:
        value, charge, group = self._entries.pop(key)
        if group is not None:
            self._leave_group(key, group)
        self._usage -= charge
        if invalidation:
            self.stats.invalidations += 1
        if count_eviction:
            self.stats.evictions += 1
        if self._on_evict is not None:
            self._on_evict(key, value)

    def _leave_group(self, key: Hashable, group: Hashable) -> None:
        members = self._groups[group]
        del members[key]
        if not members:
            del self._groups[group]

    def hit_rate(self) -> float:
        total = self.stats.hits + self.stats.misses
        return self.stats.hits / total if total else 0.0


class ShardedLRUCache:
    """N independent LRU shards selected by key hash (DESIGN.md §9).

    Concurrent readers contend on per-shard locks instead of one global
    mutex; the capacity budget is split across shards (remainder to the
    first shards, so the total is exact).  With ``shards=1`` there is
    exactly one :class:`LRUCache` and behaviour — including eviction order
    and stats — is bit-identical to the unsharded cache, which is what
    keeps the default engine's simulated metrics unchanged.

    Shard routing uses :func:`stable_hash`: ints and tuples of ints keep
    Python's builtin (already deterministic) hash, while ``str`` / ``bytes``
    keys — whose builtin hash is randomized per process — are routed
    through FNV-1a, so sharded runs stay reproducible regardless of
    PYTHONHASHSEED.

    ``tracer`` (optional) records a ``cache.shard_wait`` span whenever a
    shard lock is contended — the read-scaling signal the sharding exists
    to eliminate.
    """

    def __init__(
        self,
        capacity: int,
        shards: int = 1,
        on_evict: Callable[[Hashable, Any], None] | None = None,
        tracer=None,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        base, extra = divmod(capacity, shards)
        self._shards = [
            LRUCache(base + (1 if i < extra else 0), on_evict) for i in range(shards)
        ]
        self._num_shards = shards
        self._tracer = tracer

    @property
    def num_shards(self) -> int:
        return self._num_shards

    def shard_index(self, key: Hashable) -> int:
        return stable_hash(key) % self._num_shards

    def _shard(self, key: Hashable) -> LRUCache:
        if self._num_shards == 1:
            return self._shards[0]
        shard = self._shards[stable_hash(key) % self._num_shards]
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            # Sample contention: a failed non-blocking acquire means another
            # thread holds this shard; the span brackets the wait.  The
            # extra (reentrant) hold is released immediately — the shard's
            # own locking still guards the actual operation.
            lock = shard._lock
            if not lock.acquire(blocking=False):
                with tracer.span("cache.shard_wait", "cache"):
                    lock.acquire()
            lock.release()
        return shard

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._shard(key)

    @property
    def usage(self) -> int:
        return sum(shard.usage for shard in self._shards)

    def get(self, key: Hashable) -> Any | None:
        return self._shard(key).get(key)

    def peek(self, key: Hashable) -> Any | None:
        return self._shard(key).peek(key)

    def insert(
        self, key: Hashable, value: Any, charge: int = 1, group: Hashable = None
    ) -> None:
        self._shard(key).insert(key, value, charge, group)

    def replace(self, key: Hashable, old: Any, new: Any) -> None:
        self._shard(key).replace(key, old, new)

    def get_or_insert(
        self, key: Hashable, factory: Callable[[], Any], charge: int = 1
    ) -> Any:
        return self._shard(key).get_or_insert(key, factory, charge)

    def erase(self, key: Hashable) -> bool:
        return self._shard(key).erase(key)

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        return sum(shard.invalidate_where(predicate) for shard in self._shards)

    def invalidate_group(self, group: Hashable, keys: Iterable[Hashable] | None = None) -> int:
        return sum(shard.invalidate_group(group, keys) for shard in self._shards)

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()

    def keys(self) -> Iterator[Hashable]:
        for shard in self._shards:
            yield from shard.keys()

    @property
    def stats(self) -> LRUStats:
        """Aggregated counters across shards.  Returns a fresh snapshot —
        callers mutate per-shard stats, never this aggregate."""
        return self.snapshot()

    def snapshot(self) -> LRUStats:
        """Consistent aggregate of every shard's counters (each shard copied
        under its own lock)."""
        total = LRUStats()
        for shard in self._shards:
            total.add(shard.snapshot())
        return total

    def shard_snapshots(self) -> list[LRUStats]:
        """Per-shard stats snapshots, for the shard-balance diagnostics the
        BENCH report and Prometheus exporter surface."""
        return [shard.snapshot() for shard in self._shards]

    def hit_rate(self) -> float:
        stats = self.snapshot()
        total = stats.hits + stats.misses
        return stats.hits / total if total else 0.0
