"""Table cache.

Caches open :class:`~repro.sstable.table_reader.TableReader` handles keyed
by file number, bounding how many SSTables are open at once (LevelDB's
``max_open_files``).  While a table is cached, its index block and bloom
filter are memory-resident — :meth:`memory_cost` reports that footprint,
split into index vs filter bytes, which is what the paper's Fig 15 compares
across systems.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..options import Options
from ..storage.fs import FileSystem
from ..storage.io_stats import CAT_OPEN
from ..sstable.section_writer import TableInfo
from ..sstable.table_reader import TableReader
from .lru import LRUStats, ShardedLRUCache


@dataclass
class TableCacheMemory:
    """Resident metadata footprint of all cached tables."""

    index_bytes: int = 0
    filter_bytes: int = 0

    @property
    def total(self) -> int:
        return self.index_bytes + self.filter_bytes


class TableCache:
    """LRU of open table readers (charge = 1 per table).

    ``Options.cache_shards`` > 1 shards the cache by file number so
    concurrent point reads resolve their readers under per-shard locks
    (DESIGN.md §9); 1 (the default) is bit-identical to the single-mutex
    cache.

    ``lru`` (optional) supplies a pre-built, possibly *shared*
    :class:`ShardedLRUCache` — the sharded engine's one global open-table
    budget — with ``namespace`` scoping this facade's keys so file numbers
    from different DB shards cannot collide (DESIGN.md §12).
    """

    def __init__(
        self,
        fs: FileSystem,
        options: Options,
        tracer=None,
        *,
        lru: ShardedLRUCache | None = None,
        namespace: str | None = None,
    ):
        self._fs = fs
        self._options = options
        self._namespace = namespace
        if lru is not None:
            self._lru = lru
        else:
            self._lru = ShardedLRUCache(
                options.table_cache_capacity,
                shards=options.cache_shards,
                on_evict=lambda _key, reader: reader.close(),
                tracer=tracer,
            )

    def _key(self, file_number: int):
        if self._namespace is None:
            return file_number
        return (self._namespace, file_number)

    @staticmethod
    def shared_lru(capacity: int, *, shards: int = 1, tracer=None) -> ShardedLRUCache:
        """Build an LRU suitable for sharing across per-shard TableCaches
        (the on_evict hook closes whichever shard's reader is displaced)."""
        return ShardedLRUCache(
            capacity,
            shards=shards,
            on_evict=lambda _key, reader: reader.close(),
            tracer=tracer,
        )

    @property
    def stats(self) -> LRUStats:
        """Aggregated counters (a consistent snapshot; see :meth:`snapshot`)."""
        return self._lru.snapshot()

    @property
    def num_shards(self) -> int:
        return self._lru.num_shards

    def snapshot(self) -> LRUStats:
        """Consistent aggregate stats snapshot across shards."""
        return self._lru.snapshot()

    def shard_snapshots(self) -> list[LRUStats]:
        """Per-shard stats snapshots (shard-balance diagnostics)."""
        return self._lru.shard_snapshots()

    def __len__(self) -> int:
        return len(self._lru)

    def get(
        self,
        file_number: int,
        file_name: str,
        load_category: str | None = None,
        built: TableInfo | None = None,
    ) -> TableReader:
        """Return an open reader for the file, opening it on a miss.

        ``load_category`` directs where a cache-miss's metadata-load I/O is
        charged — compactions warm their outputs eagerly (LevelDB's
        table-usability check) so the cost lands on the background category
        rather than the first unlucky foreground read.  That eager open is
        also the one that has ``built``, the writer's result for the file,
        to give the reader (:mod:`repro.sstable.table_reader`).
        """
        def open_reader() -> TableReader:
            return TableReader(
                self._fs, file_name, file_number, self._options, load_category or CAT_OPEN, built
            )

        # Atomic per shard: two concurrent misses must not double-open the
        # file (the loser's reader would be replaced and closed while the
        # winner might already be probing it).
        return self._lru.get_or_insert(self._key(file_number), open_reader, charge=1)

    def reload(self, file_number: int, built: TableInfo | None = None) -> None:
        """Refresh cached metadata after an in-place append.

        Block Compaction rewrites a file's index/filter/footer; a cached
        reader must re-read them or it would keep serving the stale section.
        ``built`` is the append's result, as for :meth:`get`.
        """
        reader = self._lru.peek(self._key(file_number))
        if reader is not None:
            reader.reload(built)

    def evict(self, file_number: int) -> None:
        """Close and drop the reader for a deleted file."""
        self._lru.erase(self._key(file_number))

    def _own_keys(self):
        if self._namespace is None:
            return self._lru.keys()
        namespace = self._namespace
        return (key for key in self._lru.keys() if key[0] == namespace)

    def memory_cost(self) -> TableCacheMemory:
        """Index/filter bytes held by all cached tables (Fig 15)."""
        memory = TableCacheMemory()
        for key in self._own_keys():
            reader = self._lru.peek(key)
            if reader is None:
                continue
            index_bytes, filter_bytes = reader.metadata_memory_bytes()
            memory.index_bytes += index_bytes
            memory.filter_bytes += filter_bytes
        return memory

    def close(self) -> None:
        if self._namespace is None:
            self._lru.clear()
        else:
            # Shared budget: drop only this shard's readers (the LRU's
            # on_evict hook closes each one); other shards stay cached.
            namespace = self._namespace
            self._lru.invalidate_where(lambda key: key[0] == namespace)
