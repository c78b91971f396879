"""Block cache.

Caches *parsed* data blocks keyed by ``(file_number, block_offset)``.  The
key structure is the heart of the paper's cache-invalidation story:

* **Table Compaction** writes new files with new file numbers, so every
  cached block of the merged SSTables becomes dead — the engine invalidates
  them when the old files are dropped, and re-reads repopulate the cache
  (the block-cache invalidation problem, Fig 14).
* **Block Compaction** keeps the file and the offsets of clean blocks, so
  their cache entries stay valid across the compaction; only dirty blocks'
  entries die.

A sharded deployment hands every engine the *same* underlying
:class:`~repro.cache.lru.ShardedLRUCache` with a per-shard ``namespace``:
keys become ``(namespace, file_number, offset)``, so file numbers from
different shards cannot collide while the byte budget — and the eviction
pressure — is genuinely global (a hot shard may hold more than 1/N of it).
"""

from __future__ import annotations

from ..sstable.block import ParsedBlock
from .lru import LRUStats, ShardedLRUCache


class BlockCache:
    """LRU over parsed data blocks, charged by serialized block size.

    Entries may be eager :class:`~repro.sstable.block.DataBlock` or lazy
    :class:`~repro.sstable.block.LazyDataBlock` instances; both charge the
    serialized payload size, so the eviction behaviour is identical.

    ``shards`` > 1 partitions the ``(file_number, offset)`` key space across
    independently locked LRU shards (DESIGN.md §9); the default of 1 keeps
    the single-mutex behaviour — and eviction order — bit-identical.

    ``lru`` (optional) supplies a pre-built, possibly *shared*
    :class:`ShardedLRUCache` instead of constructing a private one;
    ``namespace`` then scopes this facade's keys within it (DESIGN.md §12).
    """

    def __init__(
        self,
        capacity_bytes: int,
        shards: int = 1,
        tracer=None,
        *,
        lru: ShardedLRUCache | None = None,
        namespace: str | None = None,
    ):
        if lru is not None:
            self._lru = lru
        else:
            self._lru = ShardedLRUCache(capacity_bytes, shards=shards, tracer=tracer)
        self._namespace = namespace

    @property
    def namespace(self) -> str | None:
        return self._namespace

    @property
    def capacity(self) -> int:
        return self._lru.capacity

    @property
    def num_shards(self) -> int:
        return self._lru.num_shards

    @property
    def usage(self) -> int:
        return self._lru.usage

    @property
    def stats(self) -> LRUStats:
        """Aggregated counters (a consistent snapshot; see :meth:`snapshot`)."""
        return self._lru.snapshot()

    def snapshot(self) -> LRUStats:
        """Consistent aggregate stats snapshot across shards."""
        return self._lru.snapshot()

    def shard_snapshots(self) -> list[LRUStats]:
        """Per-shard stats snapshots (shard-balance diagnostics)."""
        return self._lru.shard_snapshots()

    def __len__(self) -> int:
        return len(self._lru)

    # The key is built in place in the two per-block calls: (file, offset),
    # led by the namespace when this facade shares its LRU.

    def get(self, file_number: int, offset: int) -> ParsedBlock | None:
        namespace = self._namespace
        return self._lru.get(
            (file_number, offset) if namespace is None else (namespace, file_number, offset)
        )

    def insert(self, file_number: int, offset: int, block: ParsedBlock) -> None:
        namespace = self._namespace
        self._lru.insert(
            (file_number, offset) if namespace is None else (namespace, file_number, offset),
            block,
            block.memory_bytes(),
        )

    def invalidate_file(self, file_number: int) -> int:
        """Drop every block of ``file_number`` (table-compacted or deleted
        file).  Returns the number of entries invalidated."""
        if self._namespace is None:
            return self._lru.invalidate_where(lambda key: key[0] == file_number)
        namespace = self._namespace
        return self._lru.invalidate_where(
            lambda key: key[0] == namespace and key[1] == file_number
        )

    def invalidate_blocks(self, file_number: int, offsets: set[int]) -> int:
        """Drop specific blocks of ``file_number`` (the dirty blocks a Block
        Compaction rewrote).  Clean blocks stay cached."""
        if self._namespace is None:
            return self._lru.invalidate_where(
                lambda key: key[0] == file_number and key[1] in offsets
            )
        namespace = self._namespace
        return self._lru.invalidate_where(
            lambda key: key[0] == namespace
            and key[1] == file_number
            and key[2] in offsets
        )

    def clear(self) -> None:
        if self._namespace is None:
            self._lru.clear()
        else:
            namespace = self._namespace
            self._lru.invalidate_where(lambda key: key[0] == namespace)

    def hit_rate(self) -> float:
        return self._lru.hit_rate()
