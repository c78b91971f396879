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

    Entries are eager :class:`~repro.sstable.block.DataBlock` or raw
    :class:`~repro.sstable.block.DeferredBlock` (a get's miss) instances,
    both charged the payload size; :meth:`promote` swaps a deferred block's
    decoded form into its entry, so :meth:`get` never checks which it is.

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
        # The per-block calls go straight to the one shard when there is
        # only one: ``ShardedLRUCache._shard`` would pick it, every call.
        # Several shards keep the routing (and its contention sampling).
        lru = self._lru
        target = lru._shards[0] if lru.num_shards == 1 else lru
        self._lru_get = target.get
        self._lru_insert = target.insert

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
    # led by the namespace when this facade shares its LRU.  Each block is
    # inserted in its file's group, so an invalidation visits only that
    # file's cached blocks.

    def get(self, file_number: int, offset: int) -> ParsedBlock | None:
        namespace = self._namespace
        return self._lru_get(
            (file_number, offset) if namespace is None else (namespace, file_number, offset)
        )

    def insert(self, file_number: int, offset: int, block: ParsedBlock) -> None:
        """Cache ``block`` in its file's group, charged its memory size."""
        namespace = self._namespace
        if namespace is None:
            self._lru_insert((file_number, offset), block, block.memory_bytes(), file_number)
        else:
            self._lru_insert(
                (namespace, file_number, offset),
                block,
                block.memory_bytes(),
                (namespace, file_number),
            )

    def promote(self, file_number: int, offset: int, deferred, block) -> None:
        """Swap ``deferred``'s decoded ``block`` into its entry, if still there."""
        namespace = self._namespace
        key = (file_number, offset) if namespace is None else (namespace, file_number, offset)
        self._lru.replace(key, deferred, block)

    def invalidate_file(self, file_number: int) -> int:
        """Drop every block of ``file_number`` (table-compacted or deleted
        file).  Returns the number of entries invalidated."""
        namespace = self._namespace
        return self._lru.invalidate_group(
            file_number if namespace is None else (namespace, file_number)
        )

    def invalidate_blocks(self, file_number: int, offsets: set[int]) -> int:
        """Drop specific blocks of ``file_number`` (the dirty blocks a Block
        Compaction rewrote).  Clean blocks stay cached."""
        namespace = self._namespace
        if namespace is None:
            return self._lru.invalidate_group(
                file_number, {(file_number, offset) for offset in offsets}
            )
        return self._lru.invalidate_group(
            (namespace, file_number),
            {(namespace, file_number, offset) for offset in offsets},
        )

    def clear(self) -> None:
        if self._namespace is None:
            self._lru.clear()
        else:
            namespace = self._namespace
            self._lru.invalidate_where(lambda key: key[0] == namespace)

    def hit_rate(self) -> float:
        return self._lru.hit_rate()
