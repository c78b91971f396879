"""LRU, block cache, and table cache tests."""

import pytest

from repro.cache.block_cache import BlockCache
from repro.cache.lru import LRUCache
from repro.cache.table_cache import TableCache
from repro.keys import TYPE_VALUE, make_internal_key
from repro.options import Options
from repro.sstable import TableBuilder
from repro.sstable.block import DataBlock
from repro.storage.fs import SimulatedFS

from conftest import encode_block


def make_block(n=4) -> DataBlock:
    return DataBlock.parse(
        encode_block([(make_internal_key(b"k%03d" % i, 1, TYPE_VALUE), b"v" * 20) for i in range(n)])
    )


class TestLRU:
    def test_get_miss_then_hit(self):
        lru = LRUCache(100)
        assert lru.get("a") is None
        lru.insert("a", 1, charge=10)
        assert lru.get("a") == 1
        assert lru.stats.hits == 1 and lru.stats.misses == 1

    def test_eviction_by_charge(self):
        lru = LRUCache(100)
        for i in range(12):
            lru.insert(i, i, charge=10)
        assert lru.usage <= 100
        assert lru.stats.evictions == 2
        assert 0 not in lru and 1 not in lru
        assert 11 in lru

    def test_recency_protects_entries(self):
        lru = LRUCache(30)
        lru.insert("a", 1, charge=10)
        lru.insert("b", 2, charge=10)
        lru.insert("c", 3, charge=10)
        lru.get("a")  # refresh
        lru.insert("d", 4, charge=10)
        assert "a" in lru and "b" not in lru

    def test_replace_updates_charge(self):
        lru = LRUCache(100)
        lru.insert("a", 1, charge=60)
        lru.insert("a", 2, charge=10)
        assert lru.usage == 10
        assert lru.get("a") == 2

    def test_oversized_entry_not_retained(self):
        lru = LRUCache(10)
        lru.insert("big", 1, charge=100)
        assert "big" not in lru
        assert lru.usage == 0

    def test_invalidate_where(self):
        lru = LRUCache(100)
        for i in range(5):
            lru.insert(("f", i), i, charge=1)
        removed = lru.invalidate_where(lambda k: k[1] % 2 == 0)
        assert removed == 3
        assert lru.stats.invalidations == 3
        assert lru.stats.evictions == 0

    def test_erase_and_clear(self):
        lru = LRUCache(100)
        lru.insert("a", 1)
        assert lru.erase("a")
        assert not lru.erase("a")
        lru.insert("b", 2)
        lru.clear()
        assert len(lru) == 0 and lru.usage == 0

    def test_on_evict_callback(self):
        closed = []
        lru = LRUCache(2, on_evict=lambda k, v: closed.append(k))
        lru.insert("a", 1, charge=1)
        lru.insert("b", 2, charge=1)
        lru.insert("c", 3, charge=1)
        assert closed == ["a"]
        lru.erase("b")
        assert closed == ["a", "b"]

    def test_peek_does_not_touch(self):
        lru = LRUCache(100)
        lru.insert("a", 1)
        assert lru.peek("a") == 1
        assert lru.stats.hits == 0

    def test_hit_rate(self):
        lru = LRUCache(100)
        lru.insert("a", 1)
        lru.get("a")
        lru.get("b")
        assert lru.hit_rate() == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LRUCache(-1)
        with pytest.raises(ValueError):
            LRUCache(10).insert("a", 1, charge=-1)


class TestBlockCache:
    def test_keyed_by_file_and_offset(self):
        cache = BlockCache(10_000)
        block = make_block()
        cache.insert(1, 0, block)
        cache.insert(1, 512, block)
        cache.insert(2, 0, block)
        assert cache.get(1, 0) is block
        assert cache.get(9, 0) is None
        assert len(cache) == 3

    def test_invalidate_file_kills_all_its_blocks(self):
        """Table Compaction's effect: the whole file's entries die."""
        cache = BlockCache(10_000)
        block = make_block()
        for off in (0, 512, 1024):
            cache.insert(1, off, block)
        cache.insert(2, 0, block)
        assert cache.invalidate_file(1) == 3
        assert cache.get(2, 0) is block
        assert cache.stats.invalidations == 3

    def test_invalidate_blocks_spares_clean_ones(self):
        """Block Compaction's effect: only dirty blocks die."""
        cache = BlockCache(10_000)
        block = make_block()
        for off in (0, 512, 1024):
            cache.insert(1, off, block)
        assert cache.invalidate_blocks(1, {512}) == 1
        assert cache.get(1, 0) is block
        assert cache.get(1, 1024) is block
        assert cache.get(1, 512) is None

    def test_charged_by_block_size(self):
        block = make_block()
        cache = BlockCache(block.memory_bytes() * 2)
        cache.insert(1, 0, block)
        cache.insert(1, 512, block)
        cache.insert(1, 1024, block)
        assert len(cache) == 2  # third insert evicted the LRU entry
        assert cache.usage <= cache.capacity


class _CountedFile(int):
    """A file number that counts the equality tests it takes part in — the
    visits an invalidation pays to find a file's cached blocks."""

    comparisons = 0

    def __eq__(self, other):
        _CountedFile.comparisons += 1
        return int.__eq__(self, other)

    __hash__ = int.__hash__


class TestInvalidationIsIndexedByFile:
    """``invalidate_file`` / ``invalidate_blocks`` used to test every cached
    key with a predicate — on every retired file and every Block
    Compaction, so the cost grew with the whole cache.  Measured here as
    file-number comparisons, a count, not a clock."""

    @staticmethod
    def _comparisons(cache_for, other_blocks: int) -> int:
        cache, other = cache_for()
        block = make_block()
        for offset in range(0, 8 * 512, 512):
            cache.insert(_CountedFile(7), offset, block)
        for i in range(other_blocks):
            # Other files in this facade's namespace, and as many in another.
            cache.insert(_CountedFile(100 + i // 16), 512 * (i % 16), block)
            other.insert(_CountedFile(7 + i // 16), 512 * (i % 16), block)
        _CountedFile.comparisons = 0
        assert cache.invalidate_blocks(_CountedFile(7), {0, 512, 99_999}) == 2
        assert cache.invalidate_file(_CountedFile(7)) == 6
        assert cache.invalidate_file(_CountedFile(8)) == 0
        return _CountedFile.comparisons

    @staticmethod
    def _private():
        return BlockCache(1 << 30), BlockCache(1 << 30)

    @staticmethod
    def _namespaced():
        from repro.cache.lru import ShardedLRUCache

        shared = ShardedLRUCache(1 << 30, shards=4)
        return (
            BlockCache(0, lru=shared, namespace="s0"),
            BlockCache(0, lru=shared, namespace="s1"),
        )

    @pytest.mark.parametrize("layout", ["private", "namespaced"])
    def test_cost_does_not_grow_with_other_files_blocks(self, layout):
        cache_for = self._private if layout == "private" else self._namespaced
        few = self._comparisons(cache_for, 16)
        many = self._comparisons(cache_for, 4096)
        assert few == many, (few, many)

    @pytest.mark.parametrize("namespace", [None, "s0"])
    def test_the_index_holds_only_cached_files(self, namespace):
        """A file whose blocks were all evicted, or cleared with its
        namespace, leaves no index entry behind: a ``ShardedDB``'s shared
        LRU outlives the shards it served."""
        from repro.cache.lru import ShardedLRUCache

        block = make_block()
        shared = ShardedLRUCache(4 * block.memory_bytes(), shards=2)
        cache = BlockCache(0, lru=shared, namespace=namespace)
        for file_number in range(10):
            for offset in (0, 512):
                cache.insert(file_number, offset, block)
        groups = [group for shard in shared._shards for group in shard._groups]
        cached = {key[:-1] for key in shared.keys()}
        assert shared.snapshot().evictions > 0
        assert sorted(groups) == sorted(
            key[0] if namespace is None else key for key in cached
        )
        cache.clear()
        assert all(not shard._groups for shard in shared._shards)

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("namespace", [None, "s1"])
    def test_matches_a_predicate_over_every_key(self, shards, namespace):
        """Contents, LRU order and counters equal what the predicate scan
        leaves, through inserts, hits, evictions and both invalidations."""
        import random

        from repro.cache.lru import ShardedLRUCache

        block = make_block()
        indexed = ShardedLRUCache(40 * block.memory_bytes(), shards=shards)
        scanned = ShardedLRUCache(40 * block.memory_bytes(), shards=shards)
        cache = BlockCache(0, lru=indexed, namespace=namespace)
        lead = () if namespace is None else (namespace,)
        rng = random.Random(5)
        for _ in range(3000):
            file_number, offset = rng.randrange(6), 512 * rng.randrange(12)
            roll = rng.random()
            if roll < 0.6:
                cache.insert(file_number, offset, block)
                scanned.insert((*lead, file_number, offset), block, block.memory_bytes())
            elif roll < 0.9:
                assert (cache.get(file_number, offset) is None) == (
                    scanned.get((*lead, file_number, offset)) is None
                )
            elif roll < 0.95:
                offsets = {512 * rng.randrange(12) for _ in range(3)}
                assert cache.invalidate_blocks(file_number, offsets) == scanned.invalidate_where(
                    lambda key: key[:-1] == (*lead, file_number) and key[-1] in offsets
                )
            else:
                assert cache.invalidate_file(file_number) == scanned.invalidate_where(
                    lambda key: key[:-1] == (*lead, file_number)
                )
            assert list(indexed.keys()) == list(scanned.keys())
        assert indexed.snapshot() == scanned.snapshot()
        assert indexed.snapshot().invalidations > 0


class TestTableCache:
    def _build(self, fs, options, name, n=10):
        builder = TableBuilder(fs, name, options, level=1)
        for i in range(n):
            builder.add(make_internal_key(b"%s-%03d" % (name.encode(), i), 1, TYPE_VALUE), b"v")
        return builder.finish()

    def test_caches_open_readers(self):
        fs = SimulatedFS()
        options = Options(block_size=256, sstable_size=4096, memtable_size=4096)
        self._build(fs, options, "000001.sst")
        cache = TableCache(fs, options)
        r1 = cache.get(1, "000001.sst")
        r2 = cache.get(1, "000001.sst")
        assert r1 is r2
        assert cache.stats.hits == 1

    def test_capacity_evicts_and_closes(self):
        fs = SimulatedFS()
        options = Options(
            block_size=256, sstable_size=4096, memtable_size=4096, table_cache_capacity=2
        )
        for i in range(1, 4):
            self._build(fs, options, f"{i:06d}.sst")
        cache = TableCache(fs, options)
        for i in range(1, 4):
            cache.get(i, f"{i:06d}.sst")
        assert len(cache) == 2

    def test_memory_cost_sums_cached_tables(self):
        fs = SimulatedFS()
        options = Options(block_size=256, sstable_size=4096, memtable_size=4096)
        for i in range(1, 3):
            self._build(fs, options, f"{i:06d}.sst")
        cache = TableCache(fs, options)
        assert cache.memory_cost().total == 0
        cache.get(1, "000001.sst")
        one = cache.memory_cost()
        cache.get(2, "000002.sst")
        two = cache.memory_cost()
        assert two.index_bytes > one.index_bytes
        assert two.filter_bytes > one.filter_bytes
        assert two.total == two.index_bytes + two.filter_bytes

    def test_evict_forgets_file(self):
        fs = SimulatedFS()
        options = Options(block_size=256, sstable_size=4096, memtable_size=4096)
        self._build(fs, options, "000001.sst")
        cache = TableCache(fs, options)
        cache.get(1, "000001.sst")
        cache.evict(1)
        assert len(cache) == 0


class TestShardedLRU:
    """N-shard cache (DESIGN.md §9): routing, aggregation, and the
    shards=1 bit-identical degenerate case."""

    def test_routing_is_by_key_hash_and_stable(self):
        from repro.cache.lru import ShardedLRUCache

        cache = ShardedLRUCache(1600, shards=16)
        for i in range(100):
            cache.insert(i, i * 2, charge=1)
        for i in range(100):
            assert cache.shard_index(i) == hash(i) % 16
            assert cache.get(i) == i * 2
        # Every entry lives in exactly one shard.
        assert sum(len(s) for s in cache._shards) == len(cache) == 100

    def test_namespaced_key_routes_by_the_unmemoised_formula(self):
        """``(namespace, file, offset)`` keys — the sharded engine's — go to
        the shard FNV-1a of the namespace text sends them to, however often
        the namespace has been hashed before."""
        from repro.cache.lru import ShardedLRUCache, _fnv1a_64

        cache = ShardedLRUCache(1600, shards=16)
        for namespace in ("shard-0000", "shard-0001", "tenant/é"):
            for file_number, offset in ((7, 0), (7, 4101), (123456, 2**33)):
                expected = (
                    hash((_fnv1a_64(namespace.encode("utf-8")), file_number, offset)) % 16
                )
                for _ in range(2):  # cold, then remembered
                    assert cache.shard_index((namespace, file_number, offset)) == expected

    @pytest.mark.parametrize("traced", [False, True])
    def test_namespaced_facade_picks_the_shard_the_lru_would(self, traced, monkeypatch):
        """A namespaced ``BlockCache`` over a shared multi-shard LRU picks
        each block's shard itself, the one ``stable_hash`` routes its key
        to; with a tracer on the LRU it routes through ``_shard``, so the
        contention sampling stays."""
        from repro.cache.lru import ShardedLRUCache
        from repro.obs import Tracer

        routed = []
        original = ShardedLRUCache._shard
        monkeypatch.setattr(
            ShardedLRUCache, "_shard",
            lambda lru, key: routed.append(key) or original(lru, key),
        )
        shared = ShardedLRUCache(1 << 20, shards=16, tracer=Tracer() if traced else None)
        caches = [BlockCache(0, lru=shared, namespace=f"shard-{n:06d}") for n in range(3)]
        block = make_block()
        places = [(file_number, offset) for file_number in (1, 7, 2**40) for offset in (0, 4096, 9)]
        for cache in caches:
            for file_number, offset in places:
                cache.insert(file_number, offset, block)
                key = (cache.namespace, file_number, offset)
                assert key in shared._shards[shared.shard_index(key)]
                assert cache.get(file_number, offset) is block
        assert len(shared) == len(caches) * len(places)
        assert bool(routed) == traced

    def test_cache_key_shapes_route_by_the_generic_formula(self):
        """The block / table cache key shapes ``stable_hash`` spells out —
        (file, offset), (namespace, file), (namespace, file, offset) — hash
        to what the per-item formula gives, as do their near misses (a
        bool, a negative, -1 whose hash is -2, a str past the head, other
        lengths)."""
        from repro.cache.lru import stable_hash

        def generic(key):
            return hash(tuple(stable_hash(item) for item in key))

        for key in (
            (7, 4101), (0, 0), (-1, 5), (5, -1), (-2, -1), (2**70, 3), (True, 8),
            ("shard-0000", 7), ("shard-0000", -1), ("", 0), ("a", "b"), (7, "b"),
            ("shard-0001", 7, 4101), ("tenant/é", 123456, 2**33), ("s", -1, True),
            ("s", "t", 1), (1, 2, 3), (b"raw", 1, 2), ("s", 1, 2.0),
            (), (9,), ("s",), ("s", 1, 2, 3), (("s", 1), 2),
        ):
            assert stable_hash(key) == generic(key), key

    def test_capacity_split_is_exact(self):
        from repro.cache.lru import ShardedLRUCache

        cache = ShardedLRUCache(100, shards=16)
        assert sum(s.capacity for s in cache._shards) == 100

    def test_stats_aggregate_across_shards(self):
        from repro.cache.lru import ShardedLRUCache

        cache = ShardedLRUCache(1600, shards=16)
        for i in range(50):
            cache.insert(i, i, charge=1)
        for i in range(50):
            assert cache.get(i) == i
        for i in range(50, 60):
            assert cache.get(i) is None
        agg = cache.snapshot()
        assert agg.hits == 50 and agg.misses == 10 and agg.insertions == 50
        per_shard = cache.shard_snapshots()
        assert sum(s.hits for s in per_shard) == 50
        assert cache.stats.hits == 50  # property returns a fresh snapshot
        assert cache.hit_rate() == pytest.approx(50 / 60)

    def test_single_shard_matches_plain_lru_exactly(self):
        """shards=1 must reproduce the unsharded cache bit-for-bit —
        eviction order included (the default-mode determinism contract)."""
        from repro.cache.lru import ShardedLRUCache

        plain = LRUCache(10)
        sharded = ShardedLRUCache(10, shards=1)
        ops = [("ins", k, c) for k, c in [(1, 4), (2, 4), (3, 4), (4, 2)]]
        ops += [("get", 2, 0), ("ins", 5, 6), ("get", 1, 0), ("get", 3, 0)]
        for op, key, charge in ops:
            if op == "ins":
                plain.insert(key, key, charge=charge)
                sharded.insert(key, key, charge=charge)
            else:
                assert plain.get(key) == sharded.get(key)
        assert plain.snapshot() == sharded.snapshot()
        assert list(plain.keys()) == list(sharded.keys())
        assert plain.usage == sharded.usage

    def test_get_or_insert_counts_like_get_then_insert(self):
        lru = LRUCache(100)
        calls = []
        assert lru.get_or_insert("a", lambda: calls.append(1) or 7, charge=5) == 7
        assert lru.get_or_insert("a", lambda: calls.append(1) or 9, charge=5) == 7
        assert len(calls) == 1  # factory only on the miss
        assert lru.stats.hits == 1 and lru.stats.misses == 1
        assert lru.stats.insertions == 1
        assert lru.usage == 5

    def test_get_or_insert_atomic_under_contention(self):
        """Concurrent misses for one key construct the value exactly once
        (the double-open hazard on the lock-free table-cache path)."""
        import threading

        from repro.cache.lru import ShardedLRUCache

        cache = ShardedLRUCache(1000, shards=4)
        constructed = []
        barrier = threading.Barrier(8)

        def race():
            barrier.wait()
            cache.get_or_insert("key", lambda: constructed.append(1) or "v")

        threads = [threading.Thread(target=race) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(constructed) == 1

    def test_invalidate_where_spans_shards(self):
        from repro.cache.lru import ShardedLRUCache

        cache = ShardedLRUCache(1000, shards=8)
        for f in range(4):
            for off in range(10):
                cache.insert((f, off), b"x", charge=1)
        assert cache.invalidate_where(lambda key: key[0] == 2) == 10
        assert len(cache) == 30
        assert cache.snapshot().invalidations == 10

    def test_shard_count_validation(self):
        from repro.cache.lru import ShardedLRUCache

        with pytest.raises(ValueError):
            ShardedLRUCache(100, shards=0)
        with pytest.raises(ValueError):
            ShardedLRUCache(-1, shards=2)


class TestSnapshotConsistency:
    def test_lru_snapshot_is_a_copy(self):
        lru = LRUCache(100)
        lru.insert("a", 1)
        snap = lru.snapshot()
        lru.get("a")
        assert snap.hits == 0  # the copy does not track later traffic
        assert lru.stats.hits == 1

    def test_block_and_table_cache_expose_shards(self):
        cache = BlockCache(1024, shards=4)
        assert cache.num_shards == 4
        assert len(cache.shard_snapshots()) == 4
        fs = SimulatedFS()
        options = Options(
            block_size=256, sstable_size=4096, memtable_size=4096, cache_shards=4
        )
        tcache = TableCache(fs, options)
        assert tcache.num_shards == 4
        assert len(tcache.shard_snapshots()) == 4
