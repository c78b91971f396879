"""Unit tests for Block Compaction's algorithms (paper Algorithms 1-3).

These drive the functions directly against hand-built SSTables, including
the paper's Fig 2 scenario (gap keys "51"/"60" forming new blocks without
rewriting anything).
"""

import pytest

from conftest import tiny_options
from repro.cache.block_cache import BlockCache
from repro.cache.table_cache import TableCache
from repro.compaction.base import CompactionResult, CompactionTask
from repro.compaction.block_compaction import (
    apply_block_update,
    block_compact_file,
    find_dirty_blocks,
    partition_parent_slices,
)
from repro.compaction.parallel import SubtaskExecutor
from repro.compaction.selective import run_block_compaction
from repro.core.version import Version, VersionEdit, new_file_metadata
from repro.keys import TYPE_DELETION, TYPE_VALUE, comparable_key, make_internal_key
from repro.metrics.stats import DBStats
from repro.sstable import TableBuilder, TableReader
from repro.storage.fs import SimulatedFS

SNAP = 10**9


class FakeEnv:
    """Minimal CompactionEnv for driving compaction functions directly."""

    def __init__(self, options=None):
        self.options = options or tiny_options()
        self.fs = SimulatedFS()
        self.table_cache = TableCache(self.fs, self.options)
        self.block_cache = BlockCache(self.options.block_cache_capacity)
        self.version = Version(self.options.max_levels)
        self.stats = DBStats()
        self._next = 1

    def new_file_number(self):
        self._next += 1
        return self._next

    def snapshot_boundaries(self):
        return []

    def build(self, keys, level=2, seq_start=1, value=b"v" * 40, register=None):
        number = self.new_file_number()
        builder = TableBuilder(self.fs, f"{number:06d}.sst", self.options, level)
        for offset, key in enumerate(keys):
            builder.add(make_internal_key(key, seq_start + offset, TYPE_VALUE), value)
        info = builder.finish()
        meta = new_file_metadata(number, info)
        if register is not None:
            self.version.apply(VersionEdit(new_files=[(register, meta)]))
        return meta

    def reader(self, meta) -> TableReader:
        return self.table_cache.get(meta.file_number, meta.file_name())


def k(i: int) -> bytes:
    return b"%05d" % i


class TestFindDirtyBlocks:
    @pytest.fixture
    def env(self):
        return FakeEnv()

    def test_no_parent_keys_all_clean(self, env):
        meta = env.build([k(i) for i in range(0, 40, 2)])
        scan = find_dirty_blocks([], env.reader(meta).index)
        assert scan.dirty_entries == []
        assert scan.dirty_bytes == 0

    def test_key_inside_block_marks_it_dirty(self, env):
        meta = env.build([k(i) for i in range(0, 40, 2)])
        index = env.reader(meta).index
        target = index.entries[1]
        inside = target.smallest_user_key  # definitely covered
        scan = find_dirty_blocks([inside], index)
        assert [e.offset for e in scan.dirty_entries] == [target.offset]
        assert scan.dirty_bytes == target.size

    def test_gap_keys_mark_nothing(self, env):
        meta = env.build([k(i) for i in range(0, 40, 2)])
        index = env.reader(meta).index
        gaps = []
        for a, b in zip(index.entries, index.entries[1:]):
            if a.largest_user_key < b.smallest_user_key:
                gaps.append(a.largest_user_key + b"x")
        assert gaps, "expected inter-block gaps"
        scan = find_dirty_blocks(gaps, index)
        assert scan.dirty_entries == []

    def test_every_block_touched(self, env):
        meta = env.build([k(i) for i in range(0, 40, 2)])
        index = env.reader(meta).index
        scan = find_dirty_blocks([e.smallest_user_key for e in index.entries], index)
        assert len(scan.dirty_entries) == len(index.entries)
        assert scan.dirty_ratio(meta.valid_bytes) == pytest.approx(1.0)

    def test_keys_outside_table_range(self, env):
        meta = env.build([k(i) for i in range(10, 20)])
        index = env.reader(meta).index
        scan = find_dirty_blocks([k(1), k(99)], index)
        assert scan.dirty_entries == []

    def test_dirty_ratio_degenerate(self):
        from repro.compaction.block_compaction import DirtyBlockScan

        assert DirtyBlockScan().dirty_ratio(0) == 1.0


class TestPartitioning:
    def _entries(self, ordinals):
        return [(comparable_key(k(i), 100 + i, TYPE_VALUE), b"v") for i in ordinals]

    def _files(self, env, ranges):
        return [env.build([k(i) for i in rng]) for rng in ranges]

    def test_routes_by_child_spans(self):
        env = FakeEnv()
        children = self._files(env, [range(10, 20), range(30, 40), range(50, 60)])
        parent = self._entries([5, 12, 25, 35, 45, 55, 99])
        slices = partition_parent_slices(parent, children)
        assert [[ck[0] for ck, _ in s] for s in slices] == [
            [k(5), k(12), k(25)],  # below file 1's span boundary (30)
            [k(35), k(45)],
            [k(55), k(99)],
        ]

    def test_all_below_first(self):
        env = FakeEnv()
        children = self._files(env, [range(50, 60)])
        parent = self._entries([1, 2, 3])
        slices = partition_parent_slices(parent, children)
        assert len(slices[0]) == 3

    def test_empty_parent(self):
        env = FakeEnv()
        children = self._files(env, [range(0, 5)])
        assert partition_parent_slices([], children) == [[]]

    def test_no_children_rejected(self):
        with pytest.raises(ValueError):
            partition_parent_slices([], [])

    def test_boundary_key_goes_to_owning_file(self):
        env = FakeEnv()
        children = self._files(env, [range(0, 5), range(10, 15)])
        parent = self._entries([10])
        slices = partition_parent_slices(parent, children)
        assert slices[0] == []
        assert len(slices[1]) == 1


class TestBlockCompactFile:
    def test_fig2_gap_keys_create_new_blocks_without_rewrites(self):
        """Paper Fig 2: keys 51/60 fall between/beyond blocks -> new blocks,
        zero dirty blocks rewritten, all old blocks reused."""
        env = FakeEnv()
        # Child blocks will cover dense ranges with gaps between blocks.
        meta = env.build([k(i) for i in range(0, 40, 2)], level=2)
        reader = env.reader(meta)
        index = reader.index
        gap_key = None
        for a, b in zip(index.entries, index.entries[1:]):
            if a.largest_user_key < b.smallest_user_key:
                gap_key = a.largest_user_key + b"g"
                break
        assert gap_key is not None
        beyond_key = index.entries[-1].largest_user_key + b"z"
        blocks_before = len(index.entries)

        parent = [
            (comparable_key(gap_key, 900, TYPE_VALUE), b"GAP"),
            (comparable_key(beyond_key, 901, TYPE_VALUE), b"BEYOND"),
        ]
        new_meta, stats = block_compact_file(env, parent, meta, 2)
        assert stats.dirty_blocks == 0
        assert stats.clean_blocks == blocks_before
        assert stats.new_blocks == 2
        reader.reload()
        assert reader.lookup(gap_key, SNAP)[:2] == (True, b"GAP")
        assert reader.lookup(beyond_key, SNAP)[:2] == (True, b"BEYOND")
        assert new_meta.num_entries == meta.num_entries + 2
        assert new_meta.append_count == 1

    def test_dirty_block_merged_and_clean_blocks_survive_in_cache(self):
        env = FakeEnv()
        meta = env.build([k(i) for i in range(0, 40, 2)], level=2)
        reader = env.reader(meta)
        # warm the cache with every block
        for entry in reader.index.entries:
            reader.read_block(entry, category="get", block_cache=env.block_cache)
        cached_before = len(env.block_cache)
        target = reader.index.entries[1]
        update_key = target.smallest_user_key
        parent = [(comparable_key(update_key, 999, TYPE_VALUE), b"UPDATED")]
        _new_meta, stats = block_compact_file(env, parent, meta, 2)
        assert stats.dirty_blocks == 1
        # only the dirty block's cache entry died
        assert len(env.block_cache) == cached_before - 1
        assert env.block_cache.get(meta.file_number, target.offset) is None
        reader.reload()
        assert reader.lookup(update_key, SNAP)[:2] == (True, b"UPDATED")
        # neighbours unchanged
        assert reader.lookup(k(0), SNAP)[:2] == (True, b"v" * 40)

    def test_parent_tombstone_removes_child_key(self):
        env = FakeEnv()
        meta = env.build([k(i) for i in range(0, 20, 2)], level=2)
        reader = env.reader(meta)
        victim = k(4)
        parent = [(comparable_key(victim, 999, TYPE_DELETION), b"")]
        new_meta, _stats = block_compact_file(env, parent, meta, 2)
        reader.reload()
        # nothing deeper: tombstone dropped entirely, key gone
        assert reader.lookup(victim, SNAP)[:2] == (False, None)
        assert new_meta.num_entries == meta.num_entries - 1

    def test_file_emptied_by_tombstones_returns_no_metadata(self):
        """Every key tombstoned away and nothing deeper: the appended index
        is empty, so there are no bounds to build a catalog entry from —
        the outcome is None and the task result retires the file."""
        env = FakeEnv()
        keys = [k(i) for i in range(0, 12, 2)]
        meta = env.build(keys, level=2, register=2)
        parent = [
            (comparable_key(key, 900 + i, TYPE_DELETION), b"") for i, key in enumerate(keys)
        ]
        new_meta, stats = block_compact_file(env, parent, meta, 2)
        assert new_meta is None
        assert stats.clean_blocks == 0 and stats.new_blocks == 0
        assert stats.dirty_blocks > 0

        result = CompactionResult(kind="block")
        apply_block_update(result, 2, meta, new_meta)
        assert result.edit.deleted_files == [(2, meta.file_number)]
        assert result.edit.updated_files == []
        assert result.obsolete_files == [meta]
        assert result.output_files == 0
        env.version.apply(result.edit)
        assert env.version.files_at(2) == []

    def test_parent_tombstone_kept_when_deeper_level_has_range(self):
        env = FakeEnv()
        deeper = env.build([k(i) for i in range(0, 20)], level=3, register=3)
        meta = env.build([k(i) for i in range(0, 20, 2)], level=2, seq_start=100)
        reader = env.reader(meta)
        victim = k(4)
        parent = [(comparable_key(victim, 999, TYPE_DELETION), b"")]
        block_compact_file(env, parent, meta, 2)
        reader.reload()
        found, value = reader.lookup(victim, SNAP)[:2]
        assert (found, value) == (True, None)  # tombstone preserved, shadows L3

    def test_newest_version_wins_in_update(self):
        env = FakeEnv()
        meta = env.build([k(i) for i in range(0, 20, 2)], level=2, seq_start=1)
        reader = env.reader(meta)
        parent = [(comparable_key(k(2), 999, TYPE_VALUE), b"NEW")]
        block_compact_file(env, parent, meta, 2)
        reader.reload()
        assert reader.lookup(k(2), SNAP)[:2] == (True, b"NEW")
        # superseded version not duplicated in the logical view
        count = sum(1 for ck, _ in reader.entries_from() if ck[0] == k(2))
        assert count == 1

    def test_valid_bytes_shrink_relative_to_file(self):
        env = FakeEnv()
        meta = env.build([k(i) for i in range(0, 40, 2)], level=2)
        parent = [(comparable_key(k(2), 999, TYPE_VALUE), b"NEW" * 10)]
        new_meta, _ = block_compact_file(env, parent, meta, 2)
        assert new_meta.file_size > meta.file_size
        assert new_meta.obsolete_bytes > 0


    def test_walk_that_leaves_the_index_unsorted_is_refused(self, monkeypatch):
        """A plan whose reuses and merges are out of key order (here: two
        ops swapped) raises instead of writing an index point lookups would
        bisect wrongly — in-process through ``add``/``reuse``, offloaded
        through the replayed ``commit_block``."""
        from repro.compaction import block_compaction
        from repro.compaction.offload import OffloadPool

        parent = [(comparable_key(k(2), 999, TYPE_VALUE), b"NEW" * 10)]
        plan = block_compaction.plan_block_walk

        def swapped(index_entries, parent_slice, dirty_entries):
            ops = plan(index_entries, parent_slice, dirty_entries)
            assert ops[0][0] == block_compaction.OP_MERGE
            return [ops[1], ops[0], *ops[2:]]

        monkeypatch.setattr(block_compaction, "plan_block_walk", swapped)
        pool = OffloadPool(1, mp_context="fork")
        try:
            for offload in (None, pool):
                env = FakeEnv()
                meta = env.build([k(i) for i in range(0, 40, 2)], level=2)
                with pytest.raises(ValueError):
                    block_compact_file(env, parent, meta, 2, pool=offload)
        finally:
            pool.close()


def inline(env):
    """The sub-task executor a default (synchronous) DB would own."""
    return SubtaskExecutor(env.fs.stats, env.options)


class TestRunBlockCompaction:
    def test_task_updates_children_and_drops_parent(self):
        env = FakeEnv()
        child_a = env.build([k(i) for i in range(0, 20, 2)], level=2, register=2)
        child_b = env.build([k(i) for i in range(30, 50, 2)], level=2, register=2)
        parent = env.build([k(3), k(33)], level=1, seq_start=500, register=1)
        task = CompactionTask(1, [parent], [child_a, child_b])
        result = run_block_compaction(env, task, inline(env))
        assert result.kind == "block"
        assert {n for _l, n in result.edit.deleted_files} == {parent.file_number}
        assert len(result.edit.updated_files) == 2
        assert result.obsolete_files == [parent]
        assert result.bytes_written > 0
        # writes less than a full rewrite of both children (at this toy
        # scale per-section metadata dominates; the WA benefit is asserted
        # at realistic scale in test_db_compaction / the benchmarks)
        assert result.bytes_written < child_a.file_size + child_b.file_size

    def test_untouched_child_not_updated(self):
        env = FakeEnv()
        child_a = env.build([k(i) for i in range(0, 10)], level=2, register=2)
        child_b = env.build([k(i) for i in range(20, 30)], level=2, register=2)
        parent = env.build([k(5)], level=1, seq_start=500, register=1)
        task = CompactionTask(1, [parent], [child_a, child_b])
        result = run_block_compaction(env, task, inline(env))
        updated = {m.file_number for _l, m in result.edit.updated_files}
        assert updated == {child_a.file_number}

    def test_requires_children(self):
        env = FakeEnv()
        parent = env.build([k(1)], level=1, register=1)
        with pytest.raises(ValueError):
            run_block_compaction(env, CompactionTask(1, [parent], []), inline(env))
