"""Parallel Merging scheduler and Lazy Deletion tests (paper Section IV)."""

import pytest

from conftest import kv, make_db, tiny_options
from repro.compaction.lazy_deletion import DeletionManager
from repro.compaction.parallel import SubtaskExecutor, lpt_makespan
from repro.core.version import FileMetadata
from repro.cache.block_cache import BlockCache
from repro.cache.table_cache import TableCache
from repro.keys import TYPE_VALUE, make_internal_key
from repro.metrics.stats import DBStats
from repro.storage.fs import SimulatedFS
from repro.storage.io_stats import IOStats


class TestLptMakespan:
    def test_empty(self):
        assert lpt_makespan([], 4) == 0.0

    def test_single_worker_is_serial(self):
        assert lpt_makespan([1.0, 2.0, 3.0], 1) == 6.0

    def test_perfect_split(self):
        assert lpt_makespan([1.0, 1.0, 1.0, 1.0], 2) == 2.0

    def test_bounded_by_longest_task(self):
        assert lpt_makespan([10.0, 1.0, 1.0], 4) == 10.0

    def test_more_workers_never_slower(self):
        durations = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        spans = [lpt_makespan(durations, w) for w in range(1, 8)]
        assert all(a >= b for a, b in zip(spans, spans[1:]))
        assert spans[0] == pytest.approx(sum(durations))

    def test_never_below_average_load(self):
        durations = [2.0, 3.0, 5.0, 7.0]
        for w in (2, 3):
            assert lpt_makespan(durations, w) >= sum(durations) / w


class TestSubtaskExecutorInline:
    """The inline backend (synchronous mode): in order, LPT rebate iff
    ``parallel_merging``."""

    def _subtask(self, stats, cost):
        def run():
            stats.charge_time(cost)

        return run

    def test_disabled_charges_serial_time(self):
        stats = IOStats()
        sched = SubtaskExecutor(
            stats, tiny_options(compaction_workers=4, parallel_merging=False)
        )
        sched.run([self._subtask(stats, 1.0), self._subtask(stats, 1.0)])
        assert stats.sim_time_s == pytest.approx(2.0)

    def test_enabled_rebates_to_makespan(self):
        stats = IOStats()
        sched = SubtaskExecutor(
            stats, tiny_options(compaction_workers=2, parallel_merging=True)
        )
        sched.run([self._subtask(stats, 1.0) for _ in range(4)])
        assert stats.sim_time_s == pytest.approx(2.0)  # 4 x 1s on 2 workers
        assert sched.last_rebate == pytest.approx(2.0)
        assert sched.last_durations == [1.0] * 4

    def test_single_subtask_not_rebated(self):
        stats = IOStats()
        sched = SubtaskExecutor(
            stats, tiny_options(compaction_workers=4, parallel_merging=True)
        )
        sched.run([self._subtask(stats, 3.0)])
        assert stats.sim_time_s == pytest.approx(3.0)

    def test_all_subtasks_execute(self):
        stats = IOStats()
        done = []
        sched = SubtaskExecutor(
            stats, tiny_options(compaction_workers=2, parallel_merging=True)
        )
        sched.run([lambda i=i: done.append(i) for i in range(5)])
        assert done == [0, 1, 2, 3, 4]  # deterministic order

    def test_parallel_merging_speeds_up_load(self):
        serial = make_db("selective", parallel_merging=False)
        parallel = make_db("selective", parallel_merging=True, compaction_workers=4)
        import random

        order = list(range(800))
        random.Random(42).shuffle(order)
        for i in order:
            serial.put(*kv(i))
        for i in order:
            parallel.put(*kv(i))
        # identical logical work, identical bytes, less simulated time
        assert parallel.io_stats.bytes_written == serial.io_stats.bytes_written
        assert parallel.io_stats.sim_time_s < serial.io_stats.sim_time_s
        serial.close()
        parallel.close()


class _Env:
    def __init__(self, lazy: bool, threshold: int = 10_000):
        self.options = tiny_options(lazy_deletion=lazy, lazy_deletion_threshold=threshold)
        self.fs = SimulatedFS()
        self.stats = DBStats()
        self.table_cache = TableCache(self.fs, self.options)
        self.block_cache = BlockCache(1 << 20)
        self.manager = DeletionManager(
            self.fs, self.options, self.table_cache, self.block_cache, self.stats
        )

    def fake_file(self, number: int, size: int = 1000) -> FileMetadata:
        f = self.fs.create_file(f"{number:06d}.sst")
        f.append(b"x" * size)
        f.close()
        return FileMetadata(
            file_number=number,
            file_size=size,
            valid_bytes=size,
            num_entries=1,
            smallest=make_internal_key(b"a", 1, TYPE_VALUE),
            largest=make_internal_key(b"b", 1, TYPE_VALUE),
        )


class TestDeletionManager:
    def test_eager_mode_deletes_immediately_with_scan(self):
        env = _Env(lazy=False)
        meta = env.fake_file(1)
        env.manager.retire([meta])
        assert not env.fs.exists("000001.sst")
        assert env.stats.obsolete_scans == 1
        assert env.stats.obsolete_files_deleted == 1

    def test_lazy_mode_batches_below_threshold(self):
        env = _Env(lazy=True, threshold=5000)
        for i in range(1, 4):
            env.manager.retire([env.fake_file(i, size=1000)])
        assert env.manager.pending_files == 3
        assert env.fs.exists("000001.sst")
        assert env.stats.obsolete_scans == 0

    def test_lazy_mode_cleans_at_threshold_with_one_scan(self):
        env = _Env(lazy=True, threshold=5000)
        for i in range(1, 7):
            env.manager.retire([env.fake_file(i, size=1000)])
        # files 1-5 crossed the 5000-byte threshold and were swept together;
        # file 6 started a new batch.
        assert env.manager.pending_files == 1
        assert env.stats.obsolete_scans == 1
        assert env.stats.obsolete_files_deleted == 5
        assert not env.fs.exists("000001.sst")
        assert env.fs.exists("000006.sst")

    def test_caches_invalidated_at_retire_not_deletion(self):
        env = _Env(lazy=True, threshold=10**9)
        meta = env.fake_file(1)
        env.block_cache._lru.insert((1, 0), "block", charge=1)
        env.manager.retire([meta])
        assert env.fs.exists("000001.sst")  # bytes still there
        assert env.block_cache.get(1, 0) is None  # but cache entry is dead

    def test_iterator_pin_defers_deletion(self):
        env = _Env(lazy=False)
        env.manager.pin()
        meta = env.fake_file(1)
        env.manager.retire([meta])
        assert env.fs.exists("000001.sst")
        env.manager.unpin()
        assert not env.fs.exists("000001.sst")

    def test_unbalanced_unpin_rejected(self):
        env = _Env(lazy=False)
        with pytest.raises(RuntimeError):
            env.manager.unpin()

    def test_flush_all_ignores_pins(self):
        env = _Env(lazy=True, threshold=10**9)
        env.manager.pin()
        env.manager.retire([env.fake_file(1)])
        env.manager.flush_all()
        assert not env.fs.exists("000001.sst")

    def test_lazy_deletion_reduces_scans_end_to_end(self):
        import random

        order = list(range(600))
        random.Random(8).shuffle(order)
        eager = make_db("table", lazy_deletion=False)
        lazy = make_db("table", lazy_deletion=True, lazy_deletion_threshold=20_000)
        for i in order:
            eager.put(*kv(i))
        for i in order:
            lazy.put(*kv(i))
        assert lazy.stats.obsolete_scans < eager.stats.obsolete_scans
        assert lazy.io_stats.sim_time_s < eager.io_stats.sim_time_s
        eager.close()
        lazy.close()

    def test_db_iterator_pins_deletion_end_to_end(self):
        db = make_db("table")
        import random

        for i in range(100):
            db.put(*kv(i))
        it = db.iterator()
        first = next(it)
        # force compactions while the iterator is open
        order = list(range(100, 500))
        random.Random(3).shuffle(order)
        for i in order:
            db.put(*kv(i))
        # iterator still reads consistently (files it references are pinned)
        rest = list(it)
        assert len([first] + rest) == 100
        db.close()
