"""Concurrent write pipeline: background flush/compaction, group commit,
L0 throttling, real parallel sub-tasks, batched multi_get, and the
thread-safety stress test (DESIGN.md §7)."""

import threading
import time

import pytest

from conftest import kv, make_db, tiny_options
from oracle.interleave import controlled
from repro.core import db as db_module
from repro.core import sync
from repro.core.db import DB
from repro.core.write_batch import WriteBatch
from repro.core.write_queue import GROUP_COMMIT_MAX_BYTES, WriteQueue
from repro.errors import ReadOnlyError, TransientIOError
from repro.memtable.wal import read_wal
from repro.obs.trace import NULL_TRACER
from repro.options import COMPACTION_SELECTIVE, COMPACTION_TABLE, Options
from repro.storage.faults import KIND_TRANSIENT, FaultInjectionFS, FaultPolicy
from repro.storage.fs import LocalFS, SimulatedFS
from repro.storage.io_stats import CAT_WAL


def make_concurrent_db(style: str = COMPACTION_TABLE, fs=None, **overrides) -> DB:
    options = tiny_options(compaction_style=style, **overrides).concurrent_pipeline()
    return DB(fs or SimulatedFS(), options)


def write_behind_held_lock(db: DB, batches: list[WriteBatch]) -> list:
    """Hold the engine lock, start one writer thread per batch, release
    once every one of them is queued, join.  Returns what each writer
    raised (None for success), in batch order."""
    raised: list = [None] * len(batches)

    def run(index: int) -> None:
        try:
            db.write(batches[index])
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            raised[index] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
    with db._lock:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30.0
        while len(db._write_queue.writers) < len(batches):
            assert time.monotonic() < deadline, "writers never queued"
            time.sleep(0.001)
    for t in threads:
        t.join(timeout=30.0)
        assert not t.is_alive()
    return raised


def one_put(i: int) -> WriteBatch:
    return WriteBatch().put(*kv(i))


class TestBackgroundPipeline:
    def test_writes_flush_in_background(self):
        db = make_concurrent_db()
        for i in range(200):
            db.put(*kv(i))
        assert db.wait_for_background(timeout=60)
        assert db.stats.flush_count > 0
        for i in range(200):
            key, value = kv(i)
            assert db.get(key) == value
        db.close()

    def test_immutable_memtable_readable_during_flush(self):
        """A frozen-but-unflushed memtable still serves reads."""
        db = make_concurrent_db()
        db._scheduler.pause()  # keep the flush from landing
        try:
            written = 0
            while db._immutable is None and written < 100:
                db.put(*kv(written))  # stops at the first (stuck) freeze
                written += 1
            assert db._immutable is not None
            for i in range(written):
                key, value = kv(i)
                assert db.get(key) == value
        finally:
            db._scheduler.resume()
        db.wait_for_background(timeout=60)
        for i in range(written):
            key, value = kv(i)
            assert db.get(key) == value
        db.close()

    def test_writer_that_waited_does_not_freeze_a_rolled_memtable(self):
        """A writer that fills the memtable while a flush is pending waits
        for it.  If the memtable was rolled meanwhile (a value-log GC round
        freezes and flushes inline), the writer freezes nothing: an empty
        freeze rotates the WAL for nothing and the next rollover then waits
        on it — what made a GC round flush once less than its re-puts.
        Scheduled: the writer parks on the flush before the roll, at every
        seed."""
        for seed in range(4):
            self._roll_under_a_waiting_writer(seed)

    def _roll_under_a_waiting_writer(self, seed: int) -> None:
        raised = []
        with controlled(seed):
            db = make_concurrent_db()
            db._scheduler.pause()  # keep the pending flush from landing
            written = 0
            while db._immutable is None:
                db.put(*kv(written))
                written += 1
            size = db.options.memtable_size
            while not db._memtable.would_reach(size, len(b"".join(kv(written))), 1):
                db.put(*kv(written))
                written += 1

            def writer() -> None:
                try:
                    db.put(*kv(written))
                except BaseException as exc:  # noqa: BLE001 - handed to the test
                    raised.append(exc)

            thread = sync.Thread(target=writer, name="writer")
            thread.start()
            sync.sleep(0.001)  # runs once every other thread is parked
            assert db._memtable.approximate_memory_usage() >= size  # it wrote, and waits
            with db._lock:
                db._drain_immutable_locked()
                db._freeze_locked()
                db._drain_immutable_locked()
            thread.join()
            assert raised == []
            assert db._immutable is None
            assert len(db._memtable) == 0
            db._scheduler.resume()
            for i in range(written + 1):
                key, value = kv(i)
                assert db.get(key) == value
            db.close()

    def test_flush_with_a_paused_lane_does_not_wait(self):
        """``flush()`` runs on the calling thread with the lane quiesced —
        there is no hand-off to wait for, so a lane that will not run (paused
        here) cannot hold it up."""
        with controlled(0):
            db = make_concurrent_db()
            db._scheduler.pause()
            db.put(*kv(0))
            meta = db.flush()
            assert meta is not None
            assert db._immutable is None
            assert db.num_files_per_level()[0] == 1
            db._scheduler.resume()
            db.close()

    def test_background_error_degrades_to_read_only(self, monkeypatch):
        """A hard background failure lands the DB in degraded (read-only)
        mode: writes refuse with ReadOnlyError, reads still serve."""
        db = make_concurrent_db()
        db.put(b"stable", b"value")

        def boom(*args, **kwargs):
            raise RuntimeError("injected background failure")

        monkeypatch.setattr(db, "_build_flush", boom)
        for i in range(5):
            db.put(*kv(i))
        with pytest.raises(ReadOnlyError, match="injected"):
            db.flush()
        assert db.health()["state"] == "degraded"
        with pytest.raises(ReadOnlyError):
            db.put(*kv(99))
        # Reads keep serving the last consistent state.
        assert db.get(b"stable") == b"value"
        db.close()

    def test_flush_waits_for_background_and_returns_meta(self):
        db = make_concurrent_db()
        db.put(*kv(1))
        meta = db.flush()
        assert meta is not None
        assert db._immutable is None
        assert db.num_files_per_level()[0] >= 1
        db.close()

    def test_manual_compaction_quiesces_worker(self):
        db = make_concurrent_db()
        for i in range(400):
            db.put(*kv(i))
        db.compact_all()
        for i in range(400):
            key, value = kv(i)
            assert db.get(key) == value
        # everything drained below L0 by the manual pass
        assert db.num_files_per_level()[0] == 0
        db.close()

    def test_close_then_reopen_recovers_acknowledged_writes(self, tmp_path):
        root = str(tmp_path / "db")
        db = make_concurrent_db(fs=LocalFS(root))
        for i in range(300):
            db.put(*kv(i))
        db.close()
        db2 = make_concurrent_db(fs=LocalFS(root))
        for i in range(300):
            key, value = kv(i)
            assert db2.get(key) == value
        db2.close()


class TestGroupCommit:
    def test_concurrent_writers_all_land(self):
        db = make_concurrent_db()
        errors = []

        def writer(tid):
            try:
                for i in range(150):
                    key = f"t{tid}-{i:04d}".encode()
                    db.put(key, key + b"=v")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        db.wait_for_background(timeout=60)
        for tid in range(6):
            for i in range(150):
                key = f"t{tid}-{i:04d}".encode()
                assert db.get(key) == key + b"=v"
        db.close()

    def test_batches_stay_atomic_under_grouping(self):
        """Each grouped batch keeps its own WAL record and sequence run."""
        db = make_concurrent_db()
        batch = WriteBatch()
        batch.put(b"a", b"1")
        batch.put(b"b", b"2")
        batch.delete(b"a")
        db.write(batch)
        assert db.get(b"a") is None
        assert db.get(b"b") == b"2"
        assert db._wal.records_written == 1
        db.close()

    def test_group_commit_without_background(self):
        """Colliding writers group-commit on the synchronous engine too —
        no option selects it — and the leader runs flush + compactions
        inline."""
        db = DB(SimulatedFS(), tiny_options())
        for start in range(0, 300, 3):
            raised = write_behind_held_lock(
                db, [one_put(i) for i in range(start, start + 3)]
            )
            assert raised == [None] * 3
        assert db.stats.flush_count > 0
        assert db.stats.user_writes == 300
        for i in range(300):
            key, value = kv(i)
            assert db.get(key) == value
        db.close()

    def test_contended_writers_share_one_wal_append(self):
        """Default options: three writers parked behind a held engine lock
        commit as one group — one device append carrying three records,
        each batch its own record."""
        fs = SimulatedFS()
        db = DB(fs, Options())
        wal = fs.stats.per_category[CAT_WAL]
        appends = wal.write_ops
        db.put(*kv(0))  # uncontended: a group of one
        assert wal.write_ops == appends + 1
        appends, records = wal.write_ops, db._wal.records_written
        batches = [one_put(1), one_put(2).delete(kv(0)[0]), one_put(3)]
        assert write_behind_held_lock(db, batches) == [None] * 3
        assert wal.write_ops == appends + 1
        assert db._wal.records_written == records + 3
        assert not db._write_queue.writers
        assert db.get(kv(0)[0]) is None
        for i in (1, 2, 3):
            assert db.get(kv(i)[0]) == kv(i)[1]
        log_name = db._wal.name
        db.close()
        # Queue order is thread-start order, so compare as a set of records.
        replayed = [
            [key for _type, key, _value in WriteBatch.deserialize(payload)[0]]
            for payload in read_wal(fs, log_name)
        ]
        assert replayed[0] == [kv(0)[0]]
        assert sorted(replayed[1:]) == sorted(
            [[kv(1)[0]], [kv(2)[0], kv(0)[0]], [kv(3)[0]]]
        )

    def test_wal_fault_under_a_group_reaches_every_member(self):
        """A WAL append that fails under a led group raises the same error
        in every member, always pops the queue, and degrades the DB — a
        later writer fails fast instead of hanging behind a dead leader."""
        fs = FaultInjectionFS(SimulatedFS(), FaultPolicy())
        db = DB(fs, tiny_options())
        db.put(*kv(0))
        fs.policy.fail("append", "*.log", kind=KIND_TRANSIENT, count=1)
        raised = write_behind_held_lock(db, [one_put(i) for i in (1, 2, 3)])
        assert isinstance(raised[0], TransientIOError)
        assert raised[1] is raised[0] and raised[2] is raised[0]
        assert not db._write_queue.writers
        assert db.health()["state"] == "degraded"
        with pytest.raises(ReadOnlyError):
            db.put(*kv(4))
        (queued_error,) = write_behind_held_lock(db, [one_put(5)])
        assert isinstance(queued_error, ReadOnlyError)
        assert db.get(kv(0)[0]) == kv(0)[1]
        assert db.get(kv(1)[0]) is None
        db.close()


class TestWriteQueue:
    """``WriteQueue`` alone, with a fake ``apply_group`` that records each
    group it is handed: who leads, who is adopted, and who sees a failure."""

    @staticmethod
    def queue_behind_held_lock(lock, queue, batches, apply_group) -> list:
        """Queue one writer thread per batch, in order, behind the held
        engine ``lock``; release it and join.  Returns what each raised."""
        raised: list = [None] * len(batches)

        def run(index: int) -> None:
            try:
                queue.commit(batches[index], apply_group)
            except BaseException as exc:  # noqa: BLE001 - handed to the test
                raised[index] = exc

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
        with lock:
            for count, thread in enumerate(threads, 1):
                thread.start()
                deadline = time.monotonic() + 30.0
                while len(queue.writers) < count:
                    assert time.monotonic() < deadline, "writer never queued"
                    time.sleep(0.001)
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert not queue.writers
        return raised

    @staticmethod
    def sized(nbytes: int) -> WriteBatch:
        return WriteBatch().put(b"k", b"x" * (nbytes - 1))

    def test_a_lone_batch_is_a_group_of_one(self):
        lock = threading.RLock()
        queue = WriteQueue(lock, NULL_TRACER)
        groups = []
        batch = one_put(0)
        queue.commit(batch, groups.append)
        assert groups == [[batch]]
        assert not queue.writers

    def test_leader_adopts_followers_up_to_the_cap_and_no_further(self):
        lock = threading.RLock()
        queue = WriteQueue(lock, NULL_TRACER)
        quarter = GROUP_COMMIT_MAX_BYTES // 4
        # The first four sum to exactly the cap; the fifth is one byte over.
        batches = [self.sized(quarter) for _ in range(4)] + [self.sized(1), self.sized(1)]
        groups = []
        assert self.queue_behind_held_lock(lock, queue, batches, groups.append) == [None] * 6
        assert groups == [batches[:4], batches[4:]]

    def test_one_failure_reaches_every_member_of_its_group(self):
        lock = threading.RLock()
        queue = WriteQueue(lock, NULL_TRACER)
        half = GROUP_COMMIT_MAX_BYTES // 2
        batches = [self.sized(half), self.sized(half), one_put(1)]
        groups = []
        failure = RuntimeError("apply failed")

        def apply_group(group):
            groups.append(group)
            if len(groups) == 1:
                raise failure

        raised = self.queue_behind_held_lock(lock, queue, batches, apply_group)
        assert groups == [batches[:2], batches[2:]]
        assert raised == [failure, failure, None]


class TestL0Throttling:
    def _wedge_compactions(self, db, monkeypatch):
        """Keep the worker from draining L0 so triggers stay exceeded."""
        monkeypatch.setattr(db.picker, "pick", lambda version: None)

    def test_slowdown_trigger_sleeps_and_counts(self, monkeypatch):
        monkeypatch.setattr(db_module, "LEVEL0_SLOWDOWN_SLEEP_S", 0.002)
        db = make_concurrent_db(
            level0_slowdown_writes_trigger=1,
            level0_stop_writes_trigger=100,
        )
        self._wedge_compactions(db, monkeypatch)
        db.put(*kv(0))
        db.flush()  # one L0 file >= slowdown trigger
        before = db.stats.stall_events
        db.put(*kv(1))
        assert db.stats.stall_events == before + 1
        assert db.stats.stall_stops == 0
        assert db.stats.stall_time_s >= 0.002
        assert db.get(kv(1)[0]) == kv(1)[1]  # write landed regardless
        db.close()

    def test_queued_sync_writes_count_slowdown_stalls(self, monkeypatch):
        """Synchronous mode never sleeps on L0 pressure, but every write at
        or past the slowdown trigger counts one stall event — a write a
        group leader commits for its follower as much as a direct one."""
        db = DB(SimulatedFS(), tiny_options(level0_slowdown_writes_trigger=1))
        self._wedge_compactions(db, monkeypatch)
        db.put(*kv(0))
        db.flush()  # one L0 file >= slowdown trigger
        before = db.stats.stall_events
        db.put(*kv(1))  # direct
        assert db.stats.stall_events == before + 1
        raised = write_behind_held_lock(db, [one_put(i) for i in (2, 3, 4)])
        assert raised == [None] * 3
        assert db.stats.stall_events == before + 4
        assert db.stats.stall_stops == 0
        db.close()

    def test_stop_trigger_blocks_bounded_and_never_errors(self, monkeypatch):
        monkeypatch.setattr(db_module, "LEVEL0_STOP_MAX_WAIT_S", 0.2)
        db = make_concurrent_db(
            level0_slowdown_writes_trigger=1,
            level0_stop_writes_trigger=2,
        )
        self._wedge_compactions(db, monkeypatch)
        for i in range(2):
            db.put(*kv(i))
            db.flush()
        assert db.num_files_per_level()[0] >= 2
        before_stops = db.stats.stall_stops
        db.put(*kv(10))  # blocks until the bounded deadline, then proceeds
        assert db.stats.stall_stops == before_stops + 1
        assert db.stats.stall_time_s >= 0.2
        assert db.get(kv(10)[0]) == kv(10)[1]
        db.close()

    def test_stop_wait_releases_when_l0_drains(self):
        db = make_concurrent_db(
            level0_slowdown_writes_trigger=2,
            level0_stop_writes_trigger=4,
        )
        for i in range(1000):
            db.put(*kv(i))  # worker keeps up; no write may error
        db.wait_for_background(timeout=60)
        assert db.num_files_per_level()[0] < 4
        db.close()


class TestRealParallelCompaction:
    def test_selective_parallel_matches_sync_contents(self):
        def fill(db):
            for i in range(600):
                db.put(*kv(i))
            for i in range(0, 600, 3):
                key, _ = kv(i)
                db.put(key, key + b"=updated")
            db.compact_all()

        sync_db = make_db(COMPACTION_SELECTIVE)
        fill(sync_db)
        expected = sync_db.scan()
        sync_db.close()

        par_db = make_concurrent_db(COMPACTION_SELECTIVE)
        fill(par_db)
        par_db.wait_for_background(timeout=60)
        assert par_db.scan() == expected
        par_db.close()


class TestBatchedMultiGet:
    def test_matches_per_key_get(self, any_style):
        db = make_db(any_style)
        for i in range(300):
            db.put(*kv(i))
        for i in range(0, 300, 7):
            db.delete(kv(i)[0])
        db.compact_all()
        for i in range(300, 330):
            db.put(*kv(i))  # some keys still in the memtable

        keys = [kv(i)[0] for i in range(0, 340, 3)] + [b"absent", kv(7)[0]]
        result = db.multi_get(keys)
        assert set(result) == set(keys)
        for key in keys:
            assert result[key] == db.get(key), key
        db.close()

    def test_stats_match_per_key_get(self):
        def fill(db):
            for i in range(200):
                db.put(*kv(i))
            db.compact_all()

        keys = [kv(i)[0] for i in range(0, 220, 2)]

        batched = make_db()
        fill(batched)
        batched.multi_get(keys)
        batched_stats = (batched.stats.gets, batched.stats.gets_found)
        batched.close()

        naive = make_db()
        fill(naive)
        for key in keys:
            naive.get(key)
        assert (naive.stats.gets, naive.stats.gets_found) == batched_stats
        naive.close()

    def test_respects_snapshot(self, db):
        db.put(b"k", b"old")
        snap = db.snapshot()
        db.put(b"k", b"new")
        assert db.multi_get([b"k"], snapshot=snap) == {b"k": b"old"}
        assert db.multi_get([b"k"]) == {b"k": b"new"}
        db.release_snapshot(snap)

    def test_rejects_non_bytes(self, db):
        with pytest.raises(Exception):
            db.multi_get(["not-bytes"])


class TestStress:
    def test_writers_readers_and_background_compaction(self, tmp_path):
        """N writers + M readers against a real-file store with background
        compaction: no write may error, every acknowledged write must be
        readable, and the final catalog must verify."""
        db = make_concurrent_db(
            COMPACTION_SELECTIVE, fs=LocalFS(str(tmp_path / "db"))
        )
        num_writers, num_readers, per_writer = 3, 2, 250
        stop = threading.Event()
        errors = []

        def writer(tid):
            try:
                for i in range(per_writer):
                    key = f"w{tid}-{i:05d}".encode()
                    db.put(key, key + b"=v" * 10)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def reader(tid):
            try:
                i = 0
                while not stop.is_set():
                    key = f"w{tid % num_writers}-{i % per_writer:05d}".encode()
                    value = db.get(key)
                    if value is not None:
                        assert value == key + b"=v" * 10
                    if i % 50 == 0:
                        db.scan(limit=20)
                    i += 1
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        writers = [
            threading.Thread(target=writer, args=(t,)) for t in range(num_writers)
        ]
        readers = [
            threading.Thread(target=reader, args=(t,)) for t in range(num_readers)
        ]
        for t in writers + readers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert errors == []
        assert db.wait_for_background(timeout=120)

        for tid in range(num_writers):
            for i in range(per_writer):
                key = f"w{tid}-{i:05d}".encode()
                assert db.get(key) == key + b"=v" * 10
        db._verify_catalog()
        db.close()
