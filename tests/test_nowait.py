"""The engine's no-wait mode (DESIGN.md §9): ``wait=False`` on ``DB.get`` /
``multi_get`` / ``scan`` / ``write`` (``put`` / ``delete``).

The contract: a no-wait call never waits — not for the engine lock, not
for a throttle or a rollover, not for a device that really blocks, not for
background work run on its own thread — and when it declines (``WouldBlock``) it has changed nothing a re-run would
change again, so the same call with ``wait=True`` is the whole retry.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import DB, LocalFS, SimulatedFS, WouldBlock, WriteBatch
from repro.memtable.memtable import MemTable
from repro.storage.faults import FaultInjectionFS

from conftest import kv, tiny_options


def blocking_fs() -> SimulatedFS:
    """A filesystem whose I/O takes wall-clock time (a few 100 us an op)."""
    return SimulatedFS(realtime=1.0)


def write_state(db: DB) -> tuple:
    """Everything a declined write must leave alone."""
    wal = db.fs.file_size(f"{db._log_number:06d}.log")
    stats = db.stats
    return (
        wal,
        db.last_sequence,
        len(db._memtable),
        db._memtable.approximate_memory_usage(),
        stats.user_writes,
        stats.user_bytes_written,
    )


def read_state(db: DB) -> tuple:
    """Everything a declined read must leave alone."""
    io = db.io_stats
    seeks = tuple(meta.allowed_seeks for _level, meta in db.version.all_files())
    return (db.stats.gets, db.stats.seek_miss_charges, seeks,
            io.read_ops, io.bytes_read, io.sim_time_s)


class TestBlockingProperty:
    def test_simulated_fs_blocks_only_in_realtime_mode(self):
        fs = SimulatedFS()
        assert fs.blocking is False
        fs.realtime = 1.0  # the scaling benchmarks flip it mid-run
        assert fs.blocking is True

    def test_local_fs_always_blocks(self, tmp_path):
        assert LocalFS(str(tmp_path)).blocking is True

    def test_fault_injection_fs_answers_for_its_inner_fs(self, tmp_path):
        assert FaultInjectionFS(SimulatedFS()).blocking is False
        assert FaultInjectionFS(blocking_fs()).blocking is True
        assert FaultInjectionFS(LocalFS(str(tmp_path))).blocking is True


class TestNoWaitReads:
    def test_every_read_declines_a_blocking_fs_up_front(self):
        """Where the device really blocks a read is not attempted at all —
        not even one the memtable or the block cache would answer — so it
        is served exactly as it was before the no-wait mode existed."""
        opts = tiny_options(latency_histograms=True, seek_compaction_min_seeks=1)
        db = DB(blocking_fs(), opts)
        for i in range(8):
            db.put(*kv(i))
        db.flush()
        key, value = kv(3)
        assert db.get(key) == value  # its block is cached now
        db.put(*kv(9))  # and this one sits in the memtable
        before = read_state(db)
        scans = db.stats.scans
        samples = {op: db.latency.histogram(op).count for op in ("get", "multi_get", "scan")}
        for call in (
            lambda: db.get(key, wait=False),
            lambda: db.get(kv(9)[0], wait=False),
            lambda: db.multi_get([key, kv(4)[0]], wait=False),
            lambda: db.scan(limit=10, wait=False),
        ):
            with pytest.raises(WouldBlock):
                call()
        assert read_state(db) == before and db.stats.scans == scans
        assert {op: db.latency.histogram(op).count for op in samples} == samples
        # The same calls, allowed to wait, answer.
        assert db.get(key) == value
        assert db.multi_get([key, b"absent"]) == {key: value, b"absent": None}
        assert db.scan(limit=2) == [kv(0), kv(1)]
        db.close()

    def test_reads_never_run_a_lane_less_engines_compaction(self):
        """Without a lane a read that exhausts a seek budget runs the
        compaction on its own thread.  A no-wait read or scan does not: it
        charges, leaves the candidate with the picker, and the next call
        that may wait runs it."""
        db = DB(
            SimulatedFS(),
            tiny_options(filter_policy="none"),
        )
        order = list(range(600))
        random.Random(5).shuffle(order)
        for i in order:
            db.put(*kv(i))

        def drain_budgets():
            for _level, meta in db.version.all_files():
                meta.allowed_seeks = 1

        written = db.stats.compaction_bytes_written
        drain_budgets()
        charges = db.stats.seek_miss_charges
        for i in range(0, 600, 7):
            db.get(kv(i)[0], wait=False)
        db.multi_get([kv(i)[0] for i in range(1, 600, 7)], wait=False)
        assert db.stats.seek_miss_charges > charges
        drain_budgets()
        assert db.scan(kv(100)[0], limit=30, wait=False) == [kv(i) for i in range(100, 130)]
        assert db.picker.seek_candidates
        assert db.stats.compaction_bytes_written == written
        assert db.stats.seek_triggered_compactions == 0
        # A waiting scan's close finds the candidates and runs them.
        db.scan(kv(100)[0], limit=3)
        assert db.stats.seek_triggered_compactions > 0
        assert not db.picker.seek_candidates
        assert db.get(kv(100)[0], wait=False) == kv(100)[1]
        db.close()

    def test_reads_decline_a_held_engine_lock(self):
        db = DB(SimulatedFS(), tiny_options())
        db.put(*kv(1))
        with _lock_held_elsewhere(db):
            for call in (
                lambda: db.get(kv(1)[0], wait=False),
                lambda: db.multi_get([kv(1)[0]], wait=False),
                lambda: db.scan(limit=5, wait=False),
            ):
                with pytest.raises(WouldBlock):
                    call()
        assert db.stats.gets == 0 and db.stats.scans == 0
        assert db.get(kv(1)[0], wait=False) == kv(1)[1]
        db.close()


class _lock_held_elsewhere:
    """Hold ``db``'s engine lock on another thread for the ``with`` body."""

    def __init__(self, db: DB):
        self._db = db
        self._held = threading.Event()
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._hold)

    def _hold(self) -> None:
        with self._db._lock:
            self._held.set()
            self._done.wait(10.0)

    def __enter__(self) -> None:
        self._thread.start()
        assert self._held.wait(10.0)

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()


class TestNoWaitWrites:
    def _declined(self, db: DB, *, lock_held: bool = False) -> None:
        """A no-wait put is declined with the write state untouched, and
        left nothing a get finds.  With ``lock_held`` (another thread holds
        the engine lock) the caller reads that back after the holder lets
        go: a waiting get would sit out the holder."""
        before = write_state(db)
        with pytest.raises(WouldBlock):
            db.put(b"declined", b"x" * 40, wait=False)
        batch = WriteBatch().put(b"declined", b"x" * 40).delete(b"other")
        with pytest.raises(WouldBlock):
            db.write(batch, wait=False)
        with pytest.raises(WouldBlock):
            db.delete(b"declined", wait=False)
        assert write_state(db) == before
        if not lock_held:
            assert db.get(b"declined") is None

    @staticmethod
    def _lock_is_free(db: DB) -> bool:
        """Whether another thread can take the engine lock right now."""
        got: list[bool] = []

        def probe() -> None:
            got.append(db._lock.acquire(False))
            if got[0]:
                db._lock.release()

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        return got[0]

    def test_declined_on_a_blocking_fs(self):
        db = DB(blocking_fs(), tiny_options())
        self._declined(db)
        db.put(b"declined", b"y")
        assert db.get(b"declined") == b"y"
        db.close()

    def test_declined_while_another_thread_holds_the_engine_lock(self):
        db = DB(SimulatedFS(), tiny_options())
        with _lock_held_elsewhere(db):
            self._declined(db, lock_held=True)
        assert db.get(b"declined") is None
        db.put(b"declined", b"y", wait=False)
        assert db.get(b"declined") == b"y"
        db.close()

    def test_declined_at_the_l0_slowdown_trigger(self):
        db = DB(SimulatedFS(), tiny_options().concurrent_pipeline())
        db.put(*kv(1))
        db.flush()
        db.wait_for_background()
        db.put(*kv(2), wait=False)  # one L0 file: nowhere near the trigger
        db.options.level0_slowdown_writes_trigger = len(db.version.files_at(0))
        self._declined(db)
        assert self._lock_is_free(db)  # each decline gave the try-lock back
        stalls = db.stats.stall_events
        db.put(b"declined", b"y")  # waits out the throttle sleep
        assert db.stats.stall_events == stalls + 1
        db.close()

    def test_declined_while_a_frozen_memtable_is_pending(self):
        db = DB(SimulatedFS(), tiny_options().concurrent_pipeline())
        with db._background_paused():
            i = 0
            while db._immutable is None:  # fill until the first freeze
                db.put(*kv(i), wait=False)  # a free rollover does not wait
                i += 1
            declined_at = None
            for j in range(i, i + 200):
                try:
                    db.put(*kv(j), wait=False)
                except WouldBlock:
                    declined_at = j
                    break
            assert declined_at is not None
            # Declined before the put that would have had to wait for the
            # flusher: the active memtable still has room for nothing more.
            assert (
                db._memtable.approximate_memory_usage() < db.options.memtable_size
            )
            self._declined(db)
        db.put(*kv(declined_at))  # lane running again: the wait is short
        db.wait_for_background()
        assert db.get(kv(declined_at)[0]) == kv(declined_at)[1]
        assert db.get(kv(0)[0]) == kv(0)[1]
        db.close()

    def test_declined_on_a_synchronous_rollover(self):
        db = DB(SimulatedFS(), tiny_options())
        i = 0
        while True:
            try:
                db.put(*kv(i), wait=False)
            except WouldBlock:
                break
            i += 1
            assert i < 200
        # Never rolled over inline on the no-wait path ...
        assert db.stats.flush_count == 0
        assert db._memtable.approximate_memory_usage() < db.options.memtable_size
        before = write_state(db)
        with pytest.raises(WouldBlock):
            db.put(*kv(i), wait=False)
        assert write_state(db) == before
        assert self._lock_is_free(db)
        # ... the waiting put does, and the next no-wait put has room again.
        db.put(*kv(i))
        assert db.stats.flush_count == 1
        db.put(*kv(i + 1), wait=False)
        db.close()


    def test_a_drifted_rollover_forecast_fails_loudly(self, monkeypatch):
        """The forecast that lets a no-wait write through and the rollover
        it must not reach are two pieces of code.  If they ever disagree
        the write does not quietly flush on the caller's thread."""
        db = DB(SimulatedFS(), tiny_options())
        monkeypatch.setattr(MemTable, "would_reach", lambda self, *args: False)
        with pytest.raises(AssertionError, match="rollover that waits"):
            for i in range(200):
                db.put(*kv(i), wait=False)
        assert db.stats.flush_count == 0
        assert self._lock_is_free(db)
        db.close()

    def test_separated_values_stay_inside_the_forecast(self):
        """With key-value separation the forecast is the value log's upper
        bound on the stored form: it may turn a put away early, never let
        one through to the inline flush."""
        opts = tiny_options(kv_separation=True, kv_separation_threshold=32)
        db = DB(SimulatedFS(), opts)
        declined = 0
        for i in range(300):
            key, value = kv(i)[0], b"v" * (100 if i % 2 else 10)
            try:
                db.put(key, value, wait=False)
            except WouldBlock:
                declined += 1
                db.put(key, value)
        assert 0 < db.stats.flush_count <= declined
        assert db.get(kv(7)[0]) == b"v" * 100 and db.get(kv(8)[0]) == b"v" * 10
        db.close()

    def test_wait_is_keyword_only(self):
        db = DB(SimulatedFS(), tiny_options())
        with pytest.raises(TypeError):
            db.write(WriteBatch().put(b"k", b"v"), False)
        db.close()


class TestNoWaitEqualsWait:
    @pytest.mark.parametrize("concurrent", [False, True])
    def test_same_answers_and_same_bytes_on_a_non_blocking_fs(self, concurrent):
        """On the default filesystem every op completes with ``wait=False``
        (a synchronous engine declines only the puts that roll over) and
        leaves the very store ``wait=True`` leaves."""

        def run(wait: bool):
            opts = tiny_options()
            if concurrent:
                opts = opts.concurrent_pipeline()
            db = DB(SimulatedFS(), opts)
            declined = 0

            def call(fn, *args):
                nonlocal declined
                if wait:
                    return fn(*args)
                try:
                    return fn(*args, wait=False)
                except WouldBlock:
                    declined += 1
                    return fn(*args)

            answers = []
            for i in range(300):
                call(db.put, *kv(i % 120))
                if i % 3 == 0:
                    answers.append(call(db.get, kv((i * 7) % 150)[0]))
                if i % 10 == 0:
                    keys = [kv((i + d) % 150)[0] for d in range(5)]
                    answers.append(call(db.multi_get, keys))
                    answers.append(call(db.scan, kv(i % 120)[0], None, 7))
                if i % 25 == 0:
                    call(db.delete, kv(i % 120)[0])
                    batch = WriteBatch().put(b"b-%d" % i, b"v").delete(kv(i % 60)[0])
                    call(db.write, batch)
                if concurrent:
                    db.wait_for_background()  # one interleaving on both runs
            digest = db.fs.digest()
            counters = (db.stats.gets, db.stats.scans, db.stats.user_writes,
                        db.stats.flush_count, db.last_sequence)
            db.close()
            return answers, digest, counters, declined

        waited = run(True)
        nowait = run(False)
        assert nowait[:3] == waited[:3]
        if concurrent:
            assert nowait[3] == 0  # a lane takes the rollover: nothing declined
        else:
            assert 0 < nowait[3] <= waited[2][3]  # at most one per flush
