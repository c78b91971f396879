"""Superversion lifecycle and read-path tests (DESIGN.md §9):
refcount hygiene across flush/compaction churn, deferred table-file
deletion until the last in-flight reader drops its reference, lock-free
get / multi_get and the races of their pin (an install or a close inside
the acquire window, a retire racing the last unpin), trace spans, the tracing-off determinism contract, and a stress
run racing reader threads against the background worker."""

from __future__ import annotations

import hashlib
import threading
import time

import pytest

from repro.errors import DBClosedError
from repro.obs.trace import Tracer
from repro.options import COMPACTION_SELECTIVE
from repro.storage.fs import SimulatedFS
from repro.ycsb.runner import load_db, run_workload
from repro.ycsb.workloads import WorkloadSpec

from conftest import kv, make_db, tiny_options


def sharded_db(fs=None, **overrides):
    """Tiny-geometry DB with 16-way sharded block/table caches."""
    overrides.setdefault("cache_shards", 16)
    return make_db(fs=fs or SimulatedFS(), **overrides)


# ------------------------------------------------------------ lifecycle


class TestSuperversionLifecycle:
    def test_refcount_returns_to_install_ref_after_churn(self):
        db = sharded_db()
        try:
            first_number = db._superversion.number
            for i in range(400):
                key, value = kv(i)
                db.put(key, value)
            for i in range(0, 400, 7):
                key, value = kv(i)
                assert db.get(key) == value
            db.compact_all()
            sv = db._superversion
            # Quiescent: only the install reference remains, and flush /
            # compaction commits kept swapping in new generations.
            assert sv.refs == 1
            assert sv.number > first_number
            assert db.deletion_manager.active_pins == 0
        finally:
            db.close()

    def test_results_match_dict_oracle(self):
        """Both traversals (single-key and batched) return exactly what a
        plain dict holds after the same puts, deletes and flush."""
        db = sharded_db()
        oracle: dict[bytes, bytes] = {}
        try:
            for i in range(300):
                key, value = kv(i)
                db.put(key, value)
                oracle[key] = value
            for i in range(0, 300, 3):
                db.delete(kv(i)[0])
                del oracle[kv(i)[0]]
            db.flush()
            keys = [kv(i)[0] for i in range(320)]
            assert [db.get(k) for k in keys] == [oracle.get(k) for k in keys]
            assert db.multi_get(keys) == {k: oracle.get(k) for k in keys}
        finally:
            db.close()

    def test_deferred_deletion_until_last_reader_unrefs(self):
        """Files retired by a compaction stay on disk while a superversion
        that can still read them is referenced; the last unref deletes."""
        fs = SimulatedFS()
        db = sharded_db(fs=fs)
        try:
            for i in range(300):
                key, value = kv(i)
                db.put(key, value)
            db.flush()
            old_files = [
                meta.file_name()
                for _level, meta in db.version.all_files()
            ]
            assert old_files
            # Simulate an in-flight reader: ref the current superversion
            # and pin one of its table readers, as a lookup would.
            with db._lock:
                sv = db._superversion.ref()
            meta = db.version.all_files()[0][1]
            sv.reader_for(meta, db.table_cache)
            db.compact_all()  # retires every pre-compaction file
            assert all(fs.exists(name) for name in old_files), (
                "retired files must survive while a reader holds the superversion"
            )
            sv.unref()
            assert all(not fs.exists(name) for name in old_files), (
                "last unref must release the deferred deletions"
            )
            assert db.deletion_manager.active_pins == 0
        finally:
            db.close()

    def test_iterator_pins_sequence_and_files(self):
        """An iterator reads its snapshot even when updates and a
        full compaction land mid-scan: its sequence is pinned in the
        snapshot registry, so merging keeps the versions it needs."""
        db = sharded_db()
        try:
            for i in range(100):
                db.put(kv(i)[0], b"old-" + bytes(str(i), "ascii"))
            it = db.iterator()
            assert db.snapshot_boundaries()  # sequence pinned while open
            for i in range(100):
                db.put(kv(i)[0], b"new-" + bytes(str(i), "ascii"))
            db.compact_all()
            rows = dict(it)
            it.close()
            assert len(rows) == 100
            assert all(v.startswith(b"old-") for v in rows.values())
            assert db.snapshot_boundaries() == []
            assert db.deletion_manager.active_pins == 0
            assert db._superversion.refs == 1
        finally:
            db.close()

    def test_close_with_inflight_reference_does_not_raise(self):
        db = sharded_db()
        for i in range(50):
            key, value = kv(i)
            db.put(key, value)
        with db._lock:
            sv = db._superversion.ref()
        db.close()
        sv.unref()  # drain after close: must skip the deletion unpin
        assert sv.refs == 0


# ------------------------------------------------------------ multi_get locking


class _CountingLock:
    """Wraps the engine RLock, counting acquisitions (reentrant ones too)."""

    def __init__(self, inner):
        self._inner = inner
        self.acquisitions = 0

    def acquire(self, *args, **kwargs):
        acquired = self._inner.acquire(*args, **kwargs)
        if acquired:
            self.acquisitions += 1
        return acquired

    def release(self):
        self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False


def test_get_and_multi_get_take_no_engine_lock():
    """A point read pins its superversion, counts itself and returns
    without touching the engine lock (no seek charge accrues here: the
    keys sit in one L0 file)."""
    db = make_db()
    try:
        for i in range(200):
            key, value = kv(i)
            db.put(key, value)
        db.flush()
        keys = [kv(i)[0] for i in range(0, 200, 5)]
        shim = _CountingLock(db._lock)
        db._lock = shim
        result = db.multi_get(keys)
        value = db.get(kv(10)[0])
        db._lock = shim._inner
        assert shim.acquisitions == 0
        assert all(result[kv(i)[0]] == kv(i)[1] for i in range(0, 200, 5))
        assert value == kv(10)[1]
        assert db.stats.gets == len(keys) + 1
    finally:
        db.close()


# ------------------------------------------------------------ lock-free pins


def test_get_completes_while_another_thread_holds_the_engine_lock():
    db = sharded_db()
    held, done = threading.Event(), threading.Event()

    def hold() -> None:
        with db._lock:
            held.set()
            done.wait(10.0)

    try:
        for i in range(5):
            key, value = kv(i)
            db.put(key, value)
        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(10.0)
        results = []
        reader = threading.Thread(
            target=lambda: results.append((db.get(kv(3)[0]), db.multi_get([kv(4)[0]])))
        )
        try:
            reader.start()
            reader.join(10.0)
            assert not reader.is_alive(), "a get waited for the engine lock"
        finally:
            done.set()
            holder.join()
            reader.join()
        assert results == [(kv(3)[1], {kv(4)[0]: kv(4)[1]})]
    finally:
        db.close()


class _InterposingPins(list):
    """A superversion's pin list that runs ``interpose`` once, at the first
    append (or pop), just before or just after the list operation: the
    window a racing thread's install or close would land in."""

    def __init__(self, items, interpose, *, after: bool, on_pop: bool = False):
        super().__init__(items)
        self.interpose = interpose
        self.after = after
        self.on_pop = on_pop

    def _step(self, op, *args):
        interpose, self.interpose = self.interpose, None
        if interpose is not None and not self.after:
            interpose()
        result = op(*args)
        if interpose is not None and self.after:
            interpose()
        return result

    def append(self, item):
        if self.on_pop:
            return super().append(item)
        return self._step(super().append, item)

    def pop(self, *index):
        if not self.on_pop:
            return super().pop(*index)
        return self._step(super().pop, *index)


def _count_drains(sv) -> list[bool]:
    """Record every drain attempt on ``sv`` (True: it drained)."""
    attempts: list[bool] = []
    drain = sv._drain

    def counted() -> bool:
        attempts.append(drain())
        return attempts[-1]

    sv._drain = counted
    return attempts


class TestLockFreePin:
    @pytest.mark.parametrize("after_pin", [False, True], ids=["before-pin", "after-pin"])
    @pytest.mark.parametrize("batched", [False, True], ids=["get", "multi_get"])
    def test_install_inside_the_acquire_window_makes_the_reader_retry(self, after_pin, batched):
        """A flush (memtable rotation + install) and a newer write land
        between the reader's pointer load and its re-check.  The sequence
        it read covers the newer write, which only the new superversion
        holds: without the re-check it would answer from the old one."""
        db = make_db()
        key = kv(1)[0]
        try:
            db.put(key, b"old")
            sv = db._superversion

            def install() -> None:
                db.flush()
                db.put(key, b"new")

            sv.pins = _InterposingPins(sv.pins, install, after=after_pin)
            drains = _count_drains(sv)
            got = db.multi_get([key])[key] if batched else db.get(key)
            assert got == b"new"
            assert sv.refs == 0 and drains.count(True) == 1
            assert db._superversion.refs == 1
            assert db.deletion_manager.active_pins == 0
        finally:
            db.close()

    @pytest.mark.parametrize("after_pop", [False, True], ids=["before-pop", "after-pop"])
    def test_last_unpin_racing_retire_drains_once(self, after_pop):
        """The retire lands just before or just after the last reader's
        unpin: exactly one of the two drains, and the deletion-manager pin
        the retire may take is released."""
        db = make_db()
        try:
            for i in range(50):
                key, value = kv(i)
                db.put(key, value)
            db.flush()
            sv, sequence = db._acquire_read()
            assert sv.lookup(kv(7)[0], sequence)[0] == kv(7)[1]
            assert sv.readers  # the probe pinned a table reader
            readers = list(sv.readers.values())
            pins_at_retire = []

            def retire() -> None:
                db.flush()
                pins_at_retire.append(db.deletion_manager.active_pins)

            sv.pins = _InterposingPins(sv.pins, retire, after=after_pop, on_pop=True)
            db.put(kv(60)[0], kv(60)[1])  # something for the flush to rotate
            drains = _count_drains(sv)
            sv.unref()
            # Before the pop the retire sees a reader and pins deletion for
            # it; after the pop it drains the superversion itself.
            assert pins_at_retire == [0 if after_pop else 1]
            assert drains.count(True) == 1
            assert sv.refs == 0 and sv.readers == {}
            assert all(reader._refs == 0 for reader in readers)
            assert db.deletion_manager.active_pins == 0
            with pytest.raises(IndexError):
                sv.unref()
        finally:
            db.close()

    @pytest.mark.parametrize("after_pin", [False, True], ids=["before-pin", "after-pin"])
    def test_close_racing_a_reader_raises_closed_without_a_double_drain(self, after_pin):
        db = make_db()
        db.put(kv(1)[0], kv(1)[1])
        sv = db._superversion
        sv.pins = _InterposingPins(sv.pins, db.close, after=after_pin)
        drains = _count_drains(sv)
        with pytest.raises(DBClosedError):
            db.get(kv(1)[0])
        assert drains.count(True) == 1
        assert sv.refs == 0


def test_shard_wait_span_records_contention():
    from repro.cache.lru import ShardedLRUCache

    tracer = Tracer(capacity=256)
    cache = ShardedLRUCache(1024, shards=4, tracer=tracer)
    cache.insert("k", b"v", charge=1)
    shard = cache._shards[cache.shard_index("k")]

    def hold_then_release():
        """Contend: hold the target shard's lock long enough for the main
        thread's probe to observe a failed non-blocking acquire."""
        with shard._lock:
            time.sleep(0.05)

    holder = threading.Thread(target=hold_then_release)
    holder.start()
    time.sleep(0.01)  # let the holder win the lock first
    assert cache.get("k") == b"v"
    holder.join()
    names = {event.name for event in tracer.events()}
    assert "cache.shard_wait" in names


def test_tracing_off_has_no_shard_wait_overhead_path():
    """With no tracer the sharded cache never probes lock contention."""
    from repro.cache.lru import ShardedLRUCache

    cache = ShardedLRUCache(1024, shards=4, tracer=None)
    cache.insert("k", b"v")
    assert cache.get("k") == b"v"


# ------------------------------------------------------------ determinism


UPDATE_HEAVY = WorkloadSpec(
    name="update-heavy", read_ratio=0.3, write_ratio=0.7, scan_ratio=0.0,
    write_mode="update", zipf=0.99,
)


def _run_fixed_workload(**options):
    """Deterministic load+update+compact sequence; returns simulated
    metrics and a digest of every file written (as in the PR 3 contract)."""
    fs = SimulatedFS()
    db = make_db(fs=fs, **options)
    try:
        load_db(db, 250, value_size=64)
        run_workload(db, UPDATE_HEAVY, 250, 250, value_size=64)
        db.compact_all()
        digest = hashlib.sha256()
        for name in fs.list_dir():
            size = fs.file_size(name)
            digest.update(name.encode())
            digest.update(fs._read(name, 0, size))
        io = db.io_stats
        return {
            "digest": digest.hexdigest(),
            "sim_time_s": io.sim_time_s,
            "bytes_written": io.bytes_written,
            "bytes_read": io.bytes_read,
            "write_amp": db.stats.write_amplification(),
            "flushes": db.stats.flush_count,
            "gets": db.stats.gets,
        }
    finally:
        db.close()


def test_tracing_toggle_bit_identical_with_sharded_caches():
    """Satellite contract: with sharded caches under the superversion
    reads, Options.tracing=False produces bit-identical stores and simulated
    metrics to tracing=True — instrumentation observes, never perturbs."""
    base = dict(cache_shards=16)
    off = _run_fixed_workload(tracing=False, **base)
    on = _run_fixed_workload(tracing=True, **base)
    assert off == on


def test_default_sync_mode_reads_through_a_live_superversion():
    """The default (synchronous, unsharded) engine reads through the same
    superversion path: after put/flush/compact churn only the install
    reference remains and nothing is left pinned."""
    db = make_db()
    try:
        first_number = db._superversion.number
        for i in range(400):
            key, value = kv(i)
            db.put(key, value)
        db.flush()
        assert all(db.get(kv(i)[0]) == kv(i)[1] for i in range(0, 400, 7))
        assert len(db.scan()) == 400
        db.compact_all()
        assert db._superversion.number > first_number
        assert db._superversion.refs == 1
        assert db.deletion_manager.active_pins == 0
        assert db.snapshot_boundaries() == []
        assert db.block_cache.num_shards == 1
        assert db.table_cache.num_shards == 1
    finally:
        db.close()


# ------------------------------------------------------------ stress


def test_stress_readers_race_the_background_lane():
    """Reader threads (gets + multi_gets + scans) race writers and the
    background flush/compaction worker; afterwards every acknowledged key
    is readable and no superversion references or pins leaked."""
    options = tiny_options(
        compaction_style=COMPACTION_SELECTIVE,
        memtable_size=2048,
    ).concurrent_pipeline()
    from repro.core.db import DB

    db = DB(SimulatedFS(), options)
    acked: dict[bytes, bytes] = {}
    acked_lock = threading.Lock()
    errors: list[BaseException] = []
    stop = threading.Event()

    def writer(tid: int) -> None:
        """Insert a disjoint key stripe, recording acknowledged writes."""
        try:
            for i in range(250):
                key = f"w{tid}-{i:05d}".encode()
                value = f"val-{tid}-{i}".encode()
                db.put(key, value)
                with acked_lock:
                    acked[key] = value
        except BaseException as exc:
            errors.append(exc)

    def reader() -> None:
        """Hammer the read path over the acked key set."""
        try:
            while not stop.is_set():
                with acked_lock:
                    items = list(acked.items())[-40:]
                if not items:
                    continue
                for key, value in items[:10]:
                    got = db.get(key)
                    assert got == value, (key, got, value)
                got = db.multi_get([k for k, _ in items])
                for key, value in items:
                    assert got[key] == value, (key, got[key], value)
        except BaseException as exc:
            errors.append(exc)

    writers = [threading.Thread(target=writer, args=(t,)) for t in range(2)]
    readers = [threading.Thread(target=reader) for _ in range(3)]
    try:
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert not errors, errors[0]
        db.wait_for_background()
        for key, value in acked.items():
            assert db.get(key) == value
        assert db._superversion.refs == 1
        assert db.deletion_manager.active_pins == 0
    finally:
        stop.set()
        db.close()


# ------------------------------------------------------------ bench smoke


def test_read_scaling_bench_quick_writes_report(tmp_path):
    """The read-scaling suite runs in quick mode through the perf runner
    and emits the report the CI job uploads."""
    import importlib.util
    import json
    from pathlib import Path

    runner_path = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "run.py"
    spec = importlib.util.spec_from_file_location("perf_run", runner_path)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    out = tmp_path / "BENCH_read_scaling.json"
    assert runner.main(["read_scaling", "--quick", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["arms"]) >= {
        "readers_1t", "readers_2t", "readers_4t", "readers_8t",
    }
    assert report["metrics"]["speedup_4t"] > 0
    cell = report["arms"]["readers_4t"]
    assert cell["tc_shards"] == 16
    assert len(cell["tc_shard_hits"]) == 16
    assert cell["busiest_tc_shard"].endswith("%")
