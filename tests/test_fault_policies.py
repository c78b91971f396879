"""Fault-injection policy tests: the op x severity matrix against both
engine modes, no-fault bit-identity, torn writes, bit-flips, crash/heal
durability semantics, and the bg_error propagation race regression
(DESIGN.md §10)."""

import threading

import pytest

from conftest import kv, tiny_options
from repro.core.db import DB
from repro.errors import (
    FileSystemError,
    ReadOnlyError,
    SimulatedCrashError,
    TransientIOError,
)
from repro.storage.faults import (
    KIND_PERMANENT,
    KIND_TRANSIENT,
    FaultInjectionFS,
    FaultPolicy,
    FaultRule,
)
from repro.storage.fs import SimulatedFS


def fault_fs(policy: FaultPolicy | None = None) -> FaultInjectionFS:
    return FaultInjectionFS(SimulatedFS(), policy or FaultPolicy())


def open_db(fs, concurrent: bool = False, **overrides) -> DB:
    options = tiny_options(**overrides)
    if concurrent:
        options = options.concurrent_pipeline()
    return DB(fs, options, seed=1)


class TestPolicyMechanics:
    def test_after_and_count(self):
        fs = fault_fs()
        fs.policy.fail("append", "victim", after=2, count=1)
        f = fs.create_file("victim")
        f.append(b"one")
        f.append(b"two")
        with pytest.raises(TransientIOError):
            f.append(b"three")
        f.append(b"four")  # the counted rule has cleared
        f.close()
        assert fs.file_size("victim") == len(b"onetwofour")

    def test_permanent_kind_raises_filesystem_error(self):
        fs = fault_fs()
        fs.policy.fail("create", "*.sst", kind=KIND_PERMANENT)
        with pytest.raises(FileSystemError) as excinfo:
            fs.create_file("000001.sst")
        assert not isinstance(excinfo.value, TransientIOError)
        fs.create_file("other.log").close()  # pattern does not match

    def test_probability_is_seed_deterministic(self):
        def fire_pattern(seed):
            fs = fault_fs(FaultPolicy(seed=seed))
            fs.policy.fail("append", "*", probability=0.5)
            f = fs.create_file("f")
            fired = []
            for i in range(30):
                try:
                    f.append(b"x")
                    fired.append(False)
                except TransientIOError:
                    fired.append(True)
            return fired

        assert fire_pattern(7) == fire_pattern(7)
        assert fire_pattern(7) != fire_pattern(8)

    def test_torn_append_persists_a_strict_prefix(self):
        fs = fault_fs()
        fs.policy.fail("append", "f", torn=True, count=1)
        f = fs.create_file("f")
        with pytest.raises(TransientIOError):
            f.append(b"0123456789" * 10)
        torn_size = fs.file_size("f")
        assert 0 <= torn_size < 100
        if torn_size:
            assert fs.inner._read("f", 0, torn_size) == (b"0123456789" * 10)[:torn_size]
        f.append(b"after")  # rule cleared; the handle still works
        f.close()

    def test_bitflip_read_corrupts_exactly_one_bit(self):
        fs = fault_fs()
        payload = b"\x00" * 64
        f = fs.create_file("f")
        f.append(payload)
        f.close()
        fs.policy.fail("read", "f", bitflip=True, count=1)
        handle = fs.open_random("f")
        flipped = handle.read(0, 64, category="get")
        clean = handle.read(0, 64, category="get")
        handle.close()
        assert clean == payload
        assert flipped != payload
        assert sum(bin(b).count("1") for b in flipped) == 1

    def test_crash_drops_unsynced_bytes_exactly(self):
        fs = fault_fs(FaultPolicy(torn_writes=False))
        f = fs.create_file("f")
        f.append(b"durable")
        f.sync()
        f.append(b"lost")
        fs.crash()
        with pytest.raises(SimulatedCrashError):
            fs.file_size("f")
        fs.heal()
        assert fs.inner._read("f", 0, fs.file_size("f")) == b"durable"

    def test_never_synced_file_vanishes_on_crash(self):
        fs = fault_fs(FaultPolicy(torn_writes=False))
        fs.create_file("ghost").append(b"bytes")
        fs.crash()
        fs.heal()
        assert not fs.exists("ghost")

    def test_rename_carries_durability(self):
        fs = fault_fs(FaultPolicy(torn_writes=False))
        f = fs.create_file("tmp")
        f.append(b"manifest-pointer")
        f.sync()
        f.close()
        fs.rename("tmp", "CURRENT")
        fs.crash()
        fs.heal()
        assert fs.inner._read("CURRENT", 0, fs.file_size("CURRENT")) == b"manifest-pointer"

    def test_unsynced_rename_over_destination_loses_it(self):
        """The set_current bug class: renaming a never-synced temp file over
        a durable destination leaves nothing durable there."""
        fs = fault_fs(FaultPolicy(torn_writes=False))
        old = fs.create_file("CURRENT")
        old.append(b"old")
        old.sync()
        old.close()
        fs.create_file("tmp").append(b"new")  # never synced
        fs.rename("tmp", "CURRENT")
        fs.crash()
        fs.heal()
        assert not fs.exists("CURRENT") or fs.file_size("CURRENT") == 0

    def test_crash_at_sync_counts_barriers(self):
        fs = fault_fs(FaultPolicy(crash_at_sync=1))
        a = fs.create_file("a")
        a.append(b"1")
        a.sync()  # barrier 0 lands
        a.append(b"2")
        with pytest.raises(SimulatedCrashError):
            a.sync()  # barrier 1 is the crash point: it never lands
        assert fs.crashed
        fs.policy.torn_writes = False
        fs.heal()
        assert fs.inner._read("a", 0, fs.file_size("a")) == b"1"


class TestNoFaultBitIdentical:
    def _workload(self, fs) -> tuple[str, tuple]:
        db = open_db(fs)
        for i in range(120):
            db.put(*kv(i))
        for i in range(0, 120, 5):
            db.delete(kv(i)[0])
        db.flush()
        db.compact_all()
        for i in range(120):
            db.get(kv(i)[0])
        db.scan(limit=30)
        db.close()
        stats = fs.stats
        return fs.digest(), (
            stats.bytes_written,
            stats.bytes_read,
            stats.write_ops,
            stats.read_ops,
            stats.files_created,
            stats.files_deleted,
            stats.syncs,
            round(stats.sim_time_s, 12),
        )

    def test_empty_policy_is_bit_identical_to_inner_fs(self):
        """With no rules armed the wrapper must not perturb a single byte
        or a single accounting counter."""
        plain_digest, plain_stats = self._workload(SimulatedFS())
        wrapped_digest, wrapped_stats = self._workload(fault_fs())
        assert wrapped_digest == plain_digest
        assert wrapped_stats == plain_stats


@pytest.mark.parametrize("concurrent", [False, True], ids=["sync", "concurrent"])
@pytest.mark.parametrize("op", ["create", "append", "sync"])
class TestEngineFaultMatrix:
    """Each background-write op type, transient and permanent, against both
    engine modes."""

    def _fill(self, db, n=200):
        for i in range(n):
            db.put(*kv(i))

    def test_transient_fault_is_retried_and_absorbed(self, op, concurrent):
        fs = fault_fs()
        fs.policy.fail(op, "*.sst", kind=KIND_TRANSIENT, count=1)
        db = open_db(fs, concurrent=concurrent)
        self._fill(db)
        db.flush()
        if concurrent:
            assert db.wait_for_background(timeout=60)
        assert db.stats.bg_retries >= 1
        assert db.stats.bg_resumes >= 1
        assert db.health()["state"] == "ok"
        for i in range(200):
            assert db.get(kv(i)[0]) == kv(i)[1], i
        db.close()

    def test_permanent_fault_degrades_but_serves_reads(self, op, concurrent):
        fs = fault_fs()
        rule = FaultRule(op=op, pattern="*.sst", kind=KIND_PERMANENT)
        db = open_db(fs, concurrent=concurrent)
        db.put(b"acked", b"before-fault")
        fs.policy.rules.append(rule)
        with pytest.raises((FileSystemError, ReadOnlyError)):
            self._fill(db)
            db.flush()
            if concurrent:
                # the background failure lands asynchronously; the next
                # rejected write surfaces it
                for i in range(2000):
                    db.put(*kv(i))
        assert db.health()["state"] == "degraded"
        assert not db.health()["writable"]
        with pytest.raises(ReadOnlyError):
            db.put(b"rejected", b"x")
        # Reads keep serving every acknowledged write.
        assert db.get(b"acked") == b"before-fault"
        assert db.stats.degraded_entries >= 1
        db.close()

    def test_resume_after_fault_clears(self, op, concurrent):
        fs = fault_fs()
        fs.policy.fail(op, "*.sst", kind=KIND_PERMANENT)
        db = open_db(fs, concurrent=concurrent)
        with pytest.raises((FileSystemError, ReadOnlyError)):
            self._fill(db)
            db.flush()
            if concurrent:
                for i in range(2000):
                    db.put(*kv(i))
        assert db.health()["state"] == "degraded"
        fs.policy.clear()  # the operator fixed the fault...
        assert db.resume()  # ...and manually resumed
        assert db.health()["state"] == "ok"
        db.put(b"post-resume", b"works")
        db.flush()
        if concurrent:
            assert db.wait_for_background(timeout=60)
        assert db.get(b"post-resume") == b"works"
        db.close()


class TestRetriesExhausted:
    def test_persistent_transient_fault_degrades_after_max_retries(self):
        """A transient fault that never clears exhausts the retry budget
        and lands in degraded mode (not an infinite retry loop)."""
        fs = fault_fs()
        fs.policy.fail("create", "*.sst", kind=KIND_TRANSIENT)  # never clears
        db = open_db(fs)
        db._error_handler.max_retries = 3
        with pytest.raises(TransientIOError):
            for i in range(200):
                db.put(*kv(i))
            db.flush()
        assert db.health()["state"] == "degraded"
        assert db.stats.bg_retries == 3
        assert db.stats.bg_failures == 4  # 1 original + 3 retries
        db.close()


class TestWalFaults:
    def test_any_wal_append_failure_degrades_even_transient(self):
        """A torn WAL frame makes everything after it unrecoverable, so the
        engine must never retry-append past one: even a transient WAL fault
        lands in degraded mode."""
        fs = fault_fs()
        db = open_db(fs)
        db.put(b"k1", b"v1")
        fs.policy.fail("append", "*.log", kind=KIND_TRANSIENT, count=1)
        with pytest.raises(TransientIOError):
            db.put(b"k2", b"v2")
        assert db.health()["state"] == "degraded"
        assert db.stats.bg_retries == 0  # degrade, not retry
        assert db.get(b"k1") == b"v1"
        db.close()

    def test_torn_wal_append_recovers_to_last_whole_record(self):
        fs = fault_fs()
        db = open_db(fs)
        db.put(b"k1", b"v1")
        fs.policy.fail("append", "*.log", kind=KIND_TRANSIENT, count=1, torn=True)
        with pytest.raises(TransientIOError):
            db.put(b"k2", b"v2")
        # Reopen over the same files: replay stops at the torn frame.
        db2 = open_db(fs.inner)
        assert db2.get(b"k1") == b"v1"
        assert db2.get(b"k2") is None
        recovery = db2.health()["wal_recovery"]
        # A torn tail is either skipped as an incomplete frame (clean
        # truncation) or as a CRC failure; either way k1's record replayed.
        assert recovery["records"] >= 1
        db2.close()


class TestBgErrorRace:
    def test_no_write_accepted_after_degradation(self):
        """Regression for the bg_error propagation race: once the severity
        engine has degraded the DB, the write path must observe it *under
        the engine lock* — concurrent writers may only see ReadOnlyError
        (never the raw background exception) and every write acknowledged
        before the cut must remain readable."""
        fs = fault_fs()
        fs.policy.fail("create", "*.sst", kind=KIND_PERMANENT)
        db = open_db(fs, concurrent=True)
        acked: list[int] = []
        unexpected: list[BaseException] = []

        def writer(tid):
            for i in range(400):
                key = f"t{tid}-{i:04d}".encode()
                try:
                    db.put(key, key + b"=v")
                except ReadOnlyError:
                    return
                except BaseException as exc:  # noqa: BLE001
                    unexpected.append(exc)
                    return
                acked.append((tid, i))

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert unexpected == []
        assert db.health()["state"] == "degraded"
        with pytest.raises(ReadOnlyError):
            db.put(b"late", b"x")
        for tid, i in acked:
            key = f"t{tid}-{i:04d}".encode()
            assert db.get(key) == key + b"=v", key
        db.close()


class TestTracerVisibility:
    def test_retry_and_resume_emit_tracer_instants(self):
        fs = fault_fs()
        fs.policy.fail("create", "*.sst", kind=KIND_TRANSIENT, count=1)
        db = open_db(fs, tracing=True)
        for i in range(200):
            db.put(*kv(i))
        db.flush()
        names = [event.name for event in db.tracer.events()]
        assert "error.retry" in names
        assert "error.resume" in names
        assert "error.degraded" not in names
        db.close()

    def test_degradation_emits_tracer_instant(self):
        fs = fault_fs()
        fs.policy.fail("create", "*.sst", kind=KIND_PERMANENT)
        db = open_db(fs, tracing=True)
        with pytest.raises((FileSystemError, ReadOnlyError)):
            for i in range(200):
                db.put(*kv(i))
            db.flush()
        names = [event.name for event in db.tracer.events()]
        assert "error.degraded" in names
        db.close()
