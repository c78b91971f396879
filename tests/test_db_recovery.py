"""Crash-recovery tests: WAL replay, manifest replay, reopen semantics.

SimulatedFS persists for the life of the Python object, so "crash" =
abandoning the DB object without close() and reopening over the same fs.
"""

import random

import pytest

from conftest import kv, make_db, tiny_options
from repro.core.db import DB
from repro.options import COMPACTION_SELECTIVE
from repro.storage.fs import SimulatedFS


def reopen(fs, style="table", **overrides) -> DB:
    return DB(fs, tiny_options(compaction_style=style, **overrides), seed=1)


class TestWalRecovery:
    def test_unflushed_writes_survive_crash(self, fs):
        db = make_db(fs=fs)
        db.put(b"k1", b"v1")
        db.put(b"k2", b"v2")
        db.delete(b"k1")
        # crash: no close()
        db2 = reopen(fs)
        assert db2.get(b"k1") is None
        assert db2.get(b"k2") == b"v2"
        db2.close()

    def test_sequence_continues_after_recovery(self, fs):
        db = make_db(fs=fs)
        db.put(b"k", b"old")
        seq = db.last_sequence
        db2 = reopen(fs)
        assert db2.last_sequence >= seq
        db2.put(b"k", b"new")
        assert db2.get(b"k") == b"new"
        db2.close()

    def test_torn_wal_tail_loses_only_last_write(self, fs):
        db = make_db(fs=fs)
        db.put(b"a", b"1")
        db.put(b"b", b"2")
        log_names = [n for n in fs.list_dir() if n.endswith(".log")]
        assert len(log_names) == 1
        fs.replace(log_names[0], fs.contents(log_names[0])[:-3])  # torn record
        db2 = reopen(fs)
        assert db2.get(b"a") == b"1"
        assert db2.get(b"b") is None
        db2.close()

    def test_crash_between_wal_rotation_and_flush_replays_both_logs(
        self, fs, monkeypatch
    ):
        """A crash after the WAL rotated but before the flush landed leaves
        two live logs; recovery must replay both — the frozen memtable's
        entries live only in the older one."""
        import repro.core.db as db_module

        db = make_db(fs=fs)
        db.put(b"frozen1", b"f1")
        db.put(b"frozen2", b"f2")

        real_flush = db_module.flush_memtable
        calls = {"n": 0}

        def flaky_flush(*args, **kwargs):
            """Fail the first flush build (post-freeze, post-rotation)."""
            if calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("injected crash during flush")
            return real_flush(*args, **kwargs)

        monkeypatch.setattr(db_module, "flush_memtable", flaky_flush)
        with pytest.raises(RuntimeError):
            db.flush()
        # The freeze and rotation happened: two live logs on disk.
        assert len([n for n in fs.list_dir() if n.endswith(".log")]) == 2
        # The hard failure left the DB read-only; the injected fault is
        # one-shot, so resume() and keep writing into the new log only.
        assert db.health()["state"] == "degraded"
        assert db.resume()
        db.put(b"fresh1", b"n1")
        db.delete(b"frozen2")

        db2 = reopen(fs)  # crash: no close()
        assert db2.get(b"frozen1") == b"f1"
        assert db2.get(b"frozen2") is None  # tombstone from the new log wins
        assert db2.get(b"fresh1") == b"n1"
        # No duplication: each surviving key appears exactly once in a scan.
        keys = [key for key, _value in db2.scan()]
        assert keys == sorted(set(keys))
        assert set(keys) == {b"frozen1", b"fresh1"}
        # Both stale logs were replayed and dropped (only the fresh one lives).
        assert len([n for n in fs.list_dir() if n.endswith(".log")]) == 1
        db2.close()

    def test_double_crash_after_recovery(self, fs):
        db = make_db(fs=fs)
        db.put(b"k1", b"v1")
        db2 = reopen(fs)  # recovery flushes WAL contents to L0
        db2.put(b"k2", b"v2")
        db3 = reopen(fs)  # crash again without close
        assert db3.get(b"k1") == b"v1"
        assert db3.get(b"k2") == b"v2"
        db3.close()


class TestManifestRecovery:
    def test_sstables_survive_reopen(self, fs):
        db = make_db(fs=fs)
        order = list(range(500))
        random.Random(9).shuffle(order)
        for i in order:
            db.put(*kv(i))
        db.flush()  # empty the WAL so recovery adds no new L0 file
        files_before = db.num_files_per_level()
        db.close()
        db2 = reopen(fs)
        assert db2.num_files_per_level() == files_before
        for i in range(500):
            assert db2.get(kv(i)[0]) == kv(i)[1]
        db2.close()

    def test_block_compacted_tables_survive_reopen(self, fs):
        """In-place appended SSTables (Block Compaction) must recover with
        their latest footer/index/metadata."""
        db = make_db(COMPACTION_SELECTIVE, fs=fs)
        order = list(range(800))
        random.Random(13).shuffle(order)
        for i in order:
            db.put(*kv(i))
        appended = [m for _l, m in db.version.all_files() if m.append_count > 0]
        assert appended, "test needs at least one appended table"
        db.close()
        db2 = reopen(fs, style=COMPACTION_SELECTIVE)
        recovered = {m.file_number: m for _l, m in db2.version.all_files()}
        for meta in appended:
            assert recovered[meta.file_number].append_count == meta.append_count
            assert recovered[meta.file_number].valid_bytes == meta.valid_bytes
        for i in range(800):
            assert db2.get(kv(i)[0]) == kv(i)[1]
        db2.close()

    def test_mixed_wal_and_sstables(self, fs):
        db = make_db(fs=fs)
        for i in range(300):
            db.put(*kv(i))
        db.put(b"zz-fresh", b"in-wal-only")
        db2 = reopen(fs)
        assert db2.get(b"zz-fresh") == b"in-wal-only"
        assert db2.get(kv(123)[0]) == kv(123)[1]
        db2.close()

    def test_compact_pointer_survives(self, fs):
        db = make_db(fs=fs)
        order = list(range(600))
        random.Random(21).shuffle(order)
        for i in order:
            db.put(*kv(i))
        pointers = list(db.picker.compact_pointer)
        db.close()
        db2 = reopen(fs)
        assert db2.picker.compact_pointer == pointers
        db2.close()

    def test_scans_after_recovery(self, fs):
        db = make_db(fs=fs)
        for i in range(100):
            db.put(*kv(i))
        db.delete(kv(50)[0])
        db.close()
        db2 = reopen(fs)
        rows = db2.scan(kv(45)[0], kv(55)[0])
        assert [k for k, _ in rows] == [kv(i)[0] for i in range(45, 55) if i != 50]
        db2.close()

    def test_fresh_directory_starts_empty(self):
        db = reopen(SimulatedFS())
        assert db.scan() == []
        assert db.num_files_per_level() == [0] * db.version.num_levels
        db.close()

    def test_obsolete_files_not_resurrected(self, fs):
        db = make_db(fs=fs)
        order = list(range(500))
        random.Random(4).shuffle(order)
        for i in order:
            db.put(*kv(i))
        db.flush()
        db.close()
        live = {m.file_name() for _l, m in db.version.all_files()}
        db2 = reopen(fs)
        recovered = {m.file_name() for _l, m in db2.version.all_files()}
        assert recovered == live
        db2.close()
