"""DB facade: basic operations, batches, dict protocol, lifecycle."""

import pytest

from conftest import kv, make_db, tiny_options
from repro.core.db import DB
from repro.core.write_batch import WriteBatch
from repro.errors import DBClosedError, InvalidArgumentError, NotFoundError
from repro.memtable import memtable as memtable_module
from repro.storage.fs import SimulatedFS


class TestBasicOps:
    def test_put_get(self, db):
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"

    def test_get_missing_returns_default(self, db):
        assert db.get(b"missing") is None
        assert db.get(b"missing", b"dflt") == b"dflt"

    def test_overwrite(self, db):
        db.put(b"k", b"v1")
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"

    def test_delete(self, db):
        db.put(b"k", b"v")
        db.delete(b"k")
        assert db.get(b"k") is None

    def test_delete_missing_key_is_fine(self, db):
        db.delete(b"never-existed")
        assert db.get(b"never-existed") is None

    def test_put_after_delete(self, db):
        db.put(b"k", b"v1")
        db.delete(b"k")
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"

    def test_empty_value_is_valid(self, db):
        db.put(b"k", b"")
        assert db.get(b"k") == b""
        assert b"k" in db

    def test_non_bytes_key_rejected(self, db):
        with pytest.raises(InvalidArgumentError):
            db.get("string")
        with pytest.raises(InvalidArgumentError):
            db.put("string", b"v")

    def test_dict_protocol(self, db):
        db[b"k"] = b"v"
        assert db[b"k"] == b"v"
        assert b"k" in db
        del db[b"k"]
        assert b"k" not in db
        with pytest.raises(NotFoundError):
            db[b"k"]

    def test_user_counters(self, db):
        db.put(b"a", b"11")
        db.delete(b"a")
        assert db.stats.user_writes == 1
        assert db.stats.user_deletes == 1
        assert db.stats.user_bytes_written == 1 + 2 + 1
        db.get(b"a")
        assert db.stats.gets == 1


class TestWriteBatches:
    def test_batch_applies_atomically(self, db):
        batch = WriteBatch().put(b"a", b"1").put(b"b", b"2").delete(b"a")
        db.write(batch)
        assert db.get(b"a") is None
        assert db.get(b"b") == b"2"

    def test_empty_batch_noop(self, db):
        seq = db.last_sequence
        db.write(WriteBatch())
        assert db.last_sequence == seq

    def test_batch_sequence_ordering_within_batch(self, db):
        batch = WriteBatch().put(b"k", b"first").put(b"k", b"second")
        db.write(batch)
        assert db.get(b"k") == b"second"


class TestLifecycle:
    def test_closed_db_rejects_operations(self, fs):
        db = make_db(fs=fs)
        db.put(b"k", b"v")
        db.close()
        for op in (lambda: db.put(b"a", b"b"), lambda: db.get(b"k"), db.flush):
            with pytest.raises(DBClosedError):
                op()

    def test_double_close_is_fine(self, fs):
        db = make_db(fs=fs)
        db.close()
        db.close()

    def test_context_manager(self, fs):
        with make_db(fs=fs) as db:
            db.put(b"k", b"v")
        with pytest.raises(DBClosedError):
            db.get(b"k")

    def test_explicit_flush(self, db):
        db.put(b"k", b"v")
        meta = db.flush()
        assert meta is not None
        assert db.num_files_per_level()[0] >= 1
        assert db.get(b"k") == b"v"

    def test_flush_empty_memtable_returns_none(self, db):
        assert db.flush() is None


class TestScan:
    def test_scan_range(self, db):
        for i in range(20):
            key, value = kv(i)
            db.put(key, value)
        rows = db.scan(kv(5)[0], kv(15)[0])
        assert [k for k, _ in rows] == [kv(i)[0] for i in range(5, 15)]

    def test_scan_limit(self, db):
        for i in range(20):
            db.put(*kv(i))
        rows = db.scan(kv(0)[0], limit=7)
        assert len(rows) == 7

    def test_scan_open_ended(self, db):
        for i in range(5):
            db.put(*kv(i))
        assert len(db.scan()) == 5

    def test_scan_sees_deletes_and_overwrites(self, db):
        for i in range(10):
            db.put(*kv(i))
        db.delete(kv(3)[0])
        db.put(kv(4)[0], b"updated")
        rows = dict(db.scan())
        assert kv(3)[0] not in rows
        assert rows[kv(4)[0]] == b"updated"

    def test_iterator_snapshot_semantics(self, db):
        """Writes after iterator creation are invisible to it."""
        for i in range(5):
            db.put(*kv(i))
        it = db.iterator()
        db.put(kv(99)[0], b"new")
        db.put(kv(0)[0], b"overwritten")
        rows = dict(it)
        assert kv(99)[0] not in rows
        assert rows[kv(0)[0]] != b"overwritten"

    def test_scan_across_memtable_and_sstables(self, db):
        for i in range(0, 30, 2):
            db.put(*kv(i))
        db.flush()
        for i in range(1, 30, 2):
            db.put(*kv(i))
        rows = db.scan()
        assert [k for k, _ in rows] == [kv(i)[0] for i in range(30)]


class TestWritesBetweenNextCalls:
    """A sync caller's puts, overwrites and deletes between two ``next()``
    calls of an open ``DB.iterator()`` — around the cursor, so the memtable
    chunk under it splits (four-entry chunks), or with a 1 KiB memtable so
    that flushes and compactions land mid-scan too: the iterator yields
    exactly the rows of its snapshot, in order."""

    @pytest.mark.parametrize("chunk_max", [4, 2048], ids=["chunks-of-4", "default-chunks"])
    @pytest.mark.parametrize("memtable_size", [1 << 20, 1024], ids=["in-memtable", "flushing"])
    @pytest.mark.parametrize("start", [None, b"k0100"])
    def test_iterator_yields_its_snapshot(self, monkeypatch, chunk_max, memtable_size, start):
        monkeypatch.setattr(memtable_module, "_CHUNK_MAX", chunk_max, raising=False)
        db = DB(SimulatedFS(), tiny_options(memtable_size=memtable_size))
        model = {}
        for number in range(0, 300, 3):
            model[b"k%04d" % number] = b"v%d" % number
            db.put(b"k%04d" % number, model[b"k%04d" % number])
        for number in range(0, 300, 12):
            del model[b"k%04d" % number]
            db.delete(b"k%04d" % number)
        expected = sorted((k, v) for k, v in model.items() if start is None or k >= start)
        rows = []
        with db.iterator(start) as iterator:
            for key, value in iterator:
                rows.append((key, value))
                number = int(key[1:])
                db.put(b"k%04d" % (number - 1), b"behind")
                db.put(key, b"overwritten")
                db.put(b"k%04d" % (number + 1), b"ahead")
                db.delete(b"k%04d" % (number + 3))
                db.put(b"k%04d" % (number + 6), b"overwritten ahead")
        assert rows == expected
        db.close()


class TestWalDurability:
    def test_reads_hit_all_locations(self, fs):
        """Key visible from memtable, L0 and deeper levels."""
        db = make_db(fs=fs)
        db.put(b"deep", b"v0")
        for i in range(200):
            db.put(*kv(i))  # push 'deep' down through flush + compaction
        db.put(b"fresh", b"vm")
        assert db.get(b"deep") == b"v0"
        assert db.get(b"fresh") == b"vm"
        db.close()
