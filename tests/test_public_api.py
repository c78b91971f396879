"""Public-API surface tests: exports, errors, LocalFS end-to-end, debug."""

import random

import pytest

import repro
from repro import (
    DB,
    DeviceModel,
    LocalFS,
    NotFoundError,
    Options,
    SimulatedFS,
    WriteBatch,
    blockdb,
    leveldb_like,
)
from conftest import kv, tiny_options


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_error_hierarchy(self):
        from repro import (
            CorruptionError,
            DBClosedError,
            FileSystemError,
            InvalidArgumentError,
            ReproError,
        )

        for err in (
            NotFoundError,
            CorruptionError,
            InvalidArgumentError,
            DBClosedError,
            FileSystemError,
        ):
            assert issubclass(err, ReproError)
        assert issubclass(NotFoundError, KeyError)
        assert issubclass(InvalidArgumentError, ValueError)

    def test_readme_quickstart_works(self):
        db = DB(options=blockdb(sstable_size=64 * 1024))
        db.put(b"hello", b"world")
        assert db.get(b"hello") == b"world"
        db.delete(b"hello")
        assert db.scan(b"a", b"z", limit=10) == []
        assert db.stats.write_amplification() >= 0
        assert db.io_stats.sim_time_s > 0
        db.close()


class TestLocalFSEndToEnd:
    def test_full_lifecycle_on_disk(self, tmp_path):
        fs = LocalFS(str(tmp_path / "db"))
        db = DB(fs, tiny_options(compaction_style="selective"))
        order = list(range(400))
        random.Random(5).shuffle(order)
        for i in order:
            db.put(*kv(i))
        db.delete(kv(7)[0])
        db.close()

        db2 = DB(LocalFS(str(tmp_path / "db")), tiny_options(compaction_style="selective"))
        assert db2.get(kv(7)[0]) is None
        assert db2.get(kv(123)[0]) == kv(123)[1]
        assert len(db2.scan(kv(100)[0], kv(110)[0])) == 10
        db2.close()

    def test_custom_device_model(self, tmp_path):
        slow = DeviceModel(seq_write_bandwidth=1e6, seq_read_bandwidth=1e6)
        fs = SimulatedFS(device=slow)
        db = DB(fs, tiny_options())
        db.put(b"k", b"v" * 1000)
        db.flush()
        fast_time = 1000 / 510e6
        assert db.io_stats.sim_time_s > fast_time * 100
        db.close()


class TestDebugString:
    def test_summarizes_tree_and_counters(self, db):
        for i in range(100):
            db.put(*kv(i))
        db.get(kv(5)[0])
        text = db.debug_string()
        assert "Level" in text
        assert "compactions:" in text
        assert "WA=" in text
        assert "gets=1" in text

    def test_empty_db(self, db):
        text = db.debug_string()
        assert "WA=0.00" in text
