"""Store-repair tests (the RepairDB analogue)."""

import random

import pytest

from conftest import flip_byte, kv, make_db, tiny_options
from repro.core.db import DB
from repro.core.manifest import CURRENT_FILE, read_pointer
from repro.tools import repair_store


def build_store(fs, n=400, close=True):
    db = make_db(fs=fs, style="selective")
    order = list(range(n))
    random.Random(1).shuffle(order)
    for i in order:
        db.put(*kv(i))
    db.delete(kv(5)[0])
    if close:
        db.flush()
        db.close()
    return db


def reopen(fs) -> DB:
    return DB(fs, tiny_options(compaction_style="selective"))


class TestRepair:
    def test_recovers_after_current_deleted(self, fs):
        build_store(fs)
        fs.delete_file("CURRENT")
        report = repair_store(fs, tiny_options())
        assert report.tables_recovered > 0
        assert read_pointer(fs, CURRENT_FILE) == report.manifest_name
        db = reopen(fs)
        for i in range(400):
            expected = None if i == 5 else kv(i)[1]
            assert db.get(kv(i)[0]) == expected, i
        db.close()

    def test_recovers_after_manifest_corruption(self, fs):
        build_store(fs)
        name = read_pointer(fs, CURRENT_FILE)
        flip_byte(fs, name, 7)
        repair_store(fs, tiny_options())
        db = reopen(fs)
        assert db.get(kv(100)[0]) == kv(100)[1]
        db.close()

    def test_converts_orphan_wal(self, fs):
        db = build_store(fs, close=False)
        db.put(b"zz-wal-only", b"unflushed")  # lives only in the WAL
        # crash, then lose the catalog
        fs.delete_file("CURRENT")
        report = repair_store(fs, tiny_options())
        assert report.logs_converted >= 1
        db2 = reopen(fs)
        assert db2.get(b"zz-wal-only") == b"unflushed"
        assert db2.get(kv(42)[0]) == kv(42)[1]
        db2.close()

    def test_sets_aside_corrupt_tables(self, fs):
        ref = build_store(fs)
        victim = next(m.file_name() for _l, m in ref.version.all_files())
        fs.replace(victim, fs.contents(victim)[: fs.file_size(victim) // 2])
        fs.delete_file("CURRENT")
        report = repair_store(fs, tiny_options())
        assert victim in report.corrupt_files
        # the rest of the data still opens and reads
        db = reopen(fs)
        hits = sum(1 for i in range(400) if db.get(kv(i)[0]) is not None)
        assert hits > 300
        db.close()

    def test_sequence_horizon_prevents_stale_reads_after_new_writes(self, fs):
        """Writes after repair must shadow recovered versions — the
        recovered last_sequence must be high enough."""
        build_store(fs)
        fs.delete_file("CURRENT")
        report = repair_store(fs, tiny_options())
        assert report.max_sequence > 0
        db = reopen(fs)
        db.put(kv(10)[0], b"post-repair")
        assert db.get(kv(10)[0]) == b"post-repair"
        db.close()

    def test_repair_on_healthy_store_is_lossless(self, fs):
        build_store(fs)
        repair_store(fs, tiny_options())
        db = reopen(fs)
        for i in range(0, 400, 7):
            expected = None if i == 5 else kv(i)[1]
            assert db.get(kv(i)[0]) == expected
        # repaired catalog parks everything at L0; compaction re-sorts
        db.compact_all()
        assert len(db.scan()) == 399
        db.close()

    def test_truncates_torn_append_tail_to_older_footer(self, fs):
        """A table whose in-place append was interrupted (garbage past the
        last intact footer) is truncated back to that footer generation
        instead of being set aside as corrupt."""
        ref = build_store(fs)
        victim = next(m.file_name() for _l, m in ref.version.all_files())
        intact_size = fs.file_size(victim)
        fs.replace(victim, fs.contents(victim) + b"\xde\xad" * 40)  # torn append: no live footer
        fs.delete_file("CURRENT")
        report = repair_store(fs, tiny_options())
        assert report.tables_truncated == 1
        assert report.table_bytes_discarded == 80
        assert victim not in report.corrupt_files
        assert fs.file_size(victim) == intact_size
        db = reopen(fs)
        for i in range(400):
            expected = None if i == 5 else kv(i)[1]
            assert db.get(kv(i)[0]) == expected, i
        db.close()

    def test_skips_fake_footer_magic_in_torn_tail(self, fs):
        """Magic bytes inside the garbage tail must not fool the scan-back:
        a candidate whose footer or index fails validation is skipped and
        the scan continues to the genuine older generation."""
        from repro.encoding import encode_fixed64
        from repro.sstable.format import TABLE_MAGIC

        ref = build_store(fs)
        victim = next(m.file_name() for _l, m in ref.version.all_files())
        intact_size = fs.file_size(victim)
        # Garbage that *ends in the table magic* but is not a valid footer
        # (its decoded index handle points into nonsense).
        fake = b"\xff" * 52 + encode_fixed64(TABLE_MAGIC) + b"\x00" * 9
        fs.replace(victim, fs.contents(victim) + fake)
        fs.delete_file("CURRENT")
        report = repair_store(fs, tiny_options())
        assert report.tables_truncated == 1
        assert fs.file_size(victim) == intact_size
        db = reopen(fs)
        assert db.get(kv(100)[0]) == kv(100)[1]
        db.close()

    def test_wal_with_torn_tail_reports_skipped_bytes(self, fs):
        db = build_store(fs, close=False)
        db.put(b"zz-wal-only", b"unflushed")
        log = next(n for n in fs.list_dir() if n.endswith(".log"))
        fs.replace(log, fs.contents(log) + b"\x01\x02\x03")  # torn final frame
        fs.delete_file("CURRENT")
        report = repair_store(fs, tiny_options())
        assert report.wal_bytes_skipped == 3
        db2 = reopen(fs)
        assert db2.get(b"zz-wal-only") == b"unflushed"
        db2.close()

    def test_report_summary(self, fs):
        build_store(fs)
        fs.delete_file("CURRENT")
        report = repair_store(fs, tiny_options())
        text = report.summary()
        assert "recovered" in text
        assert report.manifest_name in text

    def test_empty_directory(self):
        from repro.storage.fs import SimulatedFS

        fs = SimulatedFS()
        report = repair_store(fs, tiny_options())
        assert report.tables_recovered == 0
        db = reopen(fs)
        assert db.scan() == []
        db.close()
