"""Store-inspection tool tests (sst_dump / manifest dump + CLI)."""

import random

import pytest

from conftest import kv, make_db, tiny_options
from repro.core.db import DB
from repro.keys import TYPE_DELETION, TYPE_VALUE
from repro.storage.fs import LocalFS, SimulatedFS
from repro.tools import describe_manifest, describe_table, dump_table
from repro.tools.__main__ import main as tools_main


def build_store(fs, style="selective", n=500):
    db = DB(fs, tiny_options(compaction_style=style))
    order = list(range(n))
    random.Random(1).shuffle(order)
    for i in order:
        db.put(*kv(i))
    db.delete(kv(0)[0])
    db.flush()
    return db


class TestDescribeTable:
    def test_fields_match_engine_metadata(self, fs):
        db = build_store(fs)
        level, meta = next(
            ((lv, m) for lv, m in db.version.all_files() if lv >= 1), (None, None)
        )
        assert meta is not None
        desc = describe_table(fs, meta.file_name())
        assert desc.file_size == meta.file_size
        assert desc.num_entries == meta.num_entries
        assert desc.valid_bytes == meta.valid_bytes
        assert desc.smallest_user_key == meta.smallest_user_key
        assert desc.largest_user_key == meta.largest_user_key
        assert sum(b.num_entries for b in desc.blocks) == meta.num_entries
        db.close()

    def test_appended_table_shows_sections_and_obsolete(self, fs):
        db = build_store(fs)
        appended = [m for _l, m in db.version.all_files() if m.append_count > 0]
        assert appended, "selective store should have appended tables"
        desc = describe_table(fs, appended[0].file_name())
        assert desc.section == appended[0].append_count
        assert desc.obsolete_bytes > 0
        db.close()

    def test_reserved_filter_reported(self):
        fs2 = SimulatedFS()
        db2 = DB(
            fs2,
            tiny_options(
                compaction_style="selective",
                bloom_reserved_mid_fraction=0.4,
                bloom_reserved_last_fraction=0.1,
            ),
        )
        for i in range(200):
            db2.put(*kv(i))
        db2.flush()
        meta = next(m for _l, m in db2.version.all_files())
        desc = describe_table(fs2, meta.file_name())
        assert desc.filter_kind == "table+reserved"
        assert desc.filter_headroom > 0
        db2.close()

    def test_summary_renders(self, fs):
        db = build_store(fs)
        meta = next(m for _l, m in db.version.all_files())
        text = describe_table(fs, meta.file_name()).summary()
        assert meta.file_name() in text
        assert "valid blocks" in text
        db.close()


class TestDumpTable:
    def test_entries_decoded_in_order(self, fs):
        db = build_store(fs, n=100)
        meta = next(m for _l, m in db.version.all_files())
        rows = dump_table(fs, meta.file_name())
        keys = [r[0] for r in rows]
        assert keys == sorted(keys)
        assert all(r[2] in (TYPE_VALUE, TYPE_DELETION) for r in rows)
        assert len(rows) == meta.num_entries
        db.close()

    def test_limit(self, fs):
        db = build_store(fs, n=100)
        meta = next(m for _l, m in db.version.all_files())
        assert len(dump_table(fs, meta.file_name(), limit=5)) == 5
        db.close()


class TestDescribeManifest:
    def test_fresh_dir(self):
        assert "no CURRENT" in describe_manifest(SimulatedFS())[0]

    def test_live_store(self, fs):
        db = build_store(fs)
        lines = describe_manifest(fs)
        assert lines[0].startswith("CURRENT -> MANIFEST-")
        assert any("add L0" in line for line in lines)
        db.close()

    def test_records_in_place_updates(self, fs):
        db = build_store(fs, style="block")
        assert any(m.append_count for _l, m in db.version.all_files())
        lines = describe_manifest(fs)
        assert any("upd L" in line for line in lines)
        db.close()


    def test_prints_the_value_log_records(self, fs):
        """A tagged store's manifest shows its format tag, its value-log
        registrations, the garbage ledger and the files GC deleted."""
        db = DB(fs, tiny_options(
            compaction_style="selective", kv_separation=True,
            kv_separation_threshold=32, vlog_file_size=1024, vlog_gc_ratio=0.3,
        ))
        for round_ in range(4):
            for i in range(60):
                db.put(kv(i)[0], b"%d." % round_ * 20)
            db.flush()
            db.compact_all()
        assert db.stats.vlog_files_deleted > 0
        lines = describe_manifest(fs)
        db.close()
        assert "values=tagged" in lines[1]
        for record in ("add VLOG-", "dead VLOG-", "del VLOG-"):
            assert any(record in line for line in lines), record


class TestCli:
    def test_table_and_manifest(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        fs = LocalFS(root)
        db = build_store(fs, n=200)
        meta = next(m for _l, m in db.version.all_files())
        db.close()

        assert tools_main([root, meta.file_name(), "--entries", "5"]) == 0
        out = capsys.readouterr().out
        assert "valid blocks" in out
        assert "live entries" in out

        assert tools_main([root, "--manifest"]) == 0
        assert "CURRENT" in capsys.readouterr().out

    def test_missing_args(self, tmp_path, capsys):
        assert tools_main([str(tmp_path / "s")]) == 2
