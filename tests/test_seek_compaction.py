"""Seek-compaction tests (LevelDB's read-triggered compaction, Section V-G)."""

import random

from conftest import kv, make_db


def load(db, n=600, seed=5):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    for i in order:
        db.put(*kv(i))


class TestPointLookupSeeks:
    def test_fruitless_block_reads_charge_budget(self):
        db = make_db("table", filter_policy="none")
        load(db)
        before = db.stats.seek_miss_charges
        # Keys in range of upper-level files but living deeper force
        # fruitless touches.
        for i in range(0, 600, 7):
            db.get(kv(i)[0])
        assert db.stats.seek_miss_charges >= before

    def test_seek_budget_exhaustion_triggers_compaction(self):
        db = make_db("table", filter_policy="none")
        load(db)
        # hammer misses until some file's budget drains
        for round_no in range(400):
            for i in range(0, 600, 11):
                db.get(kv(i)[0])
            if db.stats.seek_triggered_compactions > 0:
                break
        assert db.stats.seek_triggered_compactions > 0

    def test_bloom_filters_protect_budget(self):
        """With filters on, fruitless lookups are pruned without block I/O
        and must not drain seek budgets."""
        db = make_db("table")
        load(db)
        for _ in range(5):
            for i in range(600):
                db.get(b"absent-" + kv(i)[0])
        assert db.stats.seek_triggered_compactions == 0
        db.close()


class TestScanSeeks:
    def test_repeated_scans_collapse_levels(self):
        """The paper's Section V-G observation: after many range scans,
        seek compactions reduce the number of populated levels."""
        db = make_db("table")
        load(db, n=800, seed=3)
        populated_before = sum(1 for c in db.num_files_per_level() if c)
        rng = random.Random(1)
        for _ in range(600):
            start = kv(rng.randrange(800))[0]
            db.scan(start, limit=20)
        assert db.stats.seek_triggered_compactions > 0
        populated_after = sum(1 for c in db.num_files_per_level() if c)
        assert populated_after <= populated_before
        db.close()

    def test_disabled_seek_compaction_keeps_levels(self):
        """RocksDB preset behaviour: scans never trigger compaction."""
        db = make_db("table", enable_seek_compaction=False)
        load(db, n=800, seed=3)
        files_before = db.num_files_per_level()
        rng = random.Random(1)
        for _ in range(600):
            start = kv(rng.randrange(800))[0]
            db.scan(start, limit=20)
        assert db.stats.seek_triggered_compactions == 0
        assert db.num_files_per_level() == files_before
        db.close()

    def test_scans_remain_correct_across_seek_compactions(self):
        db = make_db("selective")
        load(db, n=500, seed=9)
        for _ in range(400):
            db.scan(kv(100)[0], limit=30)
        rows = db.scan(kv(100)[0], kv(130)[0])
        assert [k for k, _ in rows] == [kv(i)[0] for i in range(100, 130)]
        db.close()


class TestAppendedFiles:
    """A file grown by Block Compaction appends keeps its blocks out of key
    order: scans pay a device seek per out-of-order run, so they charge it
    faster and its seek compaction rewrites it instead of moving it."""

    @staticmethod
    def lone_appended_file(db):
        """An appended file with nothing under it in the next level."""
        version = db.version
        for level, meta in version.all_files():
            if meta.append_count >= 3 and level + 2 < version.num_levels and not (
                version.overlapping_files(
                    level + 1, meta.smallest_user_key, meta.largest_user_key
                )
            ):
                return level, meta
        raise AssertionError("the load left no lone appended file")

    def test_only_seek_compactions_refuse_to_move_an_appended_file(self):
        from repro.compaction import CompactionTask, can_trivially_move
        from repro.core.version import clone_metadata

        db = make_db("block")
        load(db)
        level, appended = self.lone_appended_file(db)
        fresh = clone_metadata(appended, append_count=0)
        assert not can_trivially_move(db, CompactionTask(level, [appended], [], reason="seek"))
        assert can_trivially_move(db, CompactionTask(level, [fresh], [], reason="seek"))
        assert can_trivially_move(db, CompactionTask(level, [appended], [], reason="size"))
        db.close()

    def test_one_scan_gets_a_scattered_file_rewritten(self):
        db = make_db("block", seek_compaction_min_seeks=4)
        load(db)
        level, meta = self.lone_appended_file(db)
        start = meta.smallest_user_key
        # One scan charges 1 + append_count >= the budget of 4; the seek
        # compaction runs when the scan's iterator closes.
        rows = db.scan(start, limit=3)
        assert rows and rows[0][0] == start
        live = {m.file_number for _level, m in db.version.all_files()}
        assert meta.file_number not in live
        rewritten = db.version.file_for_key(level + 1, start)
        assert rewritten is not None and rewritten.append_count == 0
        assert db.scan(start, limit=3) == rows
        db.close()
