"""Manual-operation APIs: compact_range, approximate_size, multi_get."""

import random

import pytest

from conftest import kv, make_db
from repro.storage.io_stats import CAT_COMPACTION


def load(db, n=600, seed=2):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    for i in order:
        db.put(*kv(i))


class TestCompactRange:
    def test_range_garbage_collected(self, any_style):
        db = make_db(any_style)
        load(db)
        # overwrite a band, then delete half of it
        for i in range(100, 200):
            db.put(kv(i)[0], b"v2-%d" % i)
        for i in range(100, 150):
            db.delete(kv(i)[0])
        db.compact_range(kv(100)[0], kv(200)[0])
        for i in range(100, 150):
            assert db.get(kv(i)[0]) is None
        for i in range(150, 200):
            assert db.get(kv(i)[0]) == b"v2-%d" % i
        # keys outside the range untouched
        assert db.get(kv(0)[0]) == kv(0)[1]
        db.close()

    def test_full_range_equals_compact_all_result(self):
        db = make_db("table")
        load(db, n=400)
        db.compact_range()
        deepest = db.version.deepest_nonempty_level()
        assert all(c == 0 for c in db.num_files_per_level()[:deepest])
        assert len(db.scan()) == 400
        db.close()

    def test_compact_all_is_an_unbounded_range_plus_the_bottom_rewrite(self, any_style):
        """One drain loop serves both: ``compact_all`` on a loaded tree
        leaves the very bytes ``compact_range()`` followed by ``compact_all``
        (whose drain then finds nothing to move) does — same files picked in
        the same order, same file numbers, same simulated clock."""

        def loaded():
            db = make_db(any_style)
            load(db)
            for i in range(100, 200):
                db.put(kv(i)[0], b"v2-%d" % i)
            return db

        direct, staged = loaded(), loaded()
        direct.compact_all()
        staged.compact_range()
        before_rewrite = staged.fs.digest()
        staged.compact_all()
        assert staged.fs.digest() != before_rewrite  # the bottom rewrite ran
        assert direct.fs.digest() == staged.fs.digest()
        assert direct.num_files_per_level() == staged.num_files_per_level()
        assert direct.fs.stats.sim_time_s == staged.fs.stats.sim_time_s
        direct.close()
        staged.close()

    def test_compact_all_records_the_bottom_rewrite_as_a_task(self, monkeypatch):
        """The bottom pass is an ordinary compaction task: one table/manual
        event whose read bytes are the merge's compaction reads, with the
        merge CPU charged, and no compact pointer moved."""
        import repro.core.db as db_module

        merge_reads = []
        run_table_compaction = db_module.run_table_compaction

        def measured(env, task):
            before = env.fs.stats.per_category[CAT_COMPACTION].bytes_read
            result = run_table_compaction(env, task)
            merge_reads.append(env.fs.stats.per_category[CAT_COMPACTION].bytes_read - before)
            return result

        monkeypatch.setattr(db_module, "run_table_compaction", measured)
        db = make_db("table")
        load(db)
        for i in range(100, 200):
            db.put(kv(i)[0], b"v2-%d" % i)
        db.compact_range()
        bottom = list(db.version.files_at(db.version.deepest_nonempty_level()))
        events = len(db.stats.events)
        pointers = list(db.picker.compact_pointer)
        del merge_reads[:]
        charges = []
        charge_time = db.fs.stats.charge_time

        def recording(seconds, category="other"):
            charges.append((seconds, category))
            charge_time(seconds, category)

        db.fs.stats.charge_time = recording
        db.compact_all()
        [event] = db.stats.events[events:]
        assert (event.kind, event.reason) == ("table", "manual")
        assert event.child_level == db.version.deepest_nonempty_level()
        assert [event.bytes_read] == merge_reads
        assert event.bytes_read > 0
        merge_cpu = db.fs.device.merge_cpu_cost(sum(f.file_size for f in bottom))
        assert (merge_cpu, CAT_COMPACTION) in charges
        assert db.picker.compact_pointer == pointers
        db.close()

    def test_compact_all_with_more_bottom_files_than_table_cache_slots(self):
        """The bottom rewrite streams every bottom-level file at once; with
        more of them than ``table_cache_capacity`` the cache evicts readers
        mid-merge, which must not close a file still being read."""
        db = make_db("table")
        for i in range(1500):
            db.put(b"key-%06d" % i, b"v" * 64)
        db.compact_all()
        bottom = db.version.files_at(db.version.deepest_nonempty_level())
        assert len(bottom) > db.options.table_cache_capacity
        assert len(db.scan()) == 1500
        db.close()

    def test_disjoint_range_is_noop(self):
        db = make_db("table")
        load(db, n=100)
        db.flush()
        files_before = db.num_files_per_level()
        db.compact_range(b"zzz-none-1", b"zzz-none-2")
        assert db.num_files_per_level() == files_before
        db.close()


class TestApproximateSize:
    def test_scales_with_range_width(self):
        db = make_db("table")
        load(db)
        db.compact_all()
        narrow = db.approximate_size(kv(0)[0], kv(60)[0])
        wide = db.approximate_size(kv(0)[0], kv(600)[0])
        assert 0 < narrow < wide
        # a tenth of the keyspace is roughly a tenth of the bytes
        assert narrow == pytest.approx(wide / 10, rel=0.5)

    def test_empty_and_inverted_ranges(self):
        db = make_db("table")
        load(db, n=100)
        assert db.approximate_size(b"zzz1", b"zzz2") == 0
        assert db.approximate_size(kv(50)[0], kv(10)[0]) == 0
        db.close()

    def test_counts_all_levels(self):
        db = make_db("table")
        load(db, n=300)
        total = db.approximate_size(kv(0)[0], kv(300)[0])
        live = sum(db.level_sizes())
        assert total == pytest.approx(live, rel=0.05)
        db.close()


class TestMultiGet:
    def test_mixed_present_and_absent(self, db):
        db.put(b"a", b"1")
        db.put(b"b", b"2")
        result = db.multi_get([b"a", b"b", b"missing"])
        assert result == {b"a": b"1", b"b": b"2", b"missing": None}

    def test_with_snapshot(self, db):
        db.put(b"k", b"old")
        snap = db.snapshot()
        db.put(b"k", b"new")
        assert db.multi_get([b"k"], snapshot=snap) == {b"k": b"old"}
        snap.close()
