"""Integration tests: multi-level compaction correctness for every style.

These are the load-bearing tests of the engine: under every compaction
scheme, after arbitrary interleavings of puts/deletes/overwrites that drive
many flushes and compactions, the DB must agree with a dict model and the
level invariants must hold.
"""

import random

import pytest

from conftest import kv, make_db
from repro.keys import user_key_of
from repro.options import COMPACTION_BLOCK, COMPACTION_SELECTIVE, COMPACTION_TABLE


def check_level_invariants(db):
    """Sorted levels: disjoint, ordered files; metadata matches reality."""
    version = db.version
    for level in range(1, version.num_levels):
        files = version.files_at(level)
        for a, b in zip(files, files[1:]):
            assert a.largest_user_key < b.smallest_user_key
        for meta in files:
            assert meta.smallest_user_key <= meta.largest_user_key
            assert meta.valid_bytes <= meta.file_size
            assert db.fs.exists(meta.file_name())
            assert db.fs.file_size(meta.file_name()) == meta.file_size


def check_against_model(db, model):
    for key, value in model.items():
        assert db.get(key) == value, f"mismatch for {key!r}"
    # full scan equals the sorted model
    assert db.scan() == sorted(model.items())


class TestCompactionCorrectness:
    def test_random_workload_matches_model(self, any_style):
        db = make_db(any_style)
        rng = random.Random(1234)
        model = {}
        keyspace = [kv(i)[0] for i in range(400)]
        for step in range(3000):
            key = rng.choice(keyspace)
            action = rng.random()
            if action < 0.75:
                value = b"v%d" % step
                db.put(key, value)
                model[key] = value
            else:
                db.delete(key)
                model.pop(key, None)
        assert db.num_files_per_level().count(0) < db.version.num_levels  # compacted
        check_level_invariants(db)
        check_against_model(db, model)
        db.close()

    def test_sequential_load_uses_trivial_moves(self, any_style):
        db = make_db(any_style)
        for i in range(500):
            db.put(*kv(i))
        assert db.stats.trivial_moves > 0
        check_level_invariants(db)
        assert db.get(kv(250)[0]) is not None
        db.close()

    def test_deep_tree_forms(self, any_style):
        db = make_db(any_style)
        order = list(range(1500))
        random.Random(7).shuffle(order)
        for i in order:
            db.put(*kv(i))
        files = db.num_files_per_level()
        assert db.version.deepest_nonempty_level() >= 2
        check_level_invariants(db)
        # every key present
        missing = [i for i in range(1500) if db.get(kv(i)[0]) is None]
        assert missing == []
        db.close()

    def test_overwrites_reclaim_space(self, any_style):
        db = make_db(any_style)
        for round_no in range(4):
            order = list(range(300))
            random.Random(round_no).shuffle(order)
            for i in order:
                db.put(kv(i)[0], b"round%d" % round_no + b"x" * 40)
        for i in range(300):
            assert db.get(kv(i)[0]).startswith(b"round3")
        # total live bytes must stay near one dataset, not four
        live = sum(db.level_sizes())
        assert live < 4 * 300 * 60
        db.close()

    def test_deletes_eventually_drop_tombstones(self, any_style):
        db = make_db(any_style)
        order = list(range(400))
        random.Random(3).shuffle(order)
        for i in order:
            db.put(*kv(i))
        for i in order:
            db.delete(kv(i)[0])
        db.compact_all()
        assert db.scan() == []
        # After full compaction nothing should remain.
        assert sum(db.level_sizes()) == 0
        db.close()

    @pytest.mark.parametrize("policy", ["leveled", "tiered"])
    def test_merge_with_more_inputs_than_table_cache_slots(self, any_style, policy):
        """A merge opens every input before it reads any of them: with more
        inputs than ``table_cache_capacity`` the cache evicts readers the
        merge has not reached yet, which must not close them under it."""
        db = make_db(
            any_style,
            block_size=512,
            sstable_size=2048,
            memtable_size=2048,
            max_levels=5,
            table_cache_capacity=4,
            compaction_policy=policy,
        )
        order = list(range(3000))
        random.Random(11).shuffle(order)
        for i in order:
            db.put(*kv(i))
        assert db.stats.bg_failures == 0
        check_level_invariants(db)
        assert db.scan() == [kv(i) for i in range(3000)]
        db.close()

    def test_compact_all_pushes_to_bottom(self, any_style):
        db = make_db(any_style)
        order = list(range(600))
        random.Random(5).shuffle(order)
        for i in order:
            db.put(*kv(i))
        db.compact_all()
        files = db.num_files_per_level()
        deepest = db.version.deepest_nonempty_level()
        assert all(count == 0 for count in files[:deepest])
        check_against_model(db, {kv(i)[0]: kv(i)[1] for i in range(600)})
        db.close()


class TestStyleDifferences:
    @pytest.fixture
    def loaded(self, request):
        def _load(style):
            db = make_db(style)
            order = list(range(800))
            random.Random(11).shuffle(order)
            for i in order:
                db.put(*kv(i))
            return db

        return _load

    def test_block_style_reduces_write_amplification(self, loaded):
        table_db = loaded(COMPACTION_TABLE)
        block_db = loaded(COMPACTION_BLOCK)
        assert block_db.stats.write_amplification() < table_db.stats.write_amplification()
        table_db.close()
        block_db.close()

    def test_block_style_costs_space(self, loaded):
        table_db = loaded(COMPACTION_TABLE)
        block_db = loaded(COMPACTION_BLOCK)
        assert block_db.stats.max_space_bytes > table_db.stats.max_space_bytes
        table_db.close()
        block_db.close()

    def test_selective_bounds_space_between_the_two(self, loaded):
        table_db = loaded(COMPACTION_TABLE)
        block_db = loaded(COMPACTION_BLOCK)
        selective_db = loaded(COMPACTION_SELECTIVE)
        assert (
            selective_db.stats.write_amplification()
            <= table_db.stats.write_amplification()
        )
        assert selective_db.stats.max_space_bytes <= block_db.stats.max_space_bytes
        for d in (table_db, block_db, selective_db):
            d.close()

    def test_block_compactions_update_files_in_place(self, loaded):
        db = loaded(COMPACTION_BLOCK)
        appended = [
            meta
            for _level, meta in db.version.all_files()
            if meta.append_count > 0
        ]
        assert appended, "block compaction never appended in place"
        assert db.stats.block_compactions > 0
        db.close()

    def test_table_style_never_appends(self, loaded):
        db = loaded(COMPACTION_TABLE)
        assert all(meta.append_count == 0 for _lv, meta in db.version.all_files())
        assert db.stats.block_compactions == 0
        db.close()

    def test_level0_compactions_always_table_grained(self, loaded):
        db = loaded(COMPACTION_BLOCK)
        l0_events = [e for e in db.stats.events if e.parent_level == 0]
        assert l0_events
        assert all(e.kind in ("table", "trivial") for e in l0_events)
        db.close()


class TestPerLevelAccounting:
    def test_write_traffic_attribution(self, any_style):
        db = make_db(any_style)
        order = list(range(700))
        random.Random(2).shuffle(order)
        for i in order:
            db.put(*kv(i))
        traffic = db.stats.per_level_write_bytes
        assert traffic[0] == db.stats.flush_bytes
        assert sum(traffic[1:]) == db.stats.compaction_bytes_written
        db.close()

    def test_space_peak_monotone_nonzero(self, any_style):
        db = make_db(any_style)
        for i in range(200):
            db.put(*kv(i))
        assert db.stats.max_space_bytes > 0
        assert db.stats.max_space_bytes >= db.version.total_file_bytes() - 1
        db.close()
