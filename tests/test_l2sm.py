"""L2SM baseline tests: hotness tracking, divert, log reads, merge-back."""

import random

import pytest

from conftest import kv, tiny_options
from repro.baselines.l2sm import L2SMDB
from repro.storage.fs import SimulatedFS


def make_l2sm(hot=1.0, log_factor=2.0, **overrides) -> L2SMDB:
    return L2SMDB(
        SimulatedFS(),
        tiny_options(**overrides),
        hot_updates_per_key=hot,
        log_capacity_factor=log_factor,
    )


def load(db, n=600, seed=5):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    for i in order:
        db.put(*kv(i))


class TestHotness:
    def test_flushes_vote_for_overlapping_files(self):
        db = make_l2sm(hot=10**9)  # never divert: isolate tracking
        load(db, n=400)
        assert db._hotness, "flushes should have voted"
        assert all(v > 0 for v in db._hotness.values())
        db.close()

    def test_hotness_charged_as_cpu_time(self):
        hot = make_l2sm(hot=10**9)
        from repro.core.db import DB

        plain = DB(SimulatedFS(), tiny_options())
        load(hot, n=400)
        load(plain, n=400)
        assert hot.io_stats.sim_time_s > plain.io_stats.sim_time_s
        hot.close()
        plain.close()


class TestDivertAndLog:
    def test_hot_files_divert_to_log(self):
        db = make_l2sm(hot=0.3, log_factor=50.0)
        load(db, n=800)
        diverts = sum(1 for e in db.stats.events if e.kind == "divert")
        assert diverts > 0
        assert db.log_bytes() > 0
        db.close()

    def test_diverted_data_remains_readable(self):
        db = make_l2sm(hot=0.3, log_factor=50.0)
        load(db, n=800)
        assert db.log_files(), "test needs data parked in the log"
        for i in range(800):
            assert db.get(kv(i)[0]) == kv(i)[1], i
        db.close()

    def test_scans_see_log_content(self):
        db = make_l2sm(hot=0.3, log_factor=50.0)
        load(db, n=600)
        assert db.log_files()
        rows = db.scan()
        assert [k for k, _ in rows] == [kv(i)[0] for i in range(600)]
        db.close()

    def test_updates_shadow_log_content(self):
        db = make_l2sm(hot=0.3, log_factor=50.0)
        load(db, n=600)
        assert db.log_files()
        # update keys covered by log files; newest version must win
        target_meta = db.log_files()[0]
        lo = target_meta.smallest_user_key
        db.put(lo, b"NEWEST")
        assert db.get(lo) == b"NEWEST"
        db.close()

    def test_log_capacity_forces_merge_back(self):
        db = make_l2sm(hot=0.3, log_factor=0.1)  # tiny log: drain constantly
        load(db, n=800)
        diverts = sum(1 for e in db.stats.events if e.kind == "divert")
        assert diverts > 0
        # drained back: log within its capacity at rest
        assert db.log_bytes() <= db.log_capacity_bytes
        for i in range(800):
            assert db.get(kv(i)[0]) == kv(i)[1]
        db.close()

    def test_merge_back_leaves_no_built_tables_in_the_catalog(self):
        """A merge-back output is never eagerly opened, so nothing takes its
        writer's index and filter (``FileMetadata.built``): the catalog must
        not keep them alive for the file's lifetime."""
        db = make_l2sm(hot=0.3, log_factor=0.1)
        merged = []
        merge_back = db._merge_back
        db._merge_back = lambda entry: (merged.append(entry), merge_back(entry))
        load(db, n=800)
        assert merged, "test needs a merge-back"
        assert [meta.file_name() for _level, meta in db.version.all_files()
                if meta.built is not None] == []
        db.close()

    def test_space_accounting_includes_log(self):
        db = make_l2sm(hot=0.3, log_factor=50.0)
        load(db, n=600)
        assert db.log_bytes() > 0
        assert db.stats.max_space_bytes >= db.version.total_file_bytes()
        db.close()

    def test_uniform_low_engagement_at_high_threshold(self):
        """The paper's observation: without concentrated updates the log
        rarely engages."""
        db = make_l2sm(hot=50.0)
        load(db, n=600)
        assert sum(1 for e in db.stats.events if e.kind == "divert") == 0
        db.close()

    def test_deletes_respect_log_ordering(self):
        db = make_l2sm(hot=0.3, log_factor=50.0)
        load(db, n=600)
        assert db.log_files()
        victim = db.log_files()[0].smallest_user_key
        db.delete(victim)
        assert db.get(victim) is None
        db.close()
