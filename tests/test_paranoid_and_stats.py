"""Paranoid catalog verification and miscellaneous engine statistics."""

import random

import pytest

from conftest import kv, make_db
from repro.errors import InvalidArgumentError


class TestParanoidChecks:
    def test_clean_run_passes(self):
        db = make_db("selective", paranoid_checks=True)
        order = list(range(500))
        random.Random(2).shuffle(order)
        for i in order:
            db.put(*kv(i))
        db.compact_all()
        db.close()

    def test_detects_external_corruption(self):
        db = make_db("table", paranoid_checks=True)
        for i in range(200):
            db.put(*kv(i))
        # truncate a live SSTable behind the engine's back
        live = [m for _l, m in db.version.all_files()]
        assert live
        victim = live[0].file_name()
        db.fs.replace(victim, db.fs.contents(victim)[:-10])
        with pytest.raises(InvalidArgumentError):
            db._verify_catalog()
        db.close()


class TestStallAccounting:
    def test_no_stalls_under_normal_load(self):
        db = make_db("table")
        for i in range(300):
            db.put(*kv(i))
        # synchronous compaction keeps L0 below the slowdown trigger
        assert db.stats.stall_events == 0
        db.close()


class TestCompactAllIdempotent:
    def test_second_call_is_noop(self):
        db = make_db("selective")
        order = list(range(300))
        random.Random(1).shuffle(order)
        for i in order:
            db.put(*kv(i))
        db.compact_all()
        events_after_first = len(db.stats.events)
        db.compact_all()
        # nothing to flush or drain: the only new event is the bottom-level
        # rewrite every compact_all ends with
        [rewrite] = db.stats.events[events_after_first:]
        assert (rewrite.kind, rewrite.reason) == ("table", "manual")
        assert rewrite.child_level == db.version.deepest_nonempty_level()
        db.close()

    def test_empty_db(self):
        db = make_db("table")
        db.compact_all()
        assert db.scan() == []
        db.close()
