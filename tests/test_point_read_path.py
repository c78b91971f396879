"""The point-read path (DESIGN.md §9): ``DB.get`` / ``DB.multi_get`` ask
each component once — the memtable's key set, one key hash for every
filter, a walk with no closure — and must read, charge, count and
answer exactly as the walk they replaced, which lives on as
``oracle.reference.get_linear`` / ``oracle.reference.multi_get_linear``."""

import random

import pytest

from conftest import kv, make_db, tiny_options
from oracle import reference
from repro.baselines.l2sm import L2SMDB
from repro.storage.fs import SimulatedFS
from test_version import _CountedKey


def _key(i):
    return b"key%05d" % i


def _value(i, generation):
    return b"%05d.%03d." % (i, generation) + b"v" * 30


def _differential_run(get, multi_get, make, expect_appends):
    """One fixed op list against a fresh engine; ``get(db, key, snapshot)``
    and ``multi_get(db, keys, snapshot)`` are the read path under test.
    Returns everything the two paths must agree on."""
    fs = SimulatedFS()
    db = make(fs)
    rng = random.Random(20220509)

    order = list(range(400))
    rng.shuffle(order)
    for i in order:
        db.put(_key(i), _value(i, 0))
    for i in rng.sample(range(400), 150):  # overwritten keys; dirty blocks to append
        db.put(_key(i), _value(i, 1))
    old_snapshot = db.snapshot()  # older than anything the memtables will hold
    for i in rng.sample(range(400), 40):
        db.put(_key(i), _value(i, 2))
    for i in range(0, 400, 9):
        db.delete(_key(i))  # tombstones, some of them over tables
    db.flush()  # an L0 file
    for i in range(100, 110):
        db.put(_key(i), _value(i, 3))
    with db._lock:
        db._freeze_locked()  # an immutable memtable
    for i in range(200, 205):
        db.put(_key(i), _value(i, 4))
    mid_snapshot = db.snapshot()  # newer than some memtable entries, older than others
    for i in range(202, 208):
        db.put(_key(i), _value(i, 5))
    db.delete(_key(204))

    sv = db._superversion
    assert sv.immutable is not None and len(sv.memtable) and sv.file_lists[0]
    assert sum(1 for files in sv.file_lists[1:] if files) >= 2
    if expect_appends:
        assert any(f.append_count > 0 for files in sv.file_lists for f in files)

    results = []
    next_key = 400
    for step in range(400):
        roll = rng.random()
        if roll < 0.15:
            db.put(_key(next_key), _value(next_key, 0))  # rollovers, flushes, compactions
            next_key += 1
            continue
        snapshot = (None, None, old_snapshot, mid_snapshot)[step % 4]
        if roll < 0.3:
            # Absent keys between stored ones, below and past the range, and
            # a repeated key.
            keys = [_key(rng.randrange(-3, 425)) for _ in range(rng.randrange(0, 12))]
            keys += [k + b"-absent" for k in keys[:3]] + keys[:2]
            results.append(multi_get(db, keys, snapshot))
        else:
            key = _key(rng.randrange(-3, 425))
            results.append(get(db, key + b"-absent" if roll > 0.9 else key, snapshot))
    db.release_snapshot(old_snapshot)
    db.release_snapshot(mid_snapshot)

    cache = db.block_cache.snapshot()
    outcome = dict(
        results=results,
        io=fs.stats,
        allowed_seeks={
            f.file_number: f.allowed_seeks for files in db.version.levels for f in files
        },
        seek_miss_charges=db.stats.seek_miss_charges,
        seek_candidates=db.picker.seek_candidates,
        seek_compactions=db.stats.seek_triggered_compactions,
        block_cache=cache,
        table_cache=db.table_cache.snapshot(),
        gets=(db.stats.gets, db.stats.gets_found),
        diverts=sum(1 for e in db.stats.events if e.kind == "divert"),
        digest=fs.digest(),
    )
    db.close()
    return outcome


def _engine(style, **overrides):
    def make(fs):
        return make_db(
            style,
            fs=fs,
            seek_compaction_min_seeks=3,  # misses exhaust budgets: seek compactions run
            block_cache_capacity=3 * 1024,  # a dozen blocks: the cache evicts
            table_cache_capacity=12,  # fewer handles than files: tables reopen
            **overrides,
        )

    return make


def _l2sm(fs):
    return L2SMDB(
        fs,
        tiny_options(seek_compaction_min_seeks=3, block_cache_capacity=3 * 1024),
        seed=1,
        hot_updates_per_key=0.3,
        log_capacity_factor=50.0,
    )


class TestPointReadDifferential:
    """``DB.get`` / ``DB.multi_get`` against ``oracle.reference.get_linear`` /
    ``multi_get_linear`` over one op list: L0 files, an immutable memtable,
    tombstones, overwritten keys, snapshots older and newer than the
    memtable's entries, absent keys, appended files, value separation and
    the L2SM log hook.  A read may cost less CPU, not read, charge, count or
    cache anything differently."""

    @pytest.mark.parametrize(
        "make,expect_appends",
        [
            pytest.param(_engine("block"), True, id="block"),
            pytest.param(
                _engine("selective", kv_separation=True, kv_separation_threshold=16),
                True,
                id="selective+vlog",
            ),
            pytest.param(_engine("table"), False, id="table"),
            pytest.param(_engine("block", filter_policy="block"), True, id="block-filters"),
            pytest.param(_l2sm, False, id="l2sm"),
        ],
    )
    def test_same_values_reads_seek_charges_and_cache_counts(self, make, expect_appends):
        new = _differential_run(
            lambda db, key, snap: db.get(key, snapshot=snap),
            lambda db, keys, snap: db.multi_get(keys, snapshot=snap),
            make,
            expect_appends,
        )
        ref = _differential_run(
            lambda db, key, snap: reference.get_linear(db, key, snapshot=snap),
            lambda db, keys, snap: reference.multi_get_linear(db, keys, snapshot=snap),
            make,
            expect_appends,
        )
        found = [r for r in new["results"] if isinstance(r, bytes)]
        assert found and None in new["results"]
        assert new["seek_miss_charges"] > 0 and new["block_cache"].evictions > 0
        if make is _l2sm:
            assert new["diverts"] > 0  # the log hook had something to search
        for field, expected in ref.items():
            assert new[field] == expected, field


def _tree(style="table", n=600):
    """L0 files over three sorted levels, entries in the memtable."""
    db = make_db(style)
    order = list(range(n))
    random.Random(5).shuffle(order)
    for i in order:
        db.put(*kv(i))
    files = db.num_files_per_level()
    assert files[0] and sum(1 for count in files[1:] if count) >= 3 and len(db._memtable)
    return db


class TestMultiGetBatches:
    def test_batch_spanning_l0_and_three_levels_matches_per_key_get(self, any_style):
        db = _tree(any_style)
        db.delete(kv(17)[0])
        keys = [kv(i)[0] for i in range(0, 620, 7)] + [kv(17)[0], b"absent", kv(3)[0] + b"x"]
        per_level = [
            sum(1 for key in keys if db.version.file_for_key(level, key))
            for level in range(1, 4)
        ]
        assert all(per_level)
        expected = {key: db.get(key) for key in keys}
        assert db.multi_get(keys) == expected
        assert expected[kv(17)[0]] is None and expected[kv(0)[0]] == kv(0)[1]
        db.close()

    def test_duplicates_in_batch(self):
        db = _tree()
        keys = [kv(5)[0], kv(300)[0], kv(5)[0], b"absent", b"absent", kv(300)[0], kv(5)[0]]
        gets_before = db.stats.gets
        out = db.multi_get(keys)
        assert out == {kv(5)[0]: kv(5)[1], kv(300)[0]: kv(300)[1], b"absent": None}
        assert list(out) == [kv(5)[0], kv(300)[0], b"absent"]  # first-seen order
        # Counted per requested key, probed once per distinct key.
        assert db.stats.gets - gets_before == len(keys)
        db.close()

    def test_batch_with_every_key_in_the_memtable_touches_no_table(self, fs):
        db = make_db(fs=fs)
        for i in range(200):
            db.put(*kv(i))
        fresh = {b"fresh%03d" % i: b"value%03d" % i for i in range(8)}
        for key, value in fresh.items():
            db.put(key, value)
        db.delete(b"fresh003")
        fresh[b"fresh003"] = None
        assert all(key in db._memtable._user_keys for key in fresh)
        reads = fs.stats.read_ops
        cache = db.block_cache.snapshot()
        assert db.multi_get(list(fresh)) == fresh
        assert fs.stats.read_ops == reads
        after = db.block_cache.snapshot()
        assert (after.hits, after.misses) == (cache.hits, cache.misses)
        db.close()

    def test_empty_batch(self):
        db = _tree()
        assert db.multi_get([]) == {}
        db.close()


class TestMultiGetIsLinear:
    """``multi_get`` used to keep its unresolved keys in a list (``key in
    pending``, ``pending.remove(key)``): 3.5 us a key at 250 absent keys,
    79 us a key at 16 000.  Measured here as key comparisons — a count, not
    a clock — with keys that count every comparison they take part in."""

    @staticmethod
    def _comparisons_per_key(db, count):
        # Absent keys between the stored ones: every level is asked about
        # each, and the filters turn them away.
        keys = [_CountedKey(b"key%06d-absent-%d" % (i % 600, i)) for i in range(count)]
        assert len(set(keys)) == count
        _CountedKey.comparisons = 0
        # Below the public method: it copies each key to an exact ``bytes``.
        out = db._multi_get(keys, None)
        assert len(out) == count and not any(out.values())
        return _CountedKey.comparisons / count

    def test_4000_absent_keys_cost_per_key_what_250_cost(self):
        db = _tree()
        small = self._comparisons_per_key(db, 250)
        large = self._comparisons_per_key(db, 4000)
        assert small > 0
        assert large <= 3 * small, (small, large)
        db.close()
