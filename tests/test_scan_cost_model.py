"""Contiguity-aware scan charging (the range-scan penalty of block reuse).

Iterators charge a random read when a block is physically discontiguous
with its predecessor and a sequential read otherwise.  Freshly built tables
are fully contiguous; block-compacted tables scatter — which is exactly
Section IV's "valid data blocks are randomly distributed in the SSTable...
not friendly to range queries".
"""

import random

import pytest

from conftest import make_db, tiny_options
from oracle import reference
from repro.keys import TYPE_VALUE, comparable_key, make_internal_key
from repro.sstable import TableBuilder, TableReader
from repro.storage.fs import SimulatedFS
from test_block_compaction_unit import FakeEnv, k


def build_fresh(fs, options, n=40):
    builder = TableBuilder(fs, "000001.sst", options, level=2)
    for i in range(0, n, 2):
        builder.add(make_internal_key(k(i), i + 1, TYPE_VALUE), b"v" * 40)
    builder.finish()
    return TableReader(fs, "000001.sst", 1)


class TestContiguityCharging:
    def test_fresh_table_scans_mostly_sequential(self):
        fs = SimulatedFS()
        options = tiny_options()
        reader = build_fresh(fs, options)
        before_random = fs.stats.random_reads
        before_seq = fs.stats.sequential_reads
        list(reader.entries_from())
        random_reads = fs.stats.random_reads - before_random
        seq_reads = fs.stats.sequential_reads - before_seq
        # first block pays the seek; every later block continues the run
        assert random_reads == 1
        assert seq_reads == len(reader.index.entries) - 1
        reader.close()

    def test_block_compacted_table_scans_pay_random_reads(self):
        env = FakeEnv()
        meta = env.build([k(i) for i in range(0, 40, 2)], level=2)
        reader = env.reader(meta)
        # Dirty the middle block so the rebuilt index interleaves an
        # appended block between original (contiguous) ones.
        from repro.compaction.block_compaction import block_compact_file

        target = reader.index.entries[1]
        parent = [(comparable_key(target.smallest_user_key, 999, TYPE_VALUE), b"NEW")]
        block_compact_file(env, parent, meta, 2)
        reader.reload()

        before_random = env.fs.stats.random_reads
        list(reader.entries_from())
        random_reads = env.fs.stats.random_reads - before_random
        # the appended block breaks the physical run twice: jumping to the
        # tail and jumping back
        assert random_reads >= 3

    def test_sequential_flag_overrides_detection(self):
        """Compaction scans read whole tables as one sequential stream."""
        fs = SimulatedFS()
        options = tiny_options()
        reader = build_fresh(fs, options)
        before_random = fs.stats.random_reads
        list(reader.entries_from(sequential=True))
        assert fs.stats.random_reads == before_random
        reader.close()


# ------------------------------------------------- DB.scan vs the reference walk


def _differential_run(scan, style, kv_separation):
    """One fixed op list against a fresh engine; ``scan(db, start, end,
    limit, snapshot)`` is the scan path under test.  Returns everything the
    two paths must agree on."""
    fs = SimulatedFS()
    db = make_db(
        style,
        fs=fs,
        seek_compaction_min_seeks=3,  # scans exhaust budgets: seek compactions run
        block_cache_capacity=3 * 1024,  # a dozen blocks: the cache evicts
        kv_separation=kv_separation,
        kv_separation_threshold=16,
    )
    rng = random.Random(20220509)

    def key(i):
        return b"key%05d" % i

    def value(i, generation):
        return b"%05d.%03d." % (i, generation) + b"v" * 30

    order = list(range(400))
    rng.shuffle(order)
    for i in order:
        db.put(key(i), value(i, 0))
    for i in rng.sample(range(400), 150):  # dirty blocks: Block Compaction appends
        db.put(key(i), value(i, 1))
    snapshot = db.snapshot()
    for i in rng.sample(range(400), 40):
        db.put(key(i), value(i, 2))
    for i in range(0, 400, 9):
        db.delete(key(i))
    db.flush()  # an L0 file
    for i in range(100, 110):
        db.put(key(i), value(i, 3))
    with db._lock:
        db._freeze_locked()  # an immutable memtable the scans must merge
    for i in range(200, 205):
        db.put(key(i), value(i, 4))

    sv = db._superversion
    assert sv.immutable is not None and len(sv.memtable) and sv.file_lists[0]
    assert sum(1 for files in sv.file_lists[1:] if files) >= 2
    if style != "table":
        assert any(f.append_count > 0 for files in sv.file_lists for f in files)

    results = []
    next_key = 400
    for step in range(160):
        if rng.random() < 0.25:
            db.put(key(next_key), value(next_key, 0))  # rollovers, flushes, compactions
            next_key += 1
            continue
        lo = rng.randrange(-5, 420)
        start = None if lo < 0 else key(lo)
        end = key(lo + rng.randrange(0, 80)) if rng.random() < 0.4 else None
        limit = rng.choice((None, 1, 50))
        snap = snapshot if step % 7 == 0 else None
        results.append(scan(db, start, end, limit, snap))
    db.release_snapshot(snapshot)

    cache = db.block_cache.snapshot()
    assert cache.evictions > 0 and cache.hits > 0
    outcome = dict(
        results=results,
        io=fs.stats,
        allowed_seeks={
            f.file_number: f.allowed_seeks for files in db.version.levels for f in files
        },
        seek_candidates=db.picker.seek_candidates,
        block_cache=cache,
        table_cache=db.table_cache.snapshot(),
        seek_compactions=db.stats.seek_triggered_compactions,
        scan_entries=(db.stats.scans, db.stats.scan_entries),
        digest=fs.digest(),
    )
    db.close()
    return outcome


class TestScanPathDifferential:
    """``DB.scan`` (bisected level seek, one block stream per level, C-level
    drain) against ``oracle.reference.scan_linear`` (the linear walk, a generator
    per file, a per-entry loop) over one op list: a tree with L0 files, an
    immutable memtable and appended files, ``end`` bounds, every kind of
    ``limit`` and a snapshot.  A scan is allowed to cost less CPU, not to
    read, charge or cache anything differently."""

    @pytest.mark.parametrize(
        "style,kv_separation",
        [("block", False), ("selective", True), ("table", False)],
    )
    def test_same_results_reads_seek_charges_and_cache_counts(self, style, kv_separation):
        new = _differential_run(
            lambda db, start, end, limit, snap: db.scan(start, end, limit, snapshot=snap),
            style,
            kv_separation,
        )
        ref = _differential_run(reference.scan_linear, style, kv_separation)
        assert any(new["results"]) and new["seek_compactions"] > 0
        for name, expected in ref.items():
            assert new[name] == expected, name
