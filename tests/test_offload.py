"""Offloaded compaction execution (DESIGN.md §11).

Covers the offload job pipeline end to end: picklability of the job
payload, bit-identical equivalence of offloaded vs in-process Block
Compaction, the shared-memory transport, worker-crash error semantics, and
the DB's executor lifecycle (close drains pools; a failed open leaks no
workers).
"""

from __future__ import annotations

import pickle
import random
import threading
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - property tests just skip
    HAVE_HYPOTHESIS = False

from conftest import tiny_options
from repro.cache.block_cache import BlockCache
from repro.cache.table_cache import TableCache
from repro.compaction.block_compaction import (
    JobGeometry,
    block_compact_file,
    find_dirty_blocks,
    partition_parent_slices,
    prepare_block_merge_job,
)
from repro.compaction.parallel import lpt_makespan
from repro.compaction.offload import OffloadPool, execute_block_merge
from repro.core.db import DB
from repro.core.version import Version, VersionEdit, new_file_metadata
from repro.errors import (
    OffloadError,
    SEVERITY_HARD,
    classify_severity,
)
from repro.keys import TYPE_DELETION, TYPE_VALUE, comparable_key, make_internal_key
from repro.metrics.stats import DBStats
from repro.options import COMPACTION_SELECTIVE, Options
from repro.sstable import TableBuilder, TableReader
from repro.storage.fs import SimulatedFS
from repro.vlog import VlogManager, encode_pointer

SNAP = 10**9


class FakeEnv:
    """Minimal CompactionEnv for driving compaction functions directly."""

    def __init__(self, options=None, *, with_vlog=False):
        self.options = options or tiny_options()
        self.fs = SimulatedFS()
        self.table_cache = TableCache(self.fs, self.options)
        self.block_cache = BlockCache(self.options.block_cache_capacity)
        self.version = Version(self.options.max_levels)
        self.stats = DBStats()
        if with_vlog:
            self.vlog = VlogManager(self.fs, self.options, self.stats)
        self._next = 1

    def new_file_number(self):
        self._next += 1
        return self._next

    def snapshot_boundaries(self):
        return []

    def build(self, keys, level=2, seq_start=1, value=b"v" * 40, register=None):
        """``value`` is the stored value of every key, or a function of the
        key's position."""
        number = self.new_file_number()
        builder = TableBuilder(self.fs, f"{number:06d}.sst", self.options, level)
        for offset, key in enumerate(keys):
            stored = value(offset) if callable(value) else value
            builder.add(make_internal_key(key, seq_start + offset, TYPE_VALUE), stored)
        info = builder.finish()
        meta = new_file_metadata(number, info)
        if register is not None:
            self.version.apply(VersionEdit(new_files=[(register, meta)]))
        return meta

    def reader(self, meta):
        return self.table_cache.get(meta.file_number, meta.file_name())


def k(i: int) -> bytes:
    return b"%05d" % i


def parent_entries(ordinals, *, seq=500, tombstones=()):
    entries = []
    for i in ordinals:
        kind = TYPE_DELETION if i in tombstones else TYPE_VALUE
        value = b"" if kind == TYPE_DELETION else b"new" * 12
        entries.append((comparable_key(k(i), seq + i, kind), value))
    return entries


def _make_scenario(env):
    """Child file + a parent slice producing gaps, dirty merges, and reuses."""
    child = env.build([k(i) for i in range(0, 60, 2)], register=2)
    # keys below the file, inside blocks, in gaps, and above the file;
    # a couple of tombstones to exercise the drop logic.
    slice_ = parent_entries(
        [1, 4, 8, 21, 33, 47, 70, 75], tombstones=(8, 70)
    )
    return child, slice_


def _make_versions_scenario(env):
    """The boundaries the one cut rule decides: user keys whose versions
    outgrow ``block_size`` (a block is never cut inside one key, so the
    estimate passes the cut size and the *next* key cuts), in merges and in
    gaps, with clean blocks reused between the merges.  Every parent
    sequence is its own snapshot stratum, so all versions survive."""
    env.snapshot_boundaries = lambda: list(range(400, 900))
    child = env.build([k(i) for i in range(0, 80, 2)], register=2)

    def versions(i, count):
        return [
            (comparable_key(k(i), 800 - age, TYPE_VALUE), b"new%02d" % age * 6)
            for age in range(count)
        ]

    slice_ = (
        versions(1, 3)
        + versions(4, 9)  # one key's versions carry the block past the cut size...
        + versions(5, 2)  # ...and the next key is what cuts
        # two clean blocks reused, then a merge whose block is full when
        # key 34's versions start: they get a block of their own
        + versions(33, 7)
        + versions(34, 8)
        + versions(61, 1)  # two more reuses, a merge, one more reuse
        + versions(90, 12)  # above the file: one oversized block...
        + versions(95, 1)  # ...then a one-entry tail block
    )
    return child, slice_


# ------------------------------------------------------------- picklability


class TestJobPicklability:
    def test_job_round_trips(self):
        env = FakeEnv()
        child, slice_ = _make_scenario(env)
        reader = env.reader(child)
        scan = find_dirty_blocks([ck[0] for ck, _ in slice_], reader.index)
        job = prepare_block_merge_job(env, reader, slice_, child, 2, scan)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.geometry == job.geometry
        assert clone.ops == job.ops
        assert clone.parent_entries == job.parent_entries
        assert clone.payloads == job.payloads
        assert clone.tombstones == job.tombstones
        # and the clone executes to the same result
        assert execute_block_merge(clone).ops == execute_block_merge(job).ops

    def test_geometry_covers_options_snapshot(self):
        """JobGeometry is built from Options without dragging Options along
        (new unpicklable Options fields must not break process mode)."""
        geometry = JobGeometry.from_options(tiny_options())
        clone = pickle.loads(pickle.dumps(geometry))
        assert clone == geometry

    def test_result_round_trips(self):
        env = FakeEnv()
        child, slice_ = _make_scenario(env)
        reader = env.reader(child)
        scan = find_dirty_blocks([ck[0] for ck, _ in slice_], reader.index)
        job = prepare_block_merge_job(env, reader, slice_, child, 2, scan)
        result = execute_block_merge(job)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.ops == result.ops
        assert clone.worker_pid == result.worker_pid


# ------------------------------------------------------- equivalence


class TestOffloadEquivalence:
    def _run_inprocess(self, scenario=_make_scenario):
        env = FakeEnv()
        child, slice_ = scenario(env)
        new_meta, stats = block_compact_file(env, slice_, child, 2)
        return env, child, new_meta, stats

    def _run_offloaded(self, pool, scenario=_make_scenario):
        env = FakeEnv()
        child, slice_ = scenario(env)
        new_meta, stats = block_compact_file(env, slice_, child, 2, pool=pool)
        return env, child, new_meta, stats

    def _check_bit_identical(self, scenario, mode="process"):
        ref_env, ref_child, ref_meta, ref_stats = self._run_inprocess(scenario)
        pool = OffloadPool.from_options(
            tiny_options(
                compaction_offload=mode,
                compaction_offload_mp_context="fork",
                compaction_workers=2,
            )
        )
        try:
            env, child, new_meta, stats = self._run_offloaded(pool, scenario)
        finally:
            pool.close()
        name = ref_child.file_name()
        ref_bytes = ref_env.fs._read(name, 0, ref_env.fs.file_size(name))
        got_bytes = env.fs._read(name, 0, env.fs.file_size(name))
        assert got_bytes == ref_bytes
        assert env.fs.digest() == ref_env.fs.digest()
        assert (new_meta.file_size, new_meta.valid_bytes, new_meta.num_entries) == (
            ref_meta.file_size,
            ref_meta.valid_bytes,
            ref_meta.num_entries,
        )
        assert (stats.clean_blocks, stats.dirty_blocks, stats.new_blocks) == (
            ref_stats.clean_blocks,
            ref_stats.dirty_blocks,
            ref_stats.new_blocks,
        )
        # The replayed script ends in the same SectionWriter.finish, so the
        # reload adopted its index and filter: they are what a full parse
        # of the file gives, and both sides paid the same I/O for them.
        assert env.fs.stats == ref_env.fs.stats
        adopted = env.reader(child)
        parsed = TableReader(env.fs, name, child.file_number, env.options)
        assert adopted.index is not parsed.index
        for reader in (adopted, ref_env.reader(ref_child)):
            assert reader.footer == parsed.footer
            assert reader.index.entries == parsed.index.entries
            assert reader.index.memory_bytes() == parsed.index.memory_bytes()
            assert reader.filter.serialize() == parsed.filter.serialize()
            assert reader.file_size == parsed.file_size
        return env, child, stats

    @pytest.mark.parametrize("mode", ["process"])
    def test_file_bytes_bit_identical(self, mode):
        """The offloaded append writes the exact same bytes the in-process
        path does."""
        self._check_bit_identical(_make_scenario, mode)

    @pytest.mark.parametrize("mode", ["process"])
    def test_file_bytes_bit_identical_on_cut_boundaries(self, mode):
        """The same on the boundaries the cut rule decides — and the
        scenario is what it claims: rebuilt blocks well past the cut size
        because one key's versions cannot be split (two of them holding that
        key alone), and reuses between the merges."""
        env, child, stats = self._check_bit_identical(_make_versions_scenario, mode)
        entries = env.reader(child).index.entries
        oversized = [e for e in entries if e.size > 1.4 * env.options.block_size]
        assert len(oversized) >= 4
        assert sum(e.smallest_user_key == e.largest_user_key for e in oversized) >= 2
        assert (stats.dirty_blocks, stats.clean_blocks) == (3, 5)

    def test_shared_memory_transport(self):
        """Forcing the shm path (threshold 0) produces the same file."""
        ref_env, ref_child, _, _ = self._run_inprocess()
        pool = OffloadPool(2, mp_context="fork", shm_threshold=0)
        try:
            env, child, _, _ = self._run_offloaded(pool)
        finally:
            pool.close()
        assert env.fs.digest() == ref_env.fs.digest()

    def test_vlog_drops_reported_like_in_process(self):
        """The worker runs the same merge kernel, so the value-log pointers
        a block merge drops reach the parent's garbage ledger exactly as
        in-process (the offloaded twin used to report none)."""

        def run(pool):
            env = FakeEnv(with_vlog=True)
            child = env.build(
                [k(i) for i in range(0, 60, 2)],
                value=lambda i: encode_pointer(7 + i % 2, 1000 * i, 100 + i),
                register=2,
            )
            # 4, 8, 20 and 46 overwrite (8: delete) keys stored as pointers.
            slice_ = parent_entries([1, 4, 8, 20, 33, 46, 70], tombstones=(8,))
            block_compact_file(env, slice_, child, 2, pool=pool)
            return env.vlog.take_pending_dead()

        pool = OffloadPool(2, mp_context="fork")
        try:
            offloaded = run(pool)
        finally:
            pool.close()
        in_process = run(None)
        assert in_process == [(7, 100 + 2 + 100 + 4 + 100 + 10), (8, 100 + 23)]
        assert offloaded == in_process

    def test_file_emptied_by_tombstones_returns_no_metadata(self):
        """The offload branch shares block_compact_file's tail: a file whose
        every key the worker's merge dropped comes back as None (no catalog
        entry without bounds), with the same bytes as in-process."""
        keys = [k(i) for i in range(0, 12, 2)]

        def run(pool):
            env = FakeEnv()
            child = env.build(keys, register=2)
            slice_ = parent_entries(range(0, 12, 2), tombstones=range(0, 12, 2))
            new_meta, stats = block_compact_file(env, slice_, child, 2, pool=pool)
            return env, new_meta, stats

        pool = OffloadPool(2, mp_context="fork")
        try:
            env, new_meta, stats = run(pool)
        finally:
            pool.close()
        ref_env, ref_meta, ref_stats = run(None)
        assert new_meta is None and ref_meta is None
        assert (stats.dirty_blocks, stats.new_blocks) == (ref_stats.dirty_blocks, 0)
        assert env.fs.digest() == ref_env.fs.digest()

    def test_tombstone_rule_bit_identical_when_deeper_levels_overlap(self):
        """A deeper level overlaps the child's range but not every tombstoned
        key.  Both sides apply the one tombstone rule shipped in the job, so
        they drop the same tombstones (8, 70), keep the same one (21, which
        the deeper file may hold) and write the same bytes."""

        def scenario(env):
            env.build([k(20), k(22)], register=3)
            child = env.build([k(i) for i in range(0, 60, 2)], register=2)
            slice_ = parent_entries(
                [1, 4, 8, 21, 33, 47, 70, 75], tombstones=(8, 21, 70)
            )
            return child, slice_

        env, child, _stats = self._check_bit_identical(scenario)
        reader = env.reader(child)
        keys = {ck[0] for ck, _ in reader.entries_from(category="compaction")}
        assert k(8) not in keys and k(70) not in keys
        assert reader.get(k(21), SNAP) == (True, None)  # shadows L3
        assert reader.get(k(4), SNAP) == (True, b"new" * 12)


# ------------------------------------------------------------ failure paths


class _BrokenExecutor:
    """Stands in for a process pool whose workers died."""

    def __init__(self):
        self.shutdowns = 0

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future

    def shutdown(self, wait=True):
        self.shutdowns += 1


class TestFailureSemantics:
    def _job(self):
        env = FakeEnv()
        child, slice_ = _make_scenario(env)
        reader = env.reader(child)
        scan = find_dirty_blocks([ck[0] for ck, _ in slice_], reader.index)
        return prepare_block_merge_job(env, reader, slice_, child, 2, scan)

    def test_broken_pool_raises_offload_error_and_rebuilds(self):
        pool = OffloadPool(1, mp_context="fork")
        broken = _BrokenExecutor()
        pool._executor = broken
        try:
            with pytest.raises(OffloadError):
                pool.run(self._job())
            assert pool.restarts == 1
            assert broken.shutdowns == 1
            # the next submission builds a fresh pool and succeeds
            result = pool.run(self._job())
            assert result.ops
        finally:
            pool.close()

    def test_offload_error_is_hard_severity(self):
        """A dead worker degrades the DB (read-only), it does not hang or
        get retried as transient."""
        assert classify_severity(OffloadError("worker died")) == SEVERITY_HARD

    def test_closed_pool_refuses_jobs(self):
        pool = OffloadPool(1, mp_context="fork")
        pool.close()
        with pytest.raises(OffloadError):
            pool.run(self._job())

    def test_close_is_idempotent(self):
        pool = OffloadPool(1, mp_context="fork")
        pool.run(self._job())
        pool.close()
        pool.close()


# ------------------------------------------------------------ DB lifecycle


def _live_worker_threads():
    return [
        t
        for t in threading.enumerate()
        if t.name.startswith("repro-subtask")
    ]


def _offload_db_options(**overrides):
    return tiny_options(
        compaction_style=COMPACTION_SELECTIVE,
        compaction_offload="process",
        compaction_offload_mp_context="fork",
        compaction_workers=2,
        **overrides,
    )


class TestExecutorLifecycle:
    def test_close_drains_pools(self):
        """DB.close() during/after offloaded compactions joins every worker
        thread deterministically — no leaked executors."""
        fs = SimulatedFS()
        db = DB(fs, _offload_db_options(), seed=1)
        for i in range(800):
            db.put(f"key{i % 300:06d}".encode(), b"x" * 40)
        pool = db._subtasks.offload_pool
        assert pool is not None
        assert db._subtasks._threads is not None
        db.close()
        assert pool._closed
        assert pool._executor is None
        assert _live_worker_threads() == []

    def test_close_with_background_compaction(self):
        """Close while the background worker may hold in-flight subtasks:
        scheduler drains first, then the subtask pool, then offload."""
        fs = SimulatedFS()
        db = DB(fs, _offload_db_options(background_compaction=True), seed=1)
        for i in range(800):
            db.put(f"key{i % 300:06d}".encode(), b"x" * 40)
        db.close()
        assert _live_worker_threads() == []

    def test_failed_open_leaks_no_workers(self):
        """A constructor failure after the executors start must tear them
        down (non-daemon threads would otherwise keep the process alive)."""
        fs = SimulatedFS()
        db = DB(fs, _offload_db_options(), seed=1)
        db.put(b"k", b"v")
        db.close()
        assert _live_worker_threads() == []
        # Point CURRENT at a manifest that does not exist: recovery raises
        # *after* the executors were constructed.
        fs.delete_file("CURRENT")
        writer = fs.create_file("CURRENT")
        writer.append(b"MANIFEST-999999\n")
        writer.close()
        with pytest.raises(Exception):
            DB(fs, _offload_db_options(), seed=1)
        assert _live_worker_threads() == []

    def test_offload_enables_subtask_threads(self):
        """Offload mode implies real subtask threads so subtask I/O
        overlaps offloaded compute."""
        fs = SimulatedFS()
        db = DB(fs, _offload_db_options(), seed=1)
        try:
            assert db._subtasks._threads is not None
        finally:
            db.close()

    def test_background_mode_enables_subtask_threads(self):
        """The concurrent pipeline already runs compaction off the calling
        thread, so its sub-tasks run on real threads too — without an
        offload pool."""
        db = DB(SimulatedFS(), tiny_options(background_compaction=True), seed=1)
        try:
            assert db._subtasks._threads is not None
            assert db._subtasks.offload_pool is None
        finally:
            db.close()
        assert _live_worker_threads() == []

    def test_default_mode_has_no_pools(self):
        fs = SimulatedFS()
        db = DB(fs, tiny_options(), seed=1)
        try:
            assert db._subtasks.offload_pool is None
            assert db._subtasks._threads is None
        finally:
            db.close()


# -------------------------------------------- scheduling / partition properties


class TestLptMakespanEdgeCases:
    def test_empty_list(self):
        assert lpt_makespan([], 4) == 0.0

    def test_single_subtask(self):
        assert lpt_makespan([3.5], 4) == 3.5

    def test_all_equal_costs(self):
        # 8 equal tasks on 4 workers pack perfectly: two rounds.
        assert lpt_makespan([2.0] * 8, 4) == 4.0

    def test_cost_larger_than_budget(self):
        # One dominating task bounds the makespan from below no matter how
        # many workers exist.
        assert lpt_makespan([100.0, 1.0, 1.0, 1.0], 4) == 100.0

    def test_one_worker_is_serial(self):
        assert lpt_makespan([1.0, 2.0, 3.0], 1) == 6.0


class _ChildStub:
    """Just enough FileMetadata for partition_parent_slices."""

    def __init__(self, smallest):
        self.smallest_user_key = smallest


if HAVE_HYPOTHESIS:
    durations_st = st.lists(st.floats(0.0, 1e6, allow_nan=False), max_size=50)

    @given(durations_st, st.integers(1, 8))
    @settings(deadline=None)
    def test_makespan_bounds(durations, workers):
        """max(d) <= makespan <= sum(d), and makespan >= sum/workers."""
        span = lpt_makespan(durations, workers)
        total = sum(durations)
        assert span <= total
        if durations:
            assert span >= max(durations)
            assert span * workers >= total - 1e-6 * total

    @given(durations_st, st.integers(1, 7))
    @settings(deadline=None)
    def test_makespan_monotone_in_workers(durations, workers):
        """Adding a worker never makes the schedule longer."""
        assert lpt_makespan(durations, workers + 1) <= lpt_makespan(
            durations, workers
        ) + 1e-9

    @given(
        st.lists(st.integers(0, 999), min_size=0, max_size=60),
        st.lists(st.integers(0, 999), min_size=1, max_size=6, unique=True),
    )
    @settings(deadline=None)
    def test_partition_preserves_order_and_routes_keys(ordinals, bounds):
        """Concatenating the slices reproduces the parent entries exactly,
        and every entry lands in the child whose range owns its key."""
        entries = parent_entries(sorted(ordinals))
        children = [_ChildStub(k(b)) for b in sorted(bounds)]
        slices = partition_parent_slices(entries, children)
        assert len(slices) == len(children)
        assert [e for s in slices for e in s] == entries
        boundaries = [c.smallest_user_key for c in children[1:]]
        for idx, slice_ in enumerate(slices):
            for ck, _value in slice_:
                user_key = ck[0]
                if idx > 0:
                    assert user_key >= boundaries[idx - 1]
                if idx < len(boundaries):
                    assert user_key < boundaries[idx]

    @given(st.lists(st.integers(0, 999), max_size=40))
    @settings(deadline=None)
    def test_partition_single_child_takes_everything(ordinals):
        entries = parent_entries(sorted(ordinals))
        slices = partition_parent_slices(entries, [_ChildStub(k(500))])
        assert slices == [entries]


def test_partition_rejects_no_children():
    with pytest.raises(ValueError):
        partition_parent_slices([], [])


# ------------------------------------------------- DB-level content equality


class TestDBWithOffload:
    @pytest.mark.parametrize("mode", ["process"])
    def test_selective_db_content_matches_default(self, mode):
        def run(offload):
            fs = SimulatedFS()
            db = DB(
                fs,
                tiny_options(
                    compaction_style=COMPACTION_SELECTIVE,
                    compaction_offload=offload,
                    compaction_offload_mp_context="fork",
                    compaction_workers=2,
                ),
                seed=1,
            )
            for i in range(1200):
                db.put(f"key{i % 400:06d}".encode(), f"v{i}".encode() * 5)
                if i % 13 == 0:
                    db.delete(f"key{(i * 7) % 400:06d}".encode())
            data = dict(db.scan())
            db.close()
            return data

        assert run(mode) == run("none")

    @pytest.mark.parametrize("kv_separation", [False, True], ids=["inline", "kv"])
    def test_offloaded_run_writes_what_the_in_process_run_writes(self, kv_separation):
        """One seeded op list — puts plus ~25 % deletes, selective style,
        small geometry — in-process and offloaded: the same scan, the same
        compaction bytes (so the same WA), the same value-log garbage
        ledger, and the same multiset of ``.sst`` contents.  (Not the fs
        digest: threaded sub-tasks number output files in completion order.)
        Deeper levels overlap many block compactions' ranges without holding
        their tombstoned keys, which is where two tombstone rules would
        diverge."""
        rng = random.Random(29)
        ops = []
        for _ in range(3000):
            key = b"key%05d" % rng.randrange(2000)
            value = None if rng.random() < 0.25 else b"v" * rng.randrange(8, 48)
            ops.append((key, value))

        def run(offload):
            fs = SimulatedFS()
            db = DB(
                fs,
                tiny_options(
                    compaction_style=COMPACTION_SELECTIVE,
                    compaction_offload=offload,
                    compaction_offload_mp_context="fork",
                    compaction_workers=2,
                    kv_separation=kv_separation,
                    kv_separation_threshold=24,
                ),
                seed=1,
            )
            for key, value in ops:
                if value is None:
                    db.delete(key)
                else:
                    db.put(key, value)
            scan = db.scan()
            stats = db.stats
            outcome = {
                "scan": scan,
                "compaction_bytes_written": stats.compaction_bytes_written,
                "write_amplification": stats.write_amplification(),
                "block_compactions": stats.block_compactions,
                "vlog_dead_bytes_observed": stats.vlog_dead_bytes_observed,
                "vlog_ledger": sorted(db.version.vlog.items()),
            }
            db.close()
            outcome["sst_contents"] = sorted(
                fs._read(name, 0, fs.file_size(name))
                for name in fs.list_dir()
                if name.endswith(".sst")
            )
            return outcome

        in_process, offloaded = run("none"), run("process")
        assert in_process["block_compactions"] > 0
        if kv_separation:
            assert in_process["vlog_dead_bytes_observed"] > 0
        assert offloaded == in_process
