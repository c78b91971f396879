"""Range-sharded engine tests (DESIGN.md §12).

Covers the router map and its crash-safe catalog, ShardedDB data ops
across shard boundaries, split/merge correctness and persistence, orphan
GC on reopen, the single-shard bit-identity guarantee, shared cache
budgets, the multi-tenant YCSB driver, the per-shard observability
surfaces, and the machine-crash harness for the split/merge protocol.
The :func:`stable_hash` subprocess test pins the satellite fix: shard
routing must not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import pytest

from repro.core.db import DB
from repro.core.write_batch import WriteBatch
from repro.errors import InvalidArgumentError, WouldBlock
from repro.sharding import (
    LocalShardStore,
    MemoryShardStore,
    RouterMap,
    ShardedDB,
    load_router,
    save_router,
)
from repro.storage.fs import SimulatedFS

from conftest import tiny_options


def fill(db, n: int, *, prefix: bytes = b"key") -> dict[bytes, bytes]:
    state = {}
    for i in range(n):
        key = prefix + b"%05d" % i
        value = b"v%06d" % i
        db.put(key, value)
        state[key] = value
    return state


# ------------------------------------------------------------- router map


class TestRouterMap:
    def test_initial_uniform_boundaries(self):
        rmap = RouterMap.initial(4, None)
        assert len(rmap) == 4
        names = [spec.name for spec in rmap.specs]
        assert len(set(names)) == 4
        # Uniform byte-space boundaries: the upper bound chain is sorted
        # and the last shard is unbounded.
        uppers = [spec.upper for spec in rmap.specs]
        assert uppers[-1] is None
        assert all(u is not None for u in uppers[:-1])
        assert uppers[:-1] == sorted(uppers[:-1])

    def test_explicit_boundaries_route(self):
        rmap = RouterMap.initial(2, [b"m"])
        assert rmap.shard_for(b"apple") == 0
        assert rmap.shard_for(b"m") == 1  # boundary is the right shard's lower
        assert rmap.shard_for(b"zebra") == 1

    def test_split_and_merge_roundtrip(self):
        rmap = RouterMap.initial(1, None)
        split, left, right = rmap.split(0, b"k")
        assert len(split) == 2
        assert split.shard_for(b"a") == 0 and split.shard_for(b"z") == 1
        assert split.epoch > rmap.epoch
        merged, child = split.merge(0)
        assert len(merged) == 1
        assert merged.specs[0].name == child.name
        assert merged.specs[0].upper is None

    def test_save_load_roundtrip(self):
        fs = SimulatedFS()
        rmap = RouterMap.initial(3, [b"h", b"q"])
        save_router(fs, rmap)
        loaded = load_router(fs)
        assert loaded is not None
        assert [s.name for s in loaded.specs] == [s.name for s in rmap.specs]
        assert [s.upper for s in loaded.specs] == [s.upper for s in rmap.specs]
        assert loaded.epoch == rmap.epoch

    def test_load_empty_store(self):
        assert load_router(SimulatedFS()) is None


# ------------------------------------------------------------- data plane


class TestShardedOps:
    def test_put_get_delete_across_shards(self):
        db = ShardedDB(MemoryShardStore(), tiny_options(), shards=2,
                       boundaries=[b"m"])
        db.put(b"apple", b"1")
        db.put(b"zebra", b"2")
        assert db.get(b"apple") == b"1"
        assert db.get(b"zebra") == b"2"
        db.delete(b"apple")
        assert db.get(b"apple") is None
        assert db.get(b"missing", b"dflt") == b"dflt"
        db.close()

    def test_scan_is_globally_sorted(self):
        db = ShardedDB(MemoryShardStore(), tiny_options(), shards=4)
        state = fill(db, 64)
        # Spread keys over the byte space so every shard holds some.
        for i in range(64):
            key = bytes([i * 4]) + b"x"
            db.put(key, b"y")
            state[key] = b"y"
        got = db.scan()
        assert [k for k, _ in got] == sorted(state)
        assert dict(got) == state
        assert db.scan(limit=7) == got[:7]
        # ``limit`` as on ``DB.scan``: 0 is none, negative is refused.
        assert db.scan(limit=0) == []
        with pytest.raises(InvalidArgumentError):
            db.scan(limit=-1)
        lo, hi = sorted(state)[10], sorted(state)[30]
        assert dict(db.scan(lo, hi)) == {
            k: v for k, v in state.items() if lo <= k < hi
        }
        db.close()

    def test_multi_get_and_cross_shard_batch(self):
        db = ShardedDB(MemoryShardStore(), tiny_options(), shards=2,
                       boundaries=[b"m"])
        batch = WriteBatch()
        batch.put(b"aaa", b"1")
        batch.put(b"zzz", b"2")
        batch.delete(b"never-there")
        db.write_batch(batch)
        got = db.multi_get([b"aaa", b"zzz", b"nope"])
        assert got == {b"aaa": b"1", b"zzz": b"2", b"nope": None}
        db.close()

    def test_nowait_ops_match_waiting_ops(self):
        db = ShardedDB(MemoryShardStore(), tiny_options(), shards=2,
                       boundaries=[b"m"])
        db.put(b"apple", b"1", wait=False)
        db.put(b"zebra", b"2", wait=False)
        db.write(WriteBatch().put(b"ant", b"3").delete(b"absent"), wait=False)
        assert db.get(b"zebra", wait=False) == b"2"
        assert db.get(b"nope", b"dflt", wait=False) == b"dflt"
        assert db.multi_get([b"ant", b"zebra", b"nope"], wait=False) == {
            b"ant": b"3", b"zebra": b"2", b"nope": None,
        }
        assert db.scan(limit=10, wait=False) == db.scan(limit=10) == [
            (b"ant", b"3"), (b"apple", b"1"), (b"zebra", b"2"),
        ]
        db.delete(b"apple", wait=False)
        assert db.get(b"apple") is None
        db.close()

    def test_nowait_ops_decline_while_a_router_edit_holds_the_lock(self):
        db = ShardedDB(MemoryShardStore(), tiny_options(), shards=2,
                       boundaries=[b"m"])
        db.put(b"apple", b"1")
        sequences = [shard.last_sequence for _, shard in db.shard_dbs()]
        assert db._rw.acquire_write()  # what split_shard / merge_shards hold
        try:
            for call in (
                lambda: db.put(b"k", b"v", wait=False),
                lambda: db.delete(b"apple", wait=False),
                lambda: db.write(WriteBatch().put(b"k", b"v"), wait=False),
                lambda: db.get(b"apple", wait=False),
                lambda: db.multi_get([b"apple"], wait=False),
                lambda: db.scan(limit=1, wait=False),
            ):
                with pytest.raises(WouldBlock):
                    call()
        finally:
            db._rw.release_write()
        assert [shard.last_sequence for _, shard in db.shard_dbs()] == sequences
        assert db.get(b"apple", wait=False) == b"1"
        db.close()

    def test_nowait_batch_spanning_shards_declines_with_neither_written(self):
        db = ShardedDB(MemoryShardStore(), tiny_options(), shards=2,
                       boundaries=[b"m"])
        batch = WriteBatch().put(b"aaa", b"1").put(b"zzz", b"2")
        with pytest.raises(WouldBlock):
            db.write_batch(batch, wait=False)
        assert [shard.last_sequence for _, shard in db.shard_dbs()] == [0, 0]
        assert db.multi_get([b"aaa", b"zzz"]) == {b"aaa": None, b"zzz": None}
        db.write_batch(batch)  # per-shard atomic only, so it may wait
        assert db.multi_get([b"aaa", b"zzz"]) == {b"aaa": b"1", b"zzz": b"2"}
        db.close()

    def test_nowait_fanned_out_read_declines_before_any_shard_runs(self):
        """A later shard's busy lock must not leave the earlier shards'
        parts counted and charged: the hop re-runs the whole call."""
        db = ShardedDB(MemoryShardStore(), tiny_options(), shards=2,
                       boundaries=[b"m"])
        db.put(b"aaa", b"1")
        db.put(b"zzz", b"2")
        first, second = (shard for _, shard in db.shard_dbs())
        held, done = threading.Event(), threading.Event()

        def hold() -> None:
            with second._lock:
                held.set()
                done.wait(10.0)

        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(10.0)
        try:
            with pytest.raises(WouldBlock):
                db.multi_get([b"aaa", b"zzz"], wait=False)
            with pytest.raises(WouldBlock):
                db.scan(limit=5, wait=False)
            assert first.stats.gets == 0 and first.stats.scans == 0
            # The first shard alone is still served, and its lock is free.
            assert db.multi_get([b"aaa"], wait=False) == {b"aaa": b"1"}
            assert db.scan(end=b"b", limit=5, wait=False) == [(b"aaa", b"1")]
        finally:
            done.set()
            holder.join()
        assert db.multi_get([b"aaa", b"zzz"], wait=False) == {b"aaa": b"1", b"zzz": b"2"}
        assert db.scan(limit=5, wait=False) == [(b"aaa", b"1"), (b"zzz", b"2")]
        assert first.stats.gets == 2 and first.stats.scans == 2
        db.close()

    def test_nowait_write_declines_when_a_rebalance_check_is_due(self):
        # The check may split on the calling thread: the write that makes
        # it due is the one that has to be allowed to wait.
        db = ShardedDB(
            MemoryShardStore(), tiny_options(), shards=1, auto_rebalance=True,
            split_threshold_bytes=1 << 30, rebalance_check_interval=4,
        )
        for i in range(3):
            db.put(b"k%d" % i, b"v", wait=False)
        with pytest.raises(WouldBlock):
            db.put(b"k3", b"v", wait=False)
        assert db.get(b"k3") is None
        db.put(b"k3", b"v")  # runs the check, resets the count
        db.put(b"k4", b"v", wait=False)
        db.close()

    def test_closed_db_raises(self):
        db = ShardedDB(MemoryShardStore(), tiny_options(), shards=2)
        db.close()
        db.close()  # idempotent
        with pytest.raises(Exception):
            db.put(b"k", b"v")


def _free_to_another_thread(lock) -> bool:
    """Whether another thread can take ``lock`` now (an engine's lock is
    reentrant, so the test thread's own try-lock proves nothing)."""
    got = []

    def probe() -> None:
        if lock.acquire(blocking=False):
            lock.release()
            got.append(True)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return bool(got)


class TestRouterLock:
    """The data ops hold the router as readers between a plain enter and
    an exit in ``finally`` (no context manager): every exit must release,
    and the writer preference must hold for waiting and no-wait reads."""

    @staticmethod
    def _db():
        db = ShardedDB(MemoryShardStore(), tiny_options(), shards=2, boundaries=[b"m"])
        db.put(b"apple", b"1")
        db.put(b"zebra", b"2")
        return db

    @pytest.mark.parametrize("op", [
        "get", "put", "delete", "multi_get", "scan", "write",
    ])
    @pytest.mark.parametrize("wait", [True, False])
    def test_a_reader_that_raises_releases_its_hold(self, op, wait, monkeypatch):
        db = self._db()
        calls = {
            "get": lambda: db.get(b"apple", wait=wait),
            "put": lambda: db.put(b"apple", b"x", wait=wait),
            "delete": lambda: db.delete(b"apple", wait=wait),
            "multi_get": lambda: db.multi_get([b"apple", b"zebra"], wait=wait),
            "scan": lambda: db.scan(limit=5, wait=wait),
            "write": lambda: db.write(WriteBatch().put(b"apple", b"x"), wait=wait),
        }
        engine = db.shard_dbs()[0][1]
        engine_op = "multi_get" if op == "multi_get" else op

        def fail(*args, **kwargs):
            raise RuntimeError("engine failure")

        monkeypatch.setattr(engine, engine_op, fail)
        with pytest.raises(RuntimeError, match="engine failure"):
            calls[op]()
        assert db._rw._readers == 0
        # A router edit can take the lock at once, and every engine is free.
        assert db._rw.acquire_write(blocking=False)
        db._rw.release_write()
        assert all(_free_to_another_thread(e._lock) for _, e in db.shard_dbs())
        monkeypatch.undo()
        assert db.get(b"zebra", wait=wait) == b"2"
        db.close()

    def test_while_a_writer_waits_nowait_reads_decline_and_waiting_reads_wait(self):
        db = self._db()
        rw = db._rw
        rw.enter_read()  # an in-flight reader the writer has to wait out
        writer_in = threading.Event()
        order: list[str] = []

        def writer() -> None:
            rw.acquire_write()
            writer_in.set()
            order.append("writer")
            rw.release_write()

        def waiting_reader() -> None:
            order.append(("reader", db.get(b"apple")))

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        for _ in range(1000):  # the writer has announced itself
            if rw._writer:
                break
            writer_in.wait(0.005)
        assert rw._writer and not writer_in.is_set()
        for call in (
            lambda: db.get(b"apple", wait=False),
            lambda: db.put(b"k", b"v", wait=False),
            lambda: db.multi_get([b"apple", b"zebra"], wait=False),
            lambda: db.scan(limit=1, wait=False),
        ):
            with pytest.raises(WouldBlock):
                call()
        reader_thread = threading.Thread(target=waiting_reader)
        reader_thread.start()
        reader_thread.join(0.2)
        assert reader_thread.is_alive() and order == []  # behind the writer
        rw.exit_read()
        writer_thread.join(10.0)
        reader_thread.join(10.0)
        assert order == ["writer", ("reader", b"1")]
        assert rw._readers == 0 and not rw._writer
        db.close()

    @pytest.mark.parametrize("read", ["multi_get", "scan"])
    def test_a_declined_fanned_out_read_has_locked_no_shard(self, read):
        db = self._db()
        first, second = (engine for _, engine in db.shard_dbs())
        held, done = threading.Event(), threading.Event()

        def hold() -> None:
            with second._lock:
                held.set()
                done.wait(10.0)

        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(10.0)
        try:
            with pytest.raises(WouldBlock):
                if read == "multi_get":
                    db.multi_get([b"apple", b"zebra"], wait=False)
                else:
                    db.scan(limit=5, wait=False)
            assert _free_to_another_thread(first._lock)
            assert db._rw._readers == 0
        finally:
            done.set()
            holder.join()
        db.close()


class TestSingleShardIdentity:
    def test_bit_identical_to_plain_db(self):
        """With shards=1 the router is a pass-through: simulated I/O
        accounting and engine counters match a plain DB exactly."""
        options = tiny_options()
        plain_fs = SimulatedFS()
        plain = DB(plain_fs, options)

        store = MemoryShardStore()
        sharded = ShardedDB(store, tiny_options(), shards=1)

        for db in (plain, sharded):
            for i in range(120):
                db.put(b"k%04d" % (i % 48), b"v%06d" % i)
                if i % 17 == 0:
                    db.delete(b"k%04d" % ((i * 3) % 48))
            db.flush()

        assert dict(plain.scan()) == dict(sharded.scan())
        shard_db = sharded.shard_dbs()[0][1]
        for field in ("bytes_written", "bytes_read", "write_ops",
                      "read_ops", "files_created", "syncs"):
            assert getattr(plain_fs.stats, field) == getattr(
                shard_db.io_stats, field
            ), field
        assert plain_fs.stats.sim_time_s == shard_db.io_stats.sim_time_s
        assert plain.stats.flush_count == shard_db.stats.flush_count
        plain.close()
        sharded.close()


# ---------------------------------------------------------- split / merge


class TestSplitMerge:
    def test_split_preserves_data_and_persists(self):
        store = MemoryShardStore()
        db = ShardedDB(store, tiny_options(), shards=1)
        state = fill(db, 40)
        children = db.split_shard(0)
        assert children is not None
        assert db.num_shards == 2
        assert db.splits == 1
        assert dict(db.scan()) == state
        # Each shard holds a nonempty, disjoint slice.
        sizes = [len(d.scan(None, None)) for _, d in db.shard_dbs()]
        assert all(s > 0 for s in sizes) and sum(sizes) == len(state)
        db.close()

        reopened = ShardedDB(store, tiny_options())
        assert reopened.num_shards == 2
        assert dict(reopened.scan()) == state
        reopened.close()

    def test_split_at_explicit_key(self):
        db = ShardedDB(MemoryShardStore(), tiny_options(), shards=1)
        state = fill(db, 20)
        assert db.split_shard(0, b"key00010") is not None
        left = db.shard_dbs()[0][1]
        assert all(k < b"key00010" for k, _ in left.scan(None, None))
        assert dict(db.scan()) == state
        db.close()

    def test_split_declines_when_too_small(self):
        db = ShardedDB(MemoryShardStore(), tiny_options(), shards=1)
        db.put(b"only", b"one")
        assert db.split_shard(0) is None
        assert db.num_shards == 1
        db.close()

    def test_merge_preserves_data_and_persists(self):
        store = MemoryShardStore()
        db = ShardedDB(store, tiny_options(), shards=2, boundaries=[b"key00020"])
        state = fill(db, 40)
        child = db.merge_shards(0)
        assert child is not None
        assert db.num_shards == 1
        assert db.merges == 1
        assert dict(db.scan()) == state
        db.close()

        reopened = ShardedDB(store, tiny_options())
        assert reopened.num_shards == 1
        assert dict(reopened.scan()) == state
        reopened.close()

    def test_orphan_shards_gcd_on_reopen(self):
        store = MemoryShardStore()
        db = ShardedDB(store, tiny_options(), shards=2)
        fill(db, 10)
        db.close()
        # A crash mid-split leaves child directories the committed map
        # never references; reopen must drop them.
        orphan = store.open_shard("shard-999999").create_file("junk.sst")
        orphan.append(b"garbage")
        orphan.close()
        reopened = ShardedDB(store, tiny_options())
        assert "shard-999999" not in store.shard_names()
        reopened.close()

    def test_auto_rebalance_splits_hot_shard(self):
        db = ShardedDB(
            MemoryShardStore(), tiny_options(), shards=1,
            auto_rebalance=True,
            split_threshold_bytes=2 * 1024,
            stall_split_threshold=1_000_000,
            rebalance_check_interval=16,
            max_shards=8,
        )
        for i in range(300):
            db.put(b"hot%05d" % i, b"x" * 64)
        db.flush()
        for _ in range(8):
            if db.maybe_rebalance(blocking=True) is None:
                break
        assert db.splits >= 1
        assert db.num_shards >= 2
        assert len(db.scan()) == 300
        db.close()


# --------------------------------------------------------- shared budgets


class TestSharedBudgets:
    def test_shards_share_one_cache_budget(self):
        db = ShardedDB(
            MemoryShardStore(),
            tiny_options(block_cache_capacity=8 * 1024),
            shards=4,
        )
        fill(db, 200)
        db.flush()
        for i in range(200):
            db.get(b"key%05d" % i)
        usage = db.cache_usage()
        # One global budget across all four shards, not 4x.
        assert usage["block_cache_capacity"] == 8 * 1024
        assert usage["block_cache_usage"] <= 8 * 1024
        stats = db.aggregate_stats()
        assert stats["gets"] == 200
        assert stats["shards"] == 4
        db.close()

    def test_aggregate_io_stats_sums_shards(self):
        db = ShardedDB(MemoryShardStore(), tiny_options(), shards=2,
                       boundaries=[b"m"])
        db.put(b"a", b"1")
        db.put(b"z", b"2")
        db.flush()
        total = db.aggregate_io_stats()
        per_shard = [d.io_stats.bytes_written for _, d in db.shard_dbs()]
        assert all(b > 0 for b in per_shard)
        assert total.bytes_written >= sum(per_shard)
        db.close()


# ----------------------------------------------- hash-seed independence


HASH_PROBE = """\
import sys
sys.path.insert(0, {src!r})
from repro.cache.lru import ShardedLRUCache, stable_hash
cache = ShardedLRUCache(1024, shards=8)
keys = [b"block-%d" % i for i in range(16)]
keys += ["table/%d" % i for i in range(16)]
keys += [("ns-%d" % i, i, i * 7) for i in range(16)]
print([stable_hash(k) for k in keys])
print([cache.shard_index(k) for k in keys])
"""


class TestStableHash:
    def test_routing_survives_hash_seed_changes(self, tmp_path):
        """Regression for the satellite fix: ``ShardedLRUCache.shard_index``
        must route identically under any ``PYTHONHASHSEED`` — bytes/str
        keys go through FNV-1a, not the per-process randomized hash."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        script = tmp_path / "probe.py"
        script.write_text(HASH_PROBE.format(src=os.path.abspath(src)))
        outputs = []
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]


# -------------------------------------------------------- multi-tenant ycsb


class TestMultiTenant:
    def test_tenant_keys_and_boundaries(self):
        from repro.ycsb.tenants import (
            make_tenant_key,
            tenant_boundaries,
            tenant_prefix,
        )

        assert tenant_prefix(0) == b"t0000"
        assert make_tenant_key(3, 7).startswith(b"t0003user")
        assert len(make_tenant_key(3, 7)) == 32
        bounds = tenant_boundaries(8, 4)
        assert bounds == [b"t0002", b"t0004", b"t0006"]
        # Boundaries align with tenant prefixes: a shard never splits a
        # tenant's keyspace.
        assert all(b < make_tenant_key(int(b[1:]), 0) for b in bounds)

    def test_hotspot_chooser_deterministic_and_shiftable(self):
        from repro.ycsb.tenants import HotspotChooser

        a = HotspotChooser(1000, 0.9, seed=3, offset=100)
        b = HotspotChooser(1000, 0.9, seed=3, offset=100)
        seq = [a.next() for _ in range(200)]
        assert seq == [b.next() for _ in range(200)]
        assert all(0 <= v < 1000 for v in seq)
        a.shift(500)
        shifted = [a.next() for _ in range(200)]
        assert all(0 <= v < 1000 for v in shifted)

    def test_run_multi_tenant_on_sharded_db(self):
        from repro.ycsb.tenants import (
            load_multi_tenant,
            run_multi_tenant,
            tenant_boundaries,
        )
        from repro.ycsb.workloads import WorkloadSpec

        db = ShardedDB(
            MemoryShardStore(), tiny_options(), shards=2,
            boundaries=tenant_boundaries(4, 2),
        )
        load_multi_tenant(db, num_tenants=4, keys_per_tenant=20)
        spec = WorkloadSpec(
            name="t", read_ratio=0.5, write_ratio=0.5, scan_ratio=0.0,
            write_mode="update", zipf=0.9,
        )
        result = run_multi_tenant(
            db, spec, num_tenants=4, ops_per_tenant=50,
            keys_per_tenant=20, seed=5,
        )
        assert result.ops == 200
        assert len(result.tenants) == 4
        assert all(t.ops == 50 for t in result.tenants)
        assert result.ops_per_wall_sec > 0
        db.close()


# -------------------------------------------------------- observability


class TestShardedObservability:
    def test_prometheus_sharded_labels_and_router_gauges(self):
        from repro.obs import render_prometheus

        db = ShardedDB(MemoryShardStore(), tiny_options(), shards=2,
                       boundaries=[b"m"])
        db.put(b"a", b"1")
        db.put(b"z", b"2")
        db.flush()
        body = render_prometheus(db)
        names = sorted(name for name, _ in db.shard_dbs())
        for name in names:
            assert f'shard="{name}"' in body
        assert "repro_router_shards 2" in body
        assert "repro_router_epoch" in body
        assert "repro_router_splits_total 0" in body
        # One TYPE header per metric even with two shards sampling it.
        assert body.count("# TYPE repro_user_writes counter") == 1
        db.close()

    def test_metrics_tool_renders_sharded_store(self, tmp_path, capsys):
        from repro.tools.__main__ import main as tools_main
        from repro.tools.metrics_report import is_sharded_store

        root = str(tmp_path / "store")
        store = LocalShardStore(root)
        db = ShardedDB(store, tiny_options(), shards=2, boundaries=[b"m"])
        db.put(b"apple", b"1")
        db.put(b"zebra", b"2")
        db.flush()
        db.close()

        assert is_sharded_store(root)
        assert not is_sharded_store(str(tmp_path))
        assert tools_main(["metrics", root]) == 0
        out = capsys.readouterr().out
        assert "Per-shard storage" in out
        assert "aggregate space amplification" in out
        assert "total" in out


# ------------------------------------------------------- crash consistency


class TestShardedCrashHarness:
    def test_machine_crash_sweep_holds_invariants(self):
        from oracle.crashtest import run_crash_test

        report = run_crash_test(num_ops=48, max_points=24, seed=3, sharded=True)
        assert report.total_sync_points > 0
        assert report.points_tested  # the sweep actually crashed somewhere
        assert report.passed, report.summary()

    def test_workload_interleaves_router_edits(self):
        from oracle.crashtest import build_sharded_workload

        ops = build_sharded_workload(64, seed=0)
        kinds = {op[0] for op in ops}
        assert "split" in kinds and "merge" in kinds
        assert build_sharded_workload(64, seed=0) == ops  # deterministic
