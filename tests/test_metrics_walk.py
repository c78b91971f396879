"""The one metrics walk (DESIGN.md §8): ``collect`` covers every engine
counter over a DB, a ShardedDB and a ShardServer; the rollups and the
``OP_STATS`` payload read the same fields; the walk reads the catalog
under the engine lock."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.db import DB
from repro.metrics.stats import NUMERIC_FIELDS
from repro.obs import collect, render_prometheus
from repro.serve import ServeClient, ShardServer
from repro.sharding import MemoryShardStore, ShardedDB
from repro.storage.fs import SimulatedFS
from repro.storage.io_stats import COUNTER_FIELDS

from conftest import make_db, tiny_options

#: Every optional section of the walk switched on.
EVERY_SECTION = dict(
    kv_separation=True,
    kv_separation_threshold=48,
    vlog_file_size=4096,
    latency_histograms=True,
    tracing=True,
    cache_shards=4,
)


def drive(db, ops: int = 400) -> None:
    """Updates, deletes, gets and short scans over a 300-key space."""
    for i in range(ops):
        db.put(b"k%05d" % ((i * 7919) % 300), b"v" * (20 + (i % 5) * 20))
        if i % 3 == 0:
            db.get(b"k%05d" % ((i * 31) % 300))
        if i % 50 == 0:
            db.scan(b"k00100", limit=10)
        if i % 97 == 0:
            db.delete(b"k%05d" % ((i * 13) % 300))


def plain_db() -> DB:
    db = DB(SimulatedFS(), tiny_options(**EVERY_SECTION))
    drive(db)
    return db


def sharded_db() -> ShardedDB:
    db = ShardedDB(
        MemoryShardStore(), tiny_options(**EVERY_SECTION), shards=2,
        boundaries=[b"k00150"],
    )
    drive(db)
    return db


def served(db, scenario):
    """Run ``scenario(client, server)`` against a live server over ``db``."""

    async def run():
        server = ShardServer(db, "127.0.0.1", 0, executor_threads=2)
        await server.start()
        client = await ServeClient("127.0.0.1", server.port).connect()
        try:
            return await scenario(client, server)
        finally:
            await client.aclose()
            await server.aclose()

    return asyncio.run(run())


def scrape_through_server(db):
    async def scenario(client, server):
        await client.put(b"k00001", b"served")
        assert await client.get(b"k00001") == b"served"
        return collect(server)

    return served(db, scenario)


TARGETS = {
    "db": (plain_db, collect),
    "sharded": (sharded_db, collect),
    "server-db": (plain_db, scrape_through_server),
    "server-sharded": (sharded_db, scrape_through_server),
}


@pytest.fixture(params=sorted(TARGETS))
def scraped(request):
    """(target kind, its samples)."""
    build, scrape = TARGETS[request.param]
    db = build()
    try:
        yield request.param, scrape(db)
    finally:
        db.close()


def test_every_stats_field_and_section_is_scraped(scraped):
    kind, samples = scraped
    names = {sample.name for sample in samples}
    assert {f"repro_{name}" for name in NUMERIC_FIELDS} <= names
    for name in COUNTER_FIELDS:  # ``sim_time_s`` renders as ``_seconds``
        io_name = f"repro_io_{name.removesuffix('_s')}"
        assert any(n.startswith(io_name) for n in names), name
    assert {
        # DBStats list fields, and IOStats' per-category breakdowns
        "repro_level_write_bytes",
        "repro_level_max_obsolete_bytes",
        "repro_io_category_bytes",
        "repro_io_category_ops",
        "repro_io_category_sim_time_seconds",
        # catalog, value log, policy, caches, histograms, tracer
        "repro_level_files",
        "repro_level_obsolete_bytes",
        "repro_vlog_files",
        "repro_vlog_file_bytes",
        "repro_compaction_policy_info",
        "repro_compactions_by_reason",
        "repro_block_cache_hits",
        "repro_table_cache_misses",
        "repro_get_latency_seconds",
        "repro_trace_events_recorded",
    } <= names
    if kind.startswith("server"):
        assert {"repro_serve_requests", "repro_serve_inline",
                "repro_serve_draining"} <= names
    if kind.endswith("sharded"):
        assert {"repro_router_shards", "repro_router_epoch",
                "repro_router_splits_total", "repro_router_merges_total"} <= names
        engine = [s for s in samples
                  if not s.name.startswith(("repro_router_", "repro_serve_"))]
        assert all(s.labels[0][0] == "shard" for s in engine)


def test_rendered_families_are_typed_once_and_contiguous():
    """Two shards sample every engine family; each still renders as one
    block under one ``# TYPE`` line."""
    db = sharded_db()
    try:
        body = render_prometheus(db)
        expected = {s.name for s in collect(db)}
    finally:
        db.close()
    families = []
    for line in body.splitlines():
        if line.startswith("# TYPE "):
            families.append(line.split()[2])
        else:
            assert line.startswith(families[-1]), line
    assert len(families) == len(set(families))
    assert set(families) == expected


def test_server_scrape_of_a_sharded_db_carries_router_gauges():
    async def scenario(_client, server):
        return render_prometheus(server)

    db = sharded_db()
    try:
        body = served(db, scenario)
    finally:
        db.close()
    assert "repro_router_shards 2" in body
    assert "repro_router_splits_total 0" in body
    assert 'repro_user_writes{shard="shard-000000"}' in body


def test_aggregate_stats_sums_every_numeric_field():
    db = sharded_db()
    try:
        shards = [shard for _, shard in db.shard_dbs()]
        total = db.aggregate_stats()
        for name in NUMERIC_FIELDS:
            assert total[name] == sum(getattr(s.stats, name) for s in shards), name
        assert total["vlog_separated_values"] > 0  # a field the hand list lacked
        io = db.aggregate_io_stats()
        for name in COUNTER_FIELDS:
            expected = sum(getattr(s.io_stats, name) for s in shards)
            expected += getattr(db.store.root_fs.stats, name)
            assert getattr(io, name) == pytest.approx(expected), name
    finally:
        db.close()


def test_op_stats_over_a_plain_db_has_an_engine_section():
    db = make_db()

    async def scenario(client, _server):
        await client.put(b"k", b"v")
        return await client.stats()

    try:
        stats = served(db, scenario)
    finally:
        db.close()
    assert set(stats["engine"]) == set(NUMERIC_FIELDS)
    assert stats["engine"]["user_writes"] == 1
    assert "shards" not in stats


def test_walk_reads_under_the_engine_lock():
    db = make_db()
    db.put(b"k", b"v")
    done = threading.Event()
    walker = threading.Thread(target=lambda: (collect(db), done.set()), daemon=True)
    try:
        with db._lock:
            walker.start()
            assert not done.wait(0.2), "the walk ran while the engine lock was held"
        assert done.wait(10.0)
        walker.join(timeout=10.0)
        assert not walker.is_alive()
    finally:
        db.close()
