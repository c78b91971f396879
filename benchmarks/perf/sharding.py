"""Range-sharded multi-tenant throughput benchmark.

Measures aggregate wall-clock throughput of :class:`ShardedDB` at 1/2/4
shards under the multi-tenant YCSB driver (DESIGN.md §12):
``python benchmarks/perf/run.py sharding``.

The engine's compute is pure Python, so thread overlap cannot speed up
*CPU*; what sharding overlaps is device time.  Every shard owns its own
WAL, memtable, and simulated device (``LocalShardStore`` with a device
factory, ``realtime`` mode: every second charged to a shard's device model
is also slept, with the GIL released).  With one shard, all eight tenants'
writes serialize on one engine lock and one WAL; with tenant-aligned
boundaries and four shards, disjoint tenant groups commit on four
independent WALs in parallel while the shared executor keeps their
flushes/compactions fair.  The headline ``speedup_4s`` is aggregate
throughput at 4 shards over the 1-shard single-engine baseline, same
tenants, same ops.

A second scenario drives a skewed, shifting hotspot (every tenant's Zipf
stripe relocates mid-run) against an auto-rebalancing ShardedDB with a
deliberately low split threshold, and asserts that the router actually
split — the dynamic-rebalance machinery under load, not just the happy
path.

The full-run acceptance bar is 2.5x at 4 shards; quick mode gates on a
deliberately generous floor (it runs on noisy two-core shared runners) so
only a real sharding regression fails, not runner noise.
"""

from __future__ import annotations

import tempfile
import time

SHARD_COUNTS = (1, 2, 4)
TENANTS = 8
METRICS = {
    "speedup_2s": ("higher", None, None),
    "speedup_4s": ("higher", 1.3, 2.5),
    "hotspot_splits": ("higher", 1, 1),
}


def _device():
    """A deliberately slow, op-cost-heavy SSD profile per shard: device
    time has to dominate Python time for cross-shard overlap to be
    measurable, and per-append cost is what each shard's group commit
    amortizes."""
    from repro.storage.device_model import DeviceModel

    return DeviceModel(
        seq_read_bandwidth=30e6,
        seq_write_bandwidth=5e6,
        random_read_latency=500e-6,
        write_op_cost=400e-6,
        file_open_cost=400e-6,
        file_delete_cost=200e-6,
    )


def _options():
    from repro.options import Options

    # Background flush/compaction on (group commit always is), reads on the engine
    # lock: within a shard the WAL append is the honest serialization
    # point, so the only parallelism the 4-shard cells can win is genuine
    # cross-shard overlap.
    return Options(
        block_size=1024,
        sstable_size=8 * 1024,
        memtable_size=8 * 1024,
        max_levels=6,
        background_compaction=True,
    )


def _run_scenario(name: str, *, shards: int, num_ops: int, value_size: int) -> dict:
    """One shard-count cell: 8 tenant threads, write-heavy insert mix,
    tenant-aligned boundaries, one real-file store per shard."""
    from repro.sharding import LocalShardStore, ShardedDB
    from repro.ycsb.tenants import run_multi_tenant, tenant_boundaries
    from repro.ycsb.workloads import WorkloadSpec

    spec = WorkloadSpec(
        name=name, read_ratio=0.1, write_ratio=0.9, scan_ratio=0.0,
        write_mode="insert", zipf=None,
    )
    ops_per_tenant = num_ops // TENANTS
    with tempfile.TemporaryDirectory(prefix=f"bench-{name}-") as root:
        store = LocalShardStore(root, device_factory=_device, realtime=1.0)
        db = ShardedDB(
            store,
            _options(),
            shards=shards,
            boundaries=tenant_boundaries(TENANTS, shards) if shards > 1 else None,
            seed=7,
            bg_workers=min(4, shards),
        )
        start = time.perf_counter()
        result = run_multi_tenant(
            db, spec,
            num_tenants=TENANTS,
            ops_per_tenant=ops_per_tenant,
            keys_per_tenant=ops_per_tenant,
            value_size=value_size,
            seed=11,
        )
        db.wait_for_background(timeout=300)
        elapsed = time.perf_counter() - start
        stats = db.aggregate_stats()
        entry = {
            "shards": shards,
            "tenants": TENANTS,
            "ops": result.ops,
            "wall_time_s": round(elapsed, 3),
            "ops_per_sec": round(result.ops / elapsed, 1),
            "flushes": stats["flush_count"],
            "stall_events": stats["stall_events"],
            "cache_usage": db.cache_usage(),
        }
        db.close()
    print(
        f"  {name:<14} {entry['ops_per_sec']:>10,.0f} ops/s"
        f"  ({entry['wall_time_s']:.2f}s wall, {entry['flushes']} flushes,"
        f" {entry['stall_events']} stalls)"
    )
    return entry


def _run_hotspot_scenario(num_ops: int) -> dict:
    """Shifting-hotspot rebalance cell: skewed updates concentrated on a
    moving stripe, auto-rebalance on, low split threshold — the router
    must split the hot shard.  Runs on the in-memory store (the point is
    the split machinery, not device timing)."""
    from repro.sharding import MemoryShardStore, ShardedDB
    from repro.ycsb.tenants import run_multi_tenant
    from repro.ycsb.workloads import WorkloadSpec

    spec = WorkloadSpec(
        name="hotspot", read_ratio=0.1, write_ratio=0.9, scan_ratio=0.0,
        write_mode="update", zipf=0.9,
    )
    ops_per_tenant = num_ops // TENANTS
    db = ShardedDB(
        MemoryShardStore(),
        _options(),
        shards=2,
        seed=7,
        bg_workers=2,
        auto_rebalance=True,
        split_threshold_bytes=24 * 1024,
        stall_split_threshold=1_000_000,  # size-driven splits only
        rebalance_check_interval=32,
        max_shards=8,
    )
    start = time.perf_counter()
    run_multi_tenant(
        db, spec,
        num_tenants=TENANTS,
        ops_per_tenant=ops_per_tenant,
        keys_per_tenant=max(256, ops_per_tenant),
        value_size=256,
        seed=13,
        hotspot_shift_at=0.5,
    )
    # Let the rebalancer catch up on anything the non-blocking in-band
    # checks could not grab the router lock for.
    for _ in range(8):
        if db.maybe_rebalance(blocking=True) is None:
            break
    elapsed = time.perf_counter() - start
    entry = {
        "ops": num_ops,
        "wall_time_s": round(elapsed, 3),
        "splits": db.splits,
        "merges": db.merges,
        "final_shards": db.num_shards,
        "level_bytes_per_shard": {
            name: sum(shard.level_sizes()) for name, shard in db.shard_dbs()
        },
    }
    db.close()
    print(
        f"  {'hotspot':<14} {entry['splits']} splits, {entry['merges']} merges"
        f" -> {entry['final_shards']} shards ({entry['wall_time_s']:.2f}s wall)"
    )
    return entry


def run(quick: bool, value_size: int) -> dict:
    """The 1/2/4-shard cells plus the hotspot rebalance cell."""
    num_ops = 1200 if quick else 4000
    print(
        f"sharding benchmark ({'quick' if quick else 'full'} mode, "
        f"{num_ops} ops/scenario, {TENANTS} tenant threads, "
        f"{value_size}-byte values)"
    )
    scenarios = {}
    for shards in SHARD_COUNTS:
        name = f"sharded_{shards}s"
        scenarios[name] = _run_scenario(
            name, shards=shards, num_ops=num_ops, value_size=value_size
        )
    baseline = scenarios["sharded_1s"]["ops_per_sec"]
    speedups = {
        f"speedup_{shards}s": round(
            scenarios[f"sharded_{shards}s"]["ops_per_sec"] / baseline, 2
        )
        for shards in SHARD_COUNTS[1:]
    }
    print(
        "\n  sharded speedup vs 1-shard baseline: "
        + "  ".join(f"{s}s={speedups[f'speedup_{s}s']}x" for s in SHARD_COUNTS[1:])
    )
    scenarios["hotspot"] = _run_hotspot_scenario(num_ops)
    return {
        "arms": scenarios,
        "metrics": {**speedups, "hotspot_splits": scenarios["hotspot"]["splits"]},
    }
