"""Multi-thread GET scaling benchmark for the superversion read path.

Measures aggregate GET throughput at 1/2/4/8 reader threads over sharded
caches (``Options(cache_shards=16)``, DESIGN.md §9):
``python benchmarks/perf/run.py read_scaling``.

The engine's compute is pure Python, so thread overlap cannot speed up
*CPU*; what reading with the engine lock released unlocks is overlapping
device time.  The benchmark therefore runs on a real-file store in
``realtime`` mode — every second charged to the analytic device model is
also slept, with the GIL released — emulating an I/O-bound device.  The
block cache is sized to zero so every GET pays its data-block random read:
a get pins its superversion without taking the engine lock, so readers'
device waits overlap (a reader that slept its read while holding the lock
would serialize the others and the speedup would stay near 1).

The headline number is ``speedup_4t``: GET throughput at 4 reader threads
over 1 reader thread.  The full-run acceptance bar is 2.0x; quick mode
gates on a deliberately generous floor (it runs on noisy two-core shared
runners) so only a real read-path regression fails, not runner noise.
"""

from __future__ import annotations

import tempfile
import threading
import time

THREAD_COUNTS = (1, 2, 4, 8)
METRICS = {
    "speedup_2t": ("higher", None, None),
    "speedup_4t": ("higher", 1.5, 2.0),
    "speedup_8t": ("higher", None, None),
}


def _device():
    """Random-read-latency-heavy SSD profile: a GET's data-block fetch has
    to dominate its Python time for reader overlap to be measurable."""
    from repro.storage.device_model import DeviceModel

    return DeviceModel(
        seq_read_bandwidth=60e6,
        seq_write_bandwidth=25e6,
        random_read_latency=500e-6,
        write_op_cost=100e-6,
        file_open_cost=200e-6,
        file_delete_cost=100e-6,
    )


def _options():
    from repro.options import Options

    return Options(
        block_size=1024,
        sstable_size=8 * 1024,
        memtable_size=8 * 1024,
        max_levels=6,
        # Zero block cache: every GET pays its data-block random read, so
        # the cells compare device-wait overlap, not cache luck.
        block_cache_capacity=0,
        cache_shards=16,
    )


def _load(db, num_keys: int, value_size: int) -> None:
    """Populate the key space and settle the tree (no realtime sleeping —
    the fs flips to realtime only for the timed read phase)."""
    value = b"v" * value_size
    for i in range(num_keys):
        db.put(_key(i), value)
    db.flush()
    db.compact_all()


def _key(i: int) -> bytes:
    return f"user{i:08d}".encode()


def _run_scenario(
    name: str, *, threads: int, num_ops: int, num_keys: int, value_size: int,
) -> dict:
    """One reader-thread-count cell: uniform random GETs over a
    pre-loaded real-file DB, returning aggregate wall-clock throughput."""
    import random

    from repro.core.db import DB
    from repro.storage.fs import LocalFS

    with tempfile.TemporaryDirectory(prefix=f"bench-{name}-") as root:
        fs = LocalFS(root, device=_device(), realtime=0.0)
        db = DB(fs, _options())
        _load(db, num_keys, value_size=value_size)

        per_thread = [num_ops // threads] * threads
        for extra in range(num_ops % threads):
            per_thread[extra] += 1
        errors: list[BaseException] = []
        found_counts = [0] * threads

        def reader(tid: int, ops: int) -> None:
            """One reader thread: seeded uniform random GETs."""
            rng = random.Random(101 + tid * 7919)
            hits = 0
            try:
                for _ in range(ops):
                    if db.get(_key(rng.randrange(num_keys))) is not None:
                        hits += 1
            except BaseException as exc:  # surfaced after join
                errors.append(exc)
            found_counts[tid] = hits

        workers = [
            threading.Thread(target=reader, args=(tid, ops), daemon=True)
            for tid, ops in enumerate(per_thread)
        ]
        fs.realtime = 1.0  # timed phase only: sleep the device model
        start = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        elapsed = time.perf_counter() - start
        fs.realtime = 0.0
        if errors:
            raise errors[0]

        block_stats = db.block_cache.snapshot()
        table_stats = db.table_cache.snapshot()
        shard_hits = [s.hits for s in db.table_cache.shard_snapshots()]
        total_hits = sum(shard_hits)
        entry = {
            "reader_threads": threads,
            "ops": num_ops,
            "found": sum(found_counts),
            "wall_time_s": round(elapsed, 3),
            "ops_per_sec": round(num_ops / elapsed, 1),
            "bc_shards": db.block_cache.num_shards,
            "bc_hits": block_stats.hits,
            "bc_misses": block_stats.misses,
            "tc_shards": db.table_cache.num_shards,
            "tc_hits": table_stats.hits,
            "tc_misses": table_stats.misses,
            "tc_shard_hits": shard_hits,
            # Shard balance, the signal sharded caches exist for.
            "busiest_tc_shard": f"{max(shard_hits) / total_hits:.1%}" if total_hits else "-",
        }
        db.close()
    print(
        f"  {name:<14} {entry['ops_per_sec']:>10,.0f} ops/s"
        f"  ({entry['wall_time_s']:.2f}s wall, {entry['found']} found)"
    )
    return entry


def run(quick: bool, value_size: int) -> dict:
    """The 1/2/4/8-reader-thread cells."""
    num_ops = 600 if quick else 2000
    num_keys = 400 if quick else 1500
    print(
        f"read scaling benchmark ({'quick' if quick else 'full'} mode, "
        f"{num_ops} GETs/scenario over {num_keys} keys, "
        f"{value_size}-byte values)"
    )
    scenarios = {}
    for threads in THREAD_COUNTS:
        name = f"readers_{threads}t"
        scenarios[name] = _run_scenario(
            name, threads=threads, num_ops=num_ops, num_keys=num_keys,
            value_size=value_size,
        )
    baseline = scenarios["readers_1t"]["ops_per_sec"]
    speedups = {
        f"speedup_{threads}t": round(
            scenarios[f"readers_{threads}t"]["ops_per_sec"] / baseline, 2
        )
        for threads in THREAD_COUNTS[1:]
    }
    print(
        "\n  read speedup vs 1 reader thread: "
        + "  ".join(f"{t}t={speedups[f'speedup_{t}t']}x" for t in THREAD_COUNTS[1:])
    )
    return {"arms": scenarios, "metrics": speedups}
