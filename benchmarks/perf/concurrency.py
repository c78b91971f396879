"""Concurrent write-pipeline benchmark.

Measures aggregate wall-clock throughput of a write-heavy mix at 1 and 4
client threads, with background work inline on the writer (the default
synchronous engine) and on the background lane (``concurrent_pipeline()``,
DESIGN.md §7): ``python benchmarks/perf/run.py concurrency``.
"Against the default synchronous engine" means *background work* only:
the write path is the same in both arms — writers that collide
group-commit, no option involved — so the 4-thread synchronous arm
coalesces WAL appends too.  The scenario's options use Table Compaction,
which has no sub-tasks, so the pipeline's sub-task thread pool is never
exercised here (the ``compaction_scaling`` suite covers it).

The engine's compute is pure Python, so thread overlap cannot speed up
*CPU*; what the pipeline overlaps is device time.  The benchmark therefore
runs on a real-file store in ``realtime`` mode — every second charged to
the analytic device model is also slept, with the GIL released — which
honestly emulates an I/O-bound device: the synchronous engine pays flush
and compaction device-time inline under the engine lock, while the
pipeline pays it on the background worker, overlapped with the foreground.
A nonzero per-append cost makes group commit's WAL coalescing visible the
same way.

Both gated ratios are against the one arm nothing concurrent touches,
``sync_1t``: ``pipeline_4t`` (``concurrent_4t / sync_1t``) guards the
background lane plus group commit, ``group_4t`` (``sync_4t / sync_1t``)
guards group commit alone — 4 writers on the synchronous engine must beat
1, which they only do by sharing WAL appends.  ``speedup_4t``
(``concurrent_4t / sync_4t``, what the lane adds on top of group commit) is
reported ungated.  Both modes gate on a deliberately generous floor, so
that only a real regression fails, not shared-runner noise.
"""

from __future__ import annotations

import tempfile
import time

THREADS = 4
METRICS = {
    "pipeline_4t": ("higher", 1.15, 1.15),
    "group_4t": ("higher", 1.15, 1.15),
    "speedup_1t": ("higher", None, None),
    "speedup_4t": ("higher", None, None),
}


def _device():
    """A deliberately slow, op-cost-heavy SSD profile: device time has to
    dominate Python time for overlap to be measurable, and per-append cost
    is what group commit amortizes."""
    from repro.storage.device_model import DeviceModel

    return DeviceModel(
        seq_read_bandwidth=60e6,
        seq_write_bandwidth=25e6,
        random_read_latency=300e-6,
        write_op_cost=200e-6,
        file_open_cost=200e-6,
        file_delete_cost=200e-6,
    )


def _options(concurrent: bool):
    from repro.options import Options

    options = Options(
        block_size=1024,
        sstable_size=8 * 1024,
        memtable_size=8 * 1024,
        max_levels=6,
        compaction_workers=4,
        # Histograms on in both modes (identical overhead per arm, so the
        # speedup ratio is unaffected) to surface per-op tail latency —
        # the number group commit and background compaction actually move.
        latency_histograms=True,
    )
    if concurrent:
        options = options.concurrent_pipeline()
    return options


def _run_scenario(
    name: str, *, concurrent: bool, threads: int, num_ops: int, value_size: int
) -> dict:
    """One (mode, client-thread-count) cell: write-heavy YCSB on a fresh
    real-file DB, returning aggregate wall-clock throughput."""
    from repro.core.db import DB
    from repro.storage.fs import LocalFS
    from repro.ycsb.runner import run_workload_concurrent
    from repro.ycsb.workloads import WorkloadSpec

    spec = WorkloadSpec(
        name=name, read_ratio=0.1, write_ratio=0.9, scan_ratio=0.0,
        write_mode="insert", zipf=None,
    )
    with tempfile.TemporaryDirectory(prefix=f"bench-{name}-") as root:
        fs = LocalFS(root, device=_device(), realtime=1.0)
        db = DB(fs, _options(concurrent), seed=7)
        start = time.perf_counter()
        result = run_workload_concurrent(
            db, spec, num_ops, num_keys=num_ops, threads=threads,
            value_size=value_size, seed=11,
        )
        elapsed = time.perf_counter() - start
        stats = db.stats
        entry = {
            "mode": "concurrent" if concurrent else "sync",
            "client_threads": threads,
            "ops": result.ops,
            "wall_time_s": round(elapsed, 3),
            "ops_per_sec": round(result.ops / elapsed, 1),
            "stall_events": stats.stall_events,
            "stall_stops": stats.stall_stops,
            "stall_time_s": round(stats.stall_time_s, 3),
            "flushes": stats.flush_count,
            "latency": result.latency,
        }
        db.close()
    print(
        f"  {name:<14} {entry['ops_per_sec']:>10,.0f} ops/s"
        f"  ({entry['wall_time_s']:.2f}s wall, {entry['flushes']} flushes,"
        f" {entry['stall_events']} stalls)"
    )
    return entry


def run(quick: bool, value_size: int) -> dict:
    """All four cells."""
    num_ops = 1200 if quick else 4000
    print(f"concurrency benchmark ({'quick' if quick else 'full'} mode, "
          f"{num_ops} ops/scenario, {THREADS} threads, "
          f"{value_size}-byte values)")
    scenarios = {
        "sync_1t": _run_scenario(
            "sync_1t", concurrent=False, threads=1, num_ops=num_ops,
            value_size=value_size,
        ),
        "concurrent_1t": _run_scenario(
            "concurrent_1t", concurrent=True, threads=1, num_ops=num_ops,
            value_size=value_size,
        ),
        "sync_4t": _run_scenario(
            "sync_4t", concurrent=False, threads=THREADS, num_ops=num_ops,
            value_size=value_size,
        ),
        "concurrent_4t": _run_scenario(
            "concurrent_4t", concurrent=True, threads=THREADS, num_ops=num_ops,
            value_size=value_size,
        ),
    }

    def ratio(numerator: str, denominator: str) -> float:
        return round(
            scenarios[numerator]["ops_per_sec"] / scenarios[denominator]["ops_per_sec"], 2
        )

    pipeline_4t = ratio("concurrent_4t", "sync_1t")
    group_4t = ratio("sync_4t", "sync_1t")
    speedup_4t = ratio("concurrent_4t", "sync_4t")
    speedup_1t = ratio("concurrent_1t", "sync_1t")
    print(f"\n  {THREADS} threads vs 1 synchronous thread: pipeline {pipeline_4t}x, "
          f"group commit alone {group_4t}x")
    print(f"  concurrent vs sync at {THREADS} threads: {speedup_4t}x  (1 thread: {speedup_1t}x)")
    return {
        "arms": scenarios,
        "metrics": {
            "pipeline_4t": pipeline_4t,
            "group_4t": group_4t,
            "speedup_1t": speedup_1t,
            "speedup_4t": speedup_4t,
        },
    }
