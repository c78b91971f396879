"""Process-offload scaling benchmark for selective-compaction subtasks.

Measures block-compaction subtask throughput at 1/2/4 offload workers with
the process-pool execution backend (``Options.compaction_offload``,
DESIGN.md §11): ``python benchmarks/perf/run.py compaction_scaling``.

The engine's merge compute is pure Python, so on a small host thread
overlap cannot speed up *CPU*; what offload unlocks is overlapping device
time: each subtask thread sleeps its (simulated) block reads, appends, and
reloads while sibling subtasks' decode/merge/rebuild runs on the process
pool.  The benchmark therefore runs on a real-file store in ``realtime``
mode — every second charged to the analytic device model is also slept,
with the GIL released — emulating an I/O-bound device, exactly like
the ``read_scaling`` suite does for GETs.

Each cell settles a tree (children at the bottom level), lands a sparse
update wave at L1, then times one selective-compaction pass driving every
L1 parent against its overlapped children — dozens of block subtasks whose
device waits overlap across worker threads while merges run out-of-process.

The headline number is ``speedup_4w``: block-subtask throughput at 4
process workers over the 1-worker serial baseline.  The full-run
acceptance bar is 1.8x; quick mode gates on a deliberately generous floor
(it runs on noisy two-core shared runners) so only a real offload
regression fails, not runner noise.
"""

from __future__ import annotations

import tempfile
import time

WORKER_COUNTS = (1, 2, 4)
METRICS = {
    "speedup_2w": ("higher", None, None),
    "speedup_4w": ("higher", 1.3, 1.8),
}


def _device():
    """Compaction-I/O-heavy profile: dirty-block random reads, appended
    writes, and the post-append metadata reload must dominate a subtask's
    Python time for worker overlap to be measurable."""
    from repro.storage.device_model import DeviceModel

    return DeviceModel(
        seq_read_bandwidth=3e6,
        seq_write_bandwidth=1.5e6,
        random_read_latency=10e-3,
        write_op_cost=3e-3,
        file_open_cost=5e-3,
        file_delete_cost=1e-3,
    )


def _options(workers: int):
    from repro.options import COMPACTION_SELECTIVE, Options, SelectiveThresholds

    return Options(
        # Generous dirty-ratio tolerance at every level: the benchmark
        # measures the Block Compaction subtask path, so the sparse update
        # wave must route to block subtasks, not the table fallback.
        selective_thresholds=[
            SelectiveThresholds(
                max_dirty_ratio=0.6, min_valid_ratio=0.3, max_file_growth=2.5
            )
            for _ in range(3)
        ],
        block_size=1024,
        sstable_size=8 * 1024,
        memtable_size=8 * 1024,
        max_levels=3,
        compaction_style=COMPACTION_SELECTIVE,
        compaction_offload="process",
        compaction_workers=workers,
    )


def _key(i: int) -> bytes:
    return f"user{i:08d}".encode()


def _settle(db, num_keys: int) -> None:
    """Dense load + full compaction: children land at the bottom level."""
    value = b"v" * 100
    for i in range(2 * num_keys):
        db.put(_key(i % num_keys), value)
    db.flush()
    db.compact_all()


def _land_updates(db, num_keys: int) -> None:
    """Sparse update wave: small values over every 32nd key (plus a few
    deletes) flushed and pushed to L1 so each L1 parent spans many bottom
    children at a low per-child dirty ratio — the Block Compaction regime."""
    from repro.compaction.base import CompactionTask

    for i in range(0, num_keys, 32):
        db.put(_key(i), b"u" * 16)
        if i % 128 == 0:
            db.delete(_key(i + 4))
    db.flush()
    level0 = list(db.version.files_at(0))
    task = CompactionTask(
        parent_level=0,
        parent_files=level0,
        child_files=[],
        reason="manual",
    )
    db.run_compaction(task)


def _selective_pass(db) -> tuple[int, int]:
    """Drive every L1 parent against its overlapped bottom children,
    returning ``(block_subtasks, table_subtasks)`` executed."""
    from repro.compaction.base import CompactionTask

    block_subtasks = 0
    table_subtasks = 0
    for meta in list(db.version.files_at(1)):
        children = db.version.overlapping_files(
            2, meta.smallest_user_key, meta.largest_user_key
        )
        task = CompactionTask(
            parent_level=1,
            parent_files=[meta],
            child_files=children,
            reason="manual",
        )
        result = db.run_compaction(task)
        block_subtasks += result.block_subtasks
        table_subtasks += result.table_subtasks
    return block_subtasks, table_subtasks


def _run_scenario(name: str, *, workers: int, num_keys: int) -> dict:
    """One worker-count cell: settle the tree cold, then time one
    realtime selective pass (pool pre-warmed by the settle phase)."""
    from repro.core.db import DB
    from repro.storage.fs import LocalFS

    with tempfile.TemporaryDirectory(prefix=f"bench-{name}-") as root:
        fs = LocalFS(root, device=_device(), realtime=0.0)
        db = DB(fs, _options(workers))
        _settle(db, num_keys)
        _land_updates(db, num_keys)
        # Start every process worker before the clock does: the first job a
        # cold worker receives pays the child interpreter's module import.
        db._subtasks.offload_pool.warm()

        fs.realtime = 1.0  # timed phase only: sleep the device model
        start = time.perf_counter()
        block_subtasks, table_subtasks = _selective_pass(db)
        elapsed = time.perf_counter() - start
        fs.realtime = 0.0

        entry = {
            "workers": workers,
            "block_subtasks": block_subtasks,
            "table_subtasks": table_subtasks,
            "wall_time_s": round(elapsed, 3),
            "subtasks_per_sec": round(block_subtasks / elapsed, 2),
            "pool_restarts": db._subtasks.offload_pool.restarts,
        }
        db.close()
    print(
        f"  {name:<12} {entry['subtasks_per_sec']:>8.1f} subtasks/s"
        f"  ({entry['wall_time_s']:.2f}s wall, {block_subtasks} block"
        f" + {table_subtasks} table subtasks)"
    )
    return entry


def run(quick: bool) -> dict:
    """The 1/2/4-process-worker cells."""
    num_keys = 1200 if quick else 3000
    print(
        f"compaction scaling benchmark ({'quick' if quick else 'full'} mode, "
        f"{num_keys} keys, process offload)"
    )
    scenarios = {}
    for workers in WORKER_COUNTS:
        name = f"process_{workers}w"
        scenarios[name] = _run_scenario(name, workers=workers, num_keys=num_keys)
    baseline = scenarios["process_1w"]["subtasks_per_sec"]
    speedups = {
        f"speedup_{workers}w": round(
            scenarios[f"process_{workers}w"]["subtasks_per_sec"] / baseline, 2
        )
        for workers in WORKER_COUNTS[1:]
    }
    print(
        "\n  offload speedup vs 1-worker baseline: "
        + "  ".join(f"{w}w={speedups[f'speedup_{w}w']}x" for w in WORKER_COUNTS[1:])
    )
    return {"arms": scenarios, "metrics": speedups}
