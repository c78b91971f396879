"""One driver per table/figure of the paper's evaluation (Section V).

Each ``fig*``/``table*`` function runs the scaled experiment and returns
``(headers, rows)`` ready for :func:`repro.metrics.report.format_table`; the
benchmark modules under ``benchmarks/`` call these and print the result.
Load outcomes are memoized in-process so figure families that share a run
(5/7/8, 11/14) don't repeat it.
"""

from __future__ import annotations

from ..metrics.amplification import (
    per_level_obsolete_bytes,
    per_level_write_traffic,
)
from ..ycsb.runner import load_db, run_workload
from ..ycsb.workloads import (
    SCAN_WORKLOADS,
    WorkloadSpec,
    by_name,
)
from .config import (
    DEFAULT_SCALE,
    ExperimentScale,
    LoadOutcome,
    SYSTEMS,
    WorkloadOutcome,
    make_system,
)

_load_memo: dict[tuple, LoadOutcome] = {}
_workload_memo: dict[tuple, WorkloadOutcome] = {}


def warm_table_cache(db) -> None:
    """Open every live SSTable through the table cache.

    The paper's Fig 15 measures the table cache once the workload has
    touched the tables; after a pure load only compaction inputs were ever
    opened, so we open the live set explicitly before measuring."""
    for _level, meta in db.version.all_files():
        db.table_cache.get(meta.file_number, meta.file_name())


def clear_memo() -> None:
    """Drop memoized outcomes (tests use this for isolation)."""
    _load_memo.clear()
    _workload_memo.clear()


# --------------------------------------------------------------------------- loads


def run_load_experiment(
    system: str,
    paper_gb: int,
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    sample_windows: int = 0,
    seed: int = 0,
) -> LoadOutcome:
    """Uniform-random bulk load of ``paper_gb`` scaled data into ``system``."""
    key = (system, paper_gb, scale, sample_windows, seed)
    if key in _load_memo:
        return _load_memo[key]

    num_keys = scale.num_keys(paper_gb)
    db = make_system(system, scale, paper_gb=paper_gb)
    sample_every = max(1, num_keys // sample_windows) if sample_windows else None
    result = load_db(
        db, num_keys, value_size=scale.value_size, order="random", seed=seed, sample_every=sample_every
    )
    warm_table_cache(db)
    memory = db.table_cache_memory()
    outcome = LoadOutcome(
        system=system,
        paper_gb=paper_gb,
        num_keys=num_keys,
        sim_time_s=result.sim_time_s,
        wall_time_s=result.wall_time_s,
        write_amplification=db.stats.write_amplification(),
        per_level_write_bytes=per_level_write_traffic(db),
        files_per_level=db.num_files_per_level(),
        index_memory_bytes=memory.index_bytes,
        filter_memory_bytes=memory.filter_bytes,
        space_amplification=db.stats.space_amplification(),
        throughput_curve=result.throughput_curve,
    )
    db.close()
    _load_memo[key] = outcome
    return outcome


def run_workload_experiment(
    system: str,
    spec: WorkloadSpec,
    *,
    paper_gb: int = 40,
    ops_paper_millions: int = 40,
    scale: ExperimentScale = DEFAULT_SCALE,
    seed: int = 0,
) -> WorkloadOutcome:
    """Load, then issue ``spec``'s request mix (Figs 11-14, 16)."""
    key = (system, spec, paper_gb, ops_paper_millions, scale, seed)
    if key in _workload_memo:
        return _workload_memo[key]

    num_keys = scale.num_keys(paper_gb)
    db = make_system(system, scale, paper_gb=paper_gb)
    load_db(db, num_keys, value_size=scale.value_size, order="random", seed=seed)
    # Measurement starts after the load, as in the paper.
    result = run_workload(
        db,
        spec,
        scale.num_ops(ops_paper_millions),
        num_keys,
        value_size=scale.value_size,
        seed=seed + 1,
    )
    outcome = WorkloadOutcome(
        system=system,
        workload=spec.name,
        write_mode=spec.write_mode,
        zipf=spec.zipf,
        sim_time_s=result.sim_time_s,
        ops=result.ops,
        reads_found=result.reads_found,
        block_cache_misses=result.block_cache_misses,
        block_cache_hits=result.block_cache_hits,
        scan_entries=result.scan_entries,
        overlapped_time_s=result.overlapped_time_s,
    )
    db.close()
    _workload_memo[key] = outcome
    return outcome


# ------------------------------------------------------------------- Table II


def table2_lazy_deletion(scale: ExperimentScale = DEFAULT_SCALE, sizes=(40, 80)):
    """Table II: LevelDB load time with and without Lazy Deletion."""
    headers = ["Type"] + [f"{gb} GB (sim s)" for gb in sizes]
    rows = []
    for lazy in (False, True):
        label = "LevelDB(+Lazy Deletion)" if lazy else "LevelDB"
        row = [label]
        for gb in sizes:
            num_keys = scale.num_keys(gb)
            db = make_system(
                "LevelDB",
                scale,
                paper_gb=gb,
                lazy_deletion=lazy,
            )
            result = load_db(db, num_keys, value_size=scale.value_size, seed=0)
            row.append(result.sim_time_s)
            db.close()
        rows.append(row)
    return headers, rows


# ----------------------------------------------------------------- Figs 5-8


def fig5_write_performance(scale: ExperimentScale = DEFAULT_SCALE, sizes=(40, 80)):
    """Fig 5: running time of a uniform write-only load, per system."""
    headers = ["System"] + [f"{gb} GB (sim s)" for gb in sizes]
    rows = []
    for system in SYSTEMS:
        row = [system]
        for gb in sizes:
            row.append(run_load_experiment(system, gb, scale).sim_time_s)
        rows.append(row)
    return headers, rows


def fig6_throughput_curve(
    scale: ExperimentScale = DEFAULT_SCALE, paper_gb: int = 80, windows: int = 20
):
    """Fig 6: windowed insert throughput while loading ``paper_gb``."""
    headers = ["ops done"] + [f"{s} (ops/s)" for s in SYSTEMS]
    curves = {
        s: run_load_experiment(s, paper_gb, scale, sample_windows=windows).throughput_curve
        for s in SYSTEMS
    }
    length = min(len(c) for c in curves.values())
    rows = []
    for i in range(length):
        row = [curves[SYSTEMS[0]][i].ops_done]
        for s in SYSTEMS:
            row.append(curves[s][i].ops_per_sec)
        rows.append(row)
    return headers, rows


def fig7_write_amplification(scale: ExperimentScale = DEFAULT_SCALE, sizes=(40, 80)):
    """Fig 7: write amplification of the load, per system."""
    headers = ["System"] + [f"{gb} GB (WA)" for gb in sizes]
    rows = []
    for system in SYSTEMS:
        row = [system]
        for gb in sizes:
            row.append(run_load_experiment(system, gb, scale).write_amplification)
        rows.append(row)
    return headers, rows


def fig8_wa_per_level(scale: ExperimentScale = DEFAULT_SCALE, paper_gb: int = 40):
    """Fig 8: bytes written into each level during the load."""
    outcomes = {s: run_load_experiment(s, paper_gb, scale) for s in SYSTEMS}
    depth = max(
        (i + 1 for s in SYSTEMS for i, v in enumerate(outcomes[s].per_level_write_bytes) if v),
        default=1,
    )
    headers = ["System"] + [f"L{i} (MiB)" for i in range(depth)]
    rows = []
    for system in SYSTEMS:
        traffic = outcomes[system].per_level_write_bytes
        rows.append([system] + [round(traffic[i] / 2**20, 3) if i < len(traffic) else 0 for i in range(depth)])
    return headers, rows


# ----------------------------------------------------------------- Figs 9-10


def _update_run(system: str, paper_gb: int, scale: ExperimentScale, seed: int = 0):
    """Load then uniformly update every key once (the Fig 9 protocol)."""
    num_keys = scale.num_keys(paper_gb)
    db = make_system(system, scale, paper_gb=paper_gb)
    load_db(db, num_keys, value_size=scale.value_size, seed=seed)
    spec = WorkloadSpec(
        name="update-pass", read_ratio=0.0, write_ratio=1.0, write_mode="update", zipf=None
    )
    run_workload(db, spec, num_keys, num_keys, value_size=scale.value_size, seed=seed + 1)
    return db


def fig9_space_amplification(scale: ExperimentScale = DEFAULT_SCALE, sizes=(40, 80)):
    """Fig 9: peak space amplification of load + uniform updates."""
    headers = ["System"] + [f"{gb} GB (SA)" for gb in sizes]
    rows = []
    from ..ycsb.workloads import DEFAULT_KEY_SIZE

    for system in SYSTEMS:
        row = [system]
        for gb in sizes:
            db = _update_run(system, gb, scale)
            dataset = scale.num_keys(gb) * (DEFAULT_KEY_SIZE + scale.value_size)
            row.append(db.stats.space_amplification(dataset))
            db.close()
        rows.append(row)
    return headers, rows


def fig10_sa_per_level(scale: ExperimentScale = DEFAULT_SCALE, paper_gb: int = 40):
    """Fig 10: where BlockDB's extra space lives (peak obsolete bytes per
    level during load + updates)."""
    db = _update_run("BlockDB", paper_gb, scale)
    obsolete = per_level_obsolete_bytes(db)
    db.close()
    depth = max((i + 1 for i, v in enumerate(obsolete) if v), default=1)
    headers = ["Level", "peak obsolete (KiB)"]
    rows = [[f"L{i}", round(obsolete[i] / 1024, 1)] for i in range(depth)]
    return headers, rows


# ----------------------------------------------------------------- Figs 11-14


def _mix_table(specs, mode: str, scale: ExperimentScale, metric: str, paper_gb: int = 40):
    headers = ["System"] + [spec.name for spec in specs]
    rows = []
    for system in SYSTEMS:
        row = [system]
        for spec in specs:
            outcome = run_workload_experiment(
                system, spec.with_mode(mode) if spec.write_ratio else spec,
                paper_gb=paper_gb, scale=scale,
            )
            row.append(getattr(outcome, metric))
        rows.append(row)
    return headers, rows


def fig11_point_query_insert(scale: ExperimentScale = DEFAULT_SCALE):
    """Fig 11: running time, point queries mixed with insertions.

    Reported as *overlapped* time (compaction on background threads), the
    paper's measurement setup."""
    specs = [by_name(n) for n in ("RO", "RH", "RW", "WH", "WO")]
    return _mix_table(specs, "insert", scale, "overlapped_time_s")


def fig12_point_query_update(scale: ExperimentScale = DEFAULT_SCALE):
    """Fig 12: running time, point queries mixed with updates (overlapped
    time, see fig11)."""
    specs = [by_name(n) for n in ("RH", "RW", "WH")]
    return _mix_table(specs, "update", scale, "overlapped_time_s")


def fig13_zipf_sweep(scale: ExperimentScale = DEFAULT_SCALE, zipfs=(0.7, 0.8, 0.9, 0.99)):
    """Fig 13: balanced read/update mix under varying skew."""
    headers = ["System"] + [f"zipf={z}" for z in zipfs]
    rows = []
    for system in SYSTEMS:
        row = [system]
        for z in zipfs:
            spec = WorkloadSpec(
                name=f"RW-z{z}", read_ratio=0.5, write_ratio=0.5, write_mode="update", zipf=z
            )
            outcome = run_workload_experiment(system, spec, scale=scale)
            row.append(outcome.overlapped_time_s)
        rows.append(row)
    return headers, rows


def fig14_cache_misses(scale: ExperimentScale = DEFAULT_SCALE):
    """Fig 14: block-cache misses over the Fig 11 mixed workloads."""
    specs = [by_name(n) for n in ("RO", "RH", "RW", "WH")]
    return _mix_table(specs, "insert", scale, "block_cache_misses")


# --------------------------------------------------------------------- Fig 15


def fig15_memory_cost(scale: ExperimentScale = DEFAULT_SCALE, paper_gb: int = 40):
    """Fig 15: table-cache memory, split into index blocks vs bloom filters."""
    headers = ["System", "index (KiB)", "filters (KiB)", "total (KiB)"]
    rows = []
    for system in SYSTEMS:
        outcome = run_load_experiment(system, paper_gb, scale)
        idx = outcome.index_memory_bytes / 1024
        flt = outcome.filter_memory_bytes / 1024
        rows.append([system, round(idx, 1), round(flt, 1), round(idx + flt, 1)])
    return headers, rows


# --------------------------------------------------------------------- Fig 16


def fig16_range_scan(scale: ExperimentScale = DEFAULT_SCALE, ops_paper_millions: int = 10):
    """Fig 16: running time of the scan workloads (SCAN-RO/RH/BA/WH)."""
    headers = ["System"] + [spec.name for spec in SCAN_WORKLOADS]
    rows = []
    for system in SYSTEMS:
        row = [system]
        for spec in SCAN_WORKLOADS:
            outcome = run_workload_experiment(
                system, spec, ops_paper_millions=ops_paper_millions, scale=scale
            )
            row.append(outcome.overlapped_time_s)
        rows.append(row)
    return headers, rows


# ----------------------------------------------------------------- Figs 17-18


def _sstable_sweep(scale: ExperimentScale, sstable_sizes, paper_gb: int, metric: str):
    headers = ["System"] + [f"{size // 1024} KiB" for size in sstable_sizes]
    rows = []
    for system in SYSTEMS:
        row = [system]
        for size in sstable_sizes:
            import dataclasses

            sized = dataclasses.replace(scale, sstable_size=size)
            outcome = run_load_experiment(system, paper_gb, sized)
            row.append(getattr(outcome, metric))
        rows.append(row)
    return headers, rows


def fig17_sstable_size_running_time(
    scale: ExperimentScale = DEFAULT_SCALE,
    sstable_sizes=(32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024),
    paper_gb: int = 40,
):
    """Fig 17: load running time as the SSTable size varies."""
    return _sstable_sweep(scale, sstable_sizes, paper_gb, "sim_time_s")


def fig18_sstable_size_wa(
    scale: ExperimentScale = DEFAULT_SCALE,
    sstable_sizes=(32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024),
    paper_gb: int = 40,
):
    """Fig 18: write amplification as the SSTable size varies."""
    return _sstable_sweep(scale, sstable_sizes, paper_gb, "write_amplification")
