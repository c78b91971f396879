"""Key-value separation benchmark: WA and throughput across value sizes.

Sweeps the value size from 100 B to 64 KiB and, at each size, runs the
same overwrite-heavy workload twice — once on the plain engine, once with
``kv_separation=True`` (DESIGN.md §13):
``python benchmarks/perf/run.py kv_separation``.

Each cell writes every key three times and then fully compacts, the
regime where the LSM's write amplification multiplies value bytes: the
plain engine re-copies every live value through every flush and
compaction, while the separated engine copies 17-byte pointers and pays
for each value once, in its value-log append.  Write amplification is
compared *fairly*: the separated arm's WA counts vlog bytes written
(``io.per_category["vlog"]``) on top of its SSTable bytes, so the value
log is charged, not hidden.

The sweep's point is the crossover: at 100-byte values separation is all
overhead (every value still inline below the 1 KiB threshold; identical
work), while at 16 KiB+ the pointer-sized LSM wins on both throughput
and WA.  Each separated arm records its ``speedup`` over the baseline arm
of its size and whether it ``wins_both`` metrics there.

The full-run acceptance bar at 16 KiB values is 2.0x write throughput
with lower total WA; quick mode gates on a generous throughput floor so
only a real separation regression fails, not runner noise.
"""

from __future__ import annotations

import time

VALUE_SIZES_FULL = (100, 1024, 4096, 16384, 65536)
VALUE_SIZES_QUICK = (100, 4096, 16384)
#: Every key is written this many times, so compaction must repeatedly
#: re-copy (plain) or re-point (separated) each live value.
OVERWRITE_PASSES = 3
METRICS = {
    "speedup_16k": ("higher", 1.3, 2.0),
    # Strict: separation must write fewer bytes, not as many.
    "wa_separated_over_baseline_16k": ("lower", 1.0, 1.0, True),
}


def _options(separated: bool):
    from repro.options import Options

    # A small geometry: small enough that every cell runs
    # flushes and multi-level compactions, big enough that block encoding
    # (not file-open churn) dominates.  The separated arm keeps the stock
    # separation knobs — 1 KiB threshold, 4 MiB vlog files — so the sweep
    # measures the defaults users actually get.
    options = Options(
        block_size=4096,
        sstable_size=64 * 1024,
        memtable_size=32 * 1024,
        max_levels=6,
        block_cache_capacity=128 * 1024,
    )
    return options.copy(kv_separation=True) if separated else options


def _workload_shape(value_size: int, quick: bool) -> tuple[int, int]:
    """``(ops, distinct_keys)`` for one cell: a bounded user-byte volume
    (so the 64 KiB cell stays tractable) with op-count floor and ceiling,
    and every key overwritten ``OVERWRITE_PASSES`` times."""
    target_bytes = 1_500_000 if quick else 4_000_000
    min_ops, max_ops = (120, 1200) if quick else (240, 4000)
    ops = min(max_ops, max(min_ops, target_bytes // value_size))
    ops -= ops % OVERWRITE_PASSES
    return ops, ops // OVERWRITE_PASSES


def _run_arm(*, separated: bool, value_size: int, quick: bool) -> dict:
    """One (engine, value-size) cell: overwrite-heavy fill + full compact
    on the simulated FS, returning throughput and the fair WA breakdown."""
    from repro.core.db import DB
    from repro.storage.fs import SimulatedFS
    from repro.vlog import CAT_VLOG

    ops, keyspace = _workload_shape(value_size, quick)
    value = b"v" * value_size
    db = DB(SimulatedFS(), _options(separated))

    start = time.perf_counter()
    for i in range(ops):
        db.put(b"user%012d" % (i % keyspace), value)
    db.flush()
    db.compact_all()
    elapsed = time.perf_counter() - start

    # Sanity: the engine under measurement must still serve its data.
    if db.get(b"user%012d" % 0) != value:
        raise AssertionError("benchmark DB lost data")

    stats = db.stats
    vlog_cat = db.io_stats.per_category.get(CAT_VLOG)
    vlog_written = vlog_cat.bytes_written if vlog_cat else 0
    user_bytes = stats.user_bytes_written
    sst_bytes = stats.sst_bytes_written()
    entry = {
        "mode": "kv_separated" if separated else "baseline",
        "ops": ops,
        "distinct_keys": keyspace,
        "user_bytes": user_bytes,
        "wall_time_s": round(elapsed, 3),
        "user_mb_per_s": round(user_bytes / elapsed / 1e6, 2),
        "sst_bytes_written": sst_bytes,
        "vlog_bytes_written": vlog_written,
        "wa_sst": round(sst_bytes / user_bytes, 2),
        # The fair comparison: the value log's writes count against the
        # separated arm, so lower total WA means genuinely fewer bytes hit
        # the device, not bytes moved off the SSTable ledger.
        "wa_total": round((sst_bytes + vlog_written) / user_bytes, 2),
        "separated_values": stats.vlog_separated_values,
    }
    db.close()
    return entry


def run(quick: bool) -> dict:
    """Both arms at every swept value size."""
    sizes = VALUE_SIZES_QUICK if quick else VALUE_SIZES_FULL
    print(
        f"kv-separation benchmark ({'quick' if quick else 'full'} mode, "
        f"value sizes {list(sizes)})"
    )
    arms = {}
    for size in sizes:
        base = _run_arm(separated=False, value_size=size, quick=quick)
        sep = _run_arm(separated=True, value_size=size, quick=quick)
        sep["speedup"] = round(sep["user_mb_per_s"] / base["user_mb_per_s"], 2)
        sep["wins_both"] = sep["speedup"] > 1.0 and sep["wa_total"] < base["wa_total"]
        arms[f"{size}/baseline"] = base
        arms[f"{size}/kv_separated"] = sep
        print(
            f"  {size:>6} B  baseline {base['user_mb_per_s']:>7.2f} MB/s"
            f" WA {base['wa_total']:>5.2f}  |  separated"
            f" {sep['user_mb_per_s']:>7.2f} MB/s WA {sep['wa_total']:>5.2f}"
            f"  ->  {sep['speedup']}x{'  (wins both)' if sep['wins_both'] else ''}"
        )
    base, sep = arms["16384/baseline"], arms["16384/kv_separated"]
    return {
        "arms": arms,
        "metrics": {
            "speedup_16k": sep["speedup"],
            "wa_separated_over_baseline_16k": round(sep["wa_total"] / base["wa_total"], 3),
        },
    }
