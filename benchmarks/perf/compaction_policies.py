"""Compaction-policy matrix: WA/throughput/p99 per policy.

Runs the same keyed workloads under every compaction policy (DESIGN.md
§14) — leveled, tiered, one_leveling — across YCSB-style
operation mixes and Zipfian skews: ``python benchmarks/perf/run.py
compaction_policies``.

Per cell the report records incremental write amplification (bytes the
device absorbed during the measured op phase over user bytes written —
the load phase is excluded, so the number is the steady-state marginal
cost), wall-clock throughput, p99 op latencies from the engine's own
histograms, **simulated device seconds** (the deterministic cost model
the gates use — wall clock on shared CI runners is noise), and the
number of compactions (flushes excluded) the policy picked over the run.

The design-space claim the matrix reproduces: **tiered** beats
**leveled** on write-heavy mixes by >= 1.5x lower WA (the overfill factor
amortizes child rewrites; gated), and pays for it in read p99 (deeper,
overfull levels; wall clock, reported ungated).
"""

from __future__ import annotations

import bisect
import random
import time

METRICS = {
    # Full-run acceptance bar 1.5x; the quick floor is generous.
    "wa_ratio_tiered_vs_leveled": ("higher", 1.2, 1.5),
}

POLICIES = ("leveled", "tiered", "one_leveling")
#: YCSB-flavoured operation mixes: (name, write fraction).
MIXES = (("write_heavy", 0.95), ("balanced", 0.5), ("read_heavy", 0.05))
SKEWS_FULL = (0.4, 0.99)
SKEWS_QUICK = (0.99,)

VALUE_SIZE = 100


def _options(policy: str):
    from repro.options import Options

    # Small geometry so thousands of ops drive multi-level compaction, a
    # deep-ish tree (multiplier 10, the paper's fanout regime) so the
    # leveled-vs-tiered WA gap has room to show, and write-stall triggers
    # raised so tiered's scaled L0 trigger (overfill x 4 files, capped at
    # the slowdown trigger) is not parked at the stall line.
    return Options(
        block_size=1024,
        sstable_size=8 * 1024,
        memtable_size=8 * 1024,
        max_levels=5,
        level_size_multiplier=10,
        level0_slowdown_writes_trigger=64,
        level0_stop_writes_trigger=80,
        compaction_policy=policy,
        latency_histograms=True,
    )


def _zipf_cdf(keyspace: int, theta: float) -> list[float]:
    """Cumulative Zipf(theta) weights over ``keyspace`` ranks."""
    total = 0.0
    cdf = []
    for rank in range(1, keyspace + 1):
        total += 1.0 / rank**theta
        cdf.append(total)
    return [weight / total for weight in cdf]


def _make_ops(
    *, ops: int, keyspace: int, write_frac: float, theta: float, seed: int,
) -> list[tuple[str, int]]:
    """One deterministic op sequence (shared by every policy arm) over
    Zipf(theta)-ranked keys."""
    rng = random.Random(seed)
    cdf = _zipf_cdf(keyspace, theta)
    sequence = []
    for _ in range(ops):
        key = bisect.bisect_left(cdf, rng.random()) % keyspace
        op = "w" if rng.random() < write_frac else "r"
        sequence.append((op, key))
    return sequence


def _shape(quick: bool) -> tuple[int, int]:
    """``(measured ops, distinct keys)`` per cell."""
    return (4000, 1500) if quick else (25000, 8000)


def _run_cell(options, sequence, keyspace: int) -> dict:
    """Load ``keyspace`` keys, settle, then run ``sequence`` measured.

    WA and simulated seconds are deltas over the op phase only: the load
    and its settling compactions cost the same under every policy (the
    policy only starts steering once the measured ops run), so deltas
    isolate each policy's marginal write cost.
    """
    from repro.core.db import DB
    from repro.storage.fs import SimulatedFS

    db = DB(SimulatedFS(), options)
    value = b"v" * VALUE_SIZE
    for i in range(keyspace):
        db.put(b"user%012d" % i, value)
    db.compact_all()

    stats = db.stats
    user_before = stats.user_bytes_written
    sst_before = stats.sst_bytes_written()
    sim_before = db.io_stats.sim_time_s

    start = time.perf_counter()
    for op, key in sequence:
        name = b"user%012d" % key
        if op == "w":
            db.put(name, value)
        else:
            db.get(name)
    db.flush()
    elapsed = time.perf_counter() - start

    user_bytes = stats.user_bytes_written - user_before
    sst_bytes = stats.sst_bytes_written() - sst_before
    sim_s = db.io_stats.sim_time_s - sim_before

    latency = db.latency.summary() if db.latency is not None else {}
    entry = {
        "policy": options.compaction_policy,
        "ops": len(sequence),
        "write_amplification": round(sst_bytes / user_bytes, 3) if user_bytes else 0.0,
        "ops_per_sec": round(len(sequence) / elapsed, 1),
        "sim_device_seconds": round(sim_s, 6),
        "p99_write_us": _p99_us(latency, "put"),
        "p99_read_us": _p99_us(latency, "get"),
        "stall_events": stats.stall_events,
        "compactions": sum(1 for event in stats.events if event.kind != "flush"),
    }
    db.close()
    return entry


def _p99_us(latency: dict, op: str) -> float | None:
    summary = latency.get(op)
    if not summary:
        return None
    p99_ms = summary.get("p99_ms")
    return round(p99_ms * 1000, 1) if p99_ms is not None else None


def run_matrix(quick: bool) -> dict:
    """The static policies x mixes x skews grid."""
    ops, keyspace = _shape(quick)
    skews = SKEWS_QUICK if quick else SKEWS_FULL
    scenarios: dict[str, dict] = {}
    for mix_name, write_frac in MIXES:
        for theta in skews:
            sequence = _make_ops(
                ops=ops, keyspace=keyspace, write_frac=write_frac,
                theta=theta, seed=29,
            )
            for policy in POLICIES:
                cell = _run_cell(_options(policy), sequence, keyspace)
                cell["mix"] = mix_name
                cell["zipf_theta"] = theta
                name = f"{mix_name}/zipf{theta}/{policy}"
                scenarios[name] = cell
                print(
                    f"  {name:<40} WA {cell['write_amplification']:>7.3f}"
                    f"  {cell['ops_per_sec']:>9,.0f} op/s"
                    f"  dev {cell['sim_device_seconds']:>8.3f}s"
                )
    return scenarios


def run(quick: bool) -> dict:
    """The full matrix."""
    print(
        f"compaction-policy benchmark ({'quick' if quick else 'full'} mode)"
    )
    scenarios = run_matrix(quick)

    skew = SKEWS_QUICK[0] if quick else SKEWS_FULL[0]
    leveled = scenarios[f"write_heavy/zipf{skew}/leveled"]
    tiered = scenarios[f"write_heavy/zipf{skew}/tiered"]
    wa_ratio = (
        round(leveled["write_amplification"] / tiered["write_amplification"], 3)
        if tiered["write_amplification"]
        else 0.0
    )
    print(f"\n  tiered WA advantage on write-heavy: {wa_ratio}x")
    return {
        "arms": scenarios,
        "metrics": {"wa_ratio_tiered_vs_leveled": wa_ratio},
    }
