"""Serving robustness under overload: admission control on vs off.

Drives the asyncio serving front end at ~4x its measured write capacity
(open-loop: each connection issues on a fixed clock, not waiting for the
previous reply's round trip to start the next tick's budget) over a
realtime-emulated device, and contrasts two arms:

* **controlled** — admission control on with a small in-flight write cap:
  excess writes are shed instantly with ``STATUS_RETRY_LATER`` + a backoff
  hint, so accepted requests see a short queue.
* **uncontrolled** — ``admission_control=False``: every request queues
  unboundedly into the executor; latency grows with the backlog.

The claim under test (DESIGN.md §15): shedding holds tail latency down
without giving up goodput — the server is the bottleneck either way, so
completed-requests-per-second stays put while p99 collapses.  Gated:
``controlled p99 <= 0.5x uncontrolled p99`` at ``controlled goodput >=
0.8x uncontrolled goodput``.  ``python benchmarks/perf/run.py
serving_robustness``.
"""

from __future__ import annotations

import asyncio
import time

from repro.core.db import DB
from repro.options import Options
from repro.serve.client import RetryLaterError, ServeClient, ServeError
from repro.serve.server import ShardServer
from repro.storage.device_model import DeviceModel
from repro.storage.fs import SimulatedFS

METRICS = {
    "p99_ratio_controlled_over_uncontrolled": ("lower", 0.5, 0.5),
    "goodput_ratio_controlled_over_uncontrolled": ("higher", 0.8, 0.8),
}

#: Per-append device op cost (seconds) slept in realtime mode — makes one
#: put cost ~2 ms (WAL append + sync) so "capacity" is a real, stable
#: number instead of a GIL artifact.
WRITE_OP_COST = 1e-3
OVERLOAD_FACTOR = 4.0


def _bench_options() -> Options:
    """Geometry sized so the workload never flushes mid-run: the arm
    contrast is pure queueing behavior, not flush interference."""
    return Options(
        block_size=4096,
        sstable_size=1024 * 1024,
        memtable_size=1024 * 1024,
        max_levels=4,
    )


def _bench_db() -> DB:
    fs = SimulatedFS(DeviceModel(write_op_cost=WRITE_OP_COST), realtime=1.0)
    return DB(fs, _bench_options(), seed=1)


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile in milliseconds."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index] * 1000.0


async def _calibrate(port: int, clients: int = 8, probes: int = 16) -> float:
    """Measured put capacity (ops/sec) of one server.

    Calibration must be *concurrent*: group commit amortizes the WAL
    append across queued writers, so single-client closed-loop latency
    wildly understates what the server completes per second under load —
    and an "overload" computed from it would not overload anything."""

    async def one(index: int) -> None:
        """One calibration client: a short closed-loop put burst."""
        client = ServeClient("127.0.0.1", port, max_retries=0)
        await client.connect()
        try:
            for i in range(probes):
                await client.put(b"calibrate-%03d-%06d" % (index, i), b"w" * 100)
        finally:
            await client.aclose()

    start = time.perf_counter()
    await asyncio.gather(*(one(index) for index in range(clients)))
    return clients * probes / (time.perf_counter() - start)


async def _drive_connection(
    port: int, count: int, interval: float, latencies: list[float], counts: dict
) -> None:
    """One open-loop connection: a put every ``interval`` seconds, on the
    clock — a slow reply eats into the next tick's sleep, not its start."""
    client = ServeClient("127.0.0.1", port, max_retries=0)
    await client.connect()
    loop = asyncio.get_running_loop()
    try:
        next_tick = loop.time()
        for i in range(count):
            sleep_for = next_tick - loop.time()
            if sleep_for > 0:
                await asyncio.sleep(sleep_for)
            next_tick += interval
            start = loop.time()
            try:
                await client.put(b"load-%012d" % i, b"w" * 100)
            except RetryLaterError:
                counts["shed"] += 1
                continue
            except ServeError:
                counts["error"] += 1
                continue
            latencies.append(loop.time() - start)
            counts["ok"] += 1
    finally:
        await client.aclose()


async def _run_arm(
    admission: bool, requests: int, conns: int
) -> dict:
    """One overload arm: fresh engine + server, 4x-capacity open-loop load."""
    db = _bench_db()
    server = ShardServer(
        db, "127.0.0.1", 0,
        executor_threads=2,
        admission_control=admission,
        max_inflight_writes=8,
        drain_timeout=30.0,
    )
    await server.start()
    try:
        capacity = await _calibrate(server.port)
        offered = capacity * OVERLOAD_FACTOR
        interval = conns / offered
        latencies: list[float] = []
        counts = {"ok": 0, "shed": 0, "error": 0}
        per_conn = requests // conns
        start = time.perf_counter()
        await asyncio.gather(*(
            _drive_connection(server.port, per_conn, interval, latencies, counts)
            for _ in range(conns)
        ))
        wall = time.perf_counter() - start
    finally:
        await server.aclose()
        db.close()
    return {
        "admission_control": admission,
        "capacity_ops_per_sec": round(capacity, 1),
        "offered_ops_per_sec": round(offered, 1),
        "requests": per_conn * conns,
        "completed": counts["ok"],
        "shed": counts["shed"],
        "errors": counts["error"],
        "goodput_ops_per_sec": round(counts["ok"] / wall, 1),
        "p50_ms": round(_percentile(latencies, 0.50), 2),
        "p99_ms": round(_percentile(latencies, 0.99), 2),
        "wall_s": round(wall, 2),
    }


def run(quick: bool) -> dict:
    """Both arms and their p99 and goodput ratios."""
    # Connection count is the uncontrolled arm's queue depth (each
    # connection is FIFO, so its backlog caps at one request); it stays
    # fixed across modes — shrinking it would shrink the very contrast
    # under test — and quick mode only trims the per-connection count.
    requests = 640 if quick else 1920
    conns = 32
    print(f"serving robustness ({'quick' if quick else 'full'} mode, "
          f"{requests} requests over {conns} connections at "
          f"{OVERLOAD_FACTOR:g}x capacity)")
    arms = {}
    for name, admission in (("controlled", True), ("uncontrolled", False)):
        arms[name] = asyncio.run(_run_arm(admission, requests, conns))
        arm = arms[name]
        print(f"  {name:<13} p50={arm['p50_ms']:>8.2f}ms  "
              f"p99={arm['p99_ms']:>9.2f}ms  "
              f"goodput={arm['goodput_ops_per_sec']:>7.1f}/s  "
              f"shed={arm['shed']}")
    p99_ratio = (
        arms["controlled"]["p99_ms"] / arms["uncontrolled"]["p99_ms"]
        if arms["uncontrolled"]["p99_ms"] else 0.0
    )
    goodput_ratio = (
        arms["controlled"]["goodput_ops_per_sec"]
        / arms["uncontrolled"]["goodput_ops_per_sec"]
        if arms["uncontrolled"]["goodput_ops_per_sec"] else 0.0
    )
    print(f"  p99 ratio (controlled/uncontrolled): {p99_ratio:.3f}")
    print(f"  goodput ratio: {goodput_ratio:.3f}")
    return {
        "arms": arms,
        "metrics": {
            "p99_ratio_controlled_over_uncontrolled": round(p99_ratio, 3),
            "goodput_ratio_controlled_over_uncontrolled": round(goodput_ratio, 3),
        },
    }
