"""Serving chaos harness: composed network + disk fault schedules.

Each *schedule* is one seeded scenario: a :class:`ShardServer` over a
``FaultInjectionFS``-backed engine, a retrying :class:`ServeClient`
writing a keyed workload, one network fault (mid-frame disconnect,
stalled reader, connection flood, malformed frame mid-pipeline) composed
with one disk fault (transient/permanent, WAL/SST/manifest, offset into
the run) — then a graceful drain, a simulated whole-process crash, and a
recovery audit.

Invariants asserted per schedule (DESIGN.md §15):

* **Acked-write durability** — every PUT the client saw ``STATUS_OK``
  for lands in a :class:`~oracle.model.Model`, and after ``crash()`` →
  ``heal()`` → reopen the store equals it exactly
  (:func:`~oracle.model.recovery_violations`): each acked value reads
  back, and no write that was never acked shows up.  The WAL syncs per
  commit, so an acked write is durable by construction; the harness
  proves the serving layer never acks around that barrier.
* **Degrade → resume** — when a hard fault degrades the engine, writes
  answer ``STATUS_UNAVAILABLE`` while reads still serve; after the fault
  clears and ``DB.resume()``, writes succeed again.
* **No leaks** — after ``aclose()`` no hop task survives, no
  in-flight request was cancelled (``cancelled_inflight == 0``), and the
  executor threads are gone.

CLI::

    python -m oracle.servechaos [--quick] [--schedules N] [--seed N]
                                [--json PATH]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import threading
import time
from dataclasses import dataclass, field

from repro.core.db import DB
from repro.errors import ReproError
from repro.options import Options
from repro.serve import protocol as proto
from repro.serve.client import ServeClient, ServeError, UnavailableError
from repro.serve.server import ShardServer
from repro.storage.faults import FaultInjectionFS, FaultPolicy
from repro.storage.fs import SimulatedFS

from .model import Model, recovery_violations

#: The keys the client workload writes, in order.
WORKLOAD_KEYS = [b"chaos-%06d" % i for i in range(12)]
#: The malformed pipeline's two puts: the first is acked, the second
#: follows the bad frame and must never execute.
PIPELINE_KEYS = [b"chaos-pipeline-a", b"chaos-pipeline-b"]

#: Network fault kinds one schedule may compose with a disk fault.
NETWORK_FAULTS = (
    "none", "midframe", "stalled_reader", "flood", "malformed_pipeline",
)

#: Disk fault templates: (op, pattern, kind) — ``after``/``count`` are
#: drawn per schedule.  WAL faults exercise foreground write failure and
#: degrade; SST faults exercise flush/read failure; manifest faults hit
#: the commit path.
DISK_FAULTS = (
    None,
    ("append", "*.log", "transient"),
    ("append", "*.log", "permanent"),
    ("sync", "*.log", "transient"),
    ("create", "*.sst", "permanent"),
    ("append", "*.sst", "transient"),
    ("read", "*.sst", "transient"),
    ("sync", "MANIFEST-*", "transient"),
)


def _chaos_options() -> Options:
    """Tiny synchronous geometry: flushes and compactions land inside a
    dozen-write schedule, and no background thread exists to leak."""
    return Options(
        block_size=256,
        sstable_size=1024,
        memtable_size=1024,
        max_levels=4,
    )


@dataclass
class ScheduleResult:
    """Outcome of one composed fault schedule."""

    seed: int
    network_fault: str
    disk_fault: str
    #: Keys of the acked writes the recovery audit checked by value.
    audited: list[bytes] = field(default_factory=list)
    #: What :func:`~oracle.model.recovery_violations` found after reopen.
    violations: list[str] = field(default_factory=list)
    degrade_events: int = 0
    resume_failed: bool = False
    cancelled_inflight: int = 0
    leaked_tasks: int = 0
    leaked_threads: int = 0
    reset_races: int = 0
    error: str | None = None

    @property
    def passed(self) -> bool:
        """True when every invariant held for this schedule."""
        return (
            not self.violations
            and not self.resume_failed
            and self.cancelled_inflight == 0
            and self.leaked_tasks == 0
            and self.leaked_threads == 0
            and self.reset_races == 0
            and self.error is None
        )


# --------------------------------------------------------- network faults


async def _fault_midframe(port: int) -> None:
    """Promise a 100-byte frame, deliver 10 bytes, vanish."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write((100).to_bytes(4, "big") + b"\x01tenbytes!"[:11])
    await writer.drain()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _fault_stalled_reader(port: int) -> None:
    """Pipeline a burst of pings without reading, stall, then drain."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    burst = 16
    writer.write(proto.encode_frame(proto.OP_PING) * burst)
    await writer.drain()
    await asyncio.sleep(0.02)  # the server sits on buffered responses
    for _ in range(burst):
        header = await reader.readexactly(4)
        await reader.readexactly(int.from_bytes(header, "big"))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _fault_flood(port: int) -> None:
    """A burst of short-lived connections, half abandoned unread."""

    async def one(read_reply: bool) -> None:
        """One flood connection: ping, then either read the reply or bail."""
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
        except (ConnectionError, OSError):
            return
        writer.write(proto.encode_frame(proto.OP_PING))
        try:
            await writer.drain()
            if read_reply:
                header = await reader.readexactly(4)
                await reader.readexactly(int.from_bytes(header, "big"))
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    await asyncio.gather(*(one(i % 2 == 0) for i in range(20)))


async def _fault_malformed_pipeline(
    port: int, result: ScheduleResult, model: Model
) -> None:
    """[valid put][bad opcode][valid put] in one write: the error frame
    must arrive intact and the connection must end with a clean EOF — a
    reset that tears the error frame away is the bug satellite #1 fixed."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    burst = (
        proto.encode_put(PIPELINE_KEYS[0], b"1")
        + proto.encode_frame(0x7E)
        + proto.encode_put(PIPELINE_KEYS[1], b"2")
    )
    writer.write(burst)
    await writer.drain()
    try:
        header = await reader.readexactly(4)
        first = await reader.readexactly(int.from_bytes(header, "big"))
        header = await reader.readexactly(4)
        second = await reader.readexactly(int.from_bytes(header, "big"))
        if first[0] == proto.STATUS_OK:
            model.apply(("put", PIPELINE_KEYS[0], b"1"))
        if second[0] != proto.STATUS_ERROR:
            result.reset_races += 1
        # The server half-closed and is draining our burst; expect EOF,
        # not a reset, even though a pipelined frame is still unread.
        tail = await reader.read()
        if tail:
            result.reset_races += 1
    except (ConnectionResetError, asyncio.IncompleteReadError):
        result.reset_races += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return None


# --------------------------------------------------------------- schedule


async def _run_workload(
    server: ShardServer, db: DB, fs: FaultInjectionFS,
    result: ScheduleResult, model: Model, rng: random.Random,
) -> None:
    """Write a keyed workload through a retrying client, healing and
    resuming through any degrade the disk fault causes."""
    client = ServeClient(
        "127.0.0.1", server.port, max_retries=3,
        backoff_base_s=0.002, backoff_cap_s=0.02, seed=rng.randrange(1 << 30),
    )
    await client.connect()
    loop = asyncio.get_running_loop()
    try:
        fault_at = rng.randrange(1, len(WORKLOAD_KEYS))
        for i, key in enumerate(WORKLOAD_KEYS):
            if i == fault_at and result.network_fault != "none":
                await _inject_network_fault(server.port, result, model)
            value = b"v" * rng.randrange(8, 120)
            try:
                await client.put(key, value)
            except UnavailableError:
                result.degrade_events += 1
                await _heal_and_resume(loop, server, db, fs, result)
                await client.put(key, value)  # must succeed post-resume
            except ServeError:
                # Permanent failure on this write (e.g. a hard WAL fault
                # failed the request itself and degraded the engine).
                # That attempt was not acked — the model records only the
                # retry below — but the engine must come back for the
                # rest of the schedule.
                result.degrade_events += 1
                await _heal_and_resume(loop, server, db, fs, result)
                await client.put(key, value)
            model.apply(("put", key, value))
            # Reads stay correct mid-chaos (and keep serving in degrade).
            if rng.random() < 0.3:
                got = await client.get(key)
                if got != value:
                    result.error = f"read-your-write violated for {key!r}"
                    return
    finally:
        await client.aclose()


async def _inject_network_fault(
    port: int, result: ScheduleResult, model: Model
) -> None:
    kind = result.network_fault
    if kind == "midframe":
        await _fault_midframe(port)
    elif kind == "stalled_reader":
        await _fault_stalled_reader(port)
    elif kind == "flood":
        await _fault_flood(port)
    elif kind == "malformed_pipeline":
        await _fault_malformed_pipeline(port, result, model)


async def _heal_and_resume(
    loop, server: ShardServer, db: DB, fs: FaultInjectionFS,
    result: ScheduleResult,
) -> None:
    """Operator playbook: clear the fault, resume, verify readiness."""
    fs.policy.clear()
    try:
        await loop.run_in_executor(None, db.resume)
    except ReproError:
        result.resume_failed = True
        return
    probe = ServeClient("127.0.0.1", server.port, max_retries=0)
    try:
        await probe.connect()
        if not await probe.ready():
            result.resume_failed = True
    finally:
        await probe.aclose()


async def _run_schedule_async(
    result: ScheduleResult, fs: FaultInjectionFS, db: DB, rng: random.Random,
) -> None:
    server = ShardServer(
        db, "127.0.0.1", 0,
        executor_threads=2,
        max_inflight_writes=8,
        drain_timeout=5.0,
    )
    await server.start()
    model = Model()
    try:
        await _run_workload(server, db, fs, result, model, rng)
    finally:
        await server.aclose()
        result.cancelled_inflight = server.cancelled_inflight
        result.leaked_tasks = len(server._tasks)
    # Crash: drop every un-synced byte, reopen, audit against the model.
    fs.policy.clear()
    fs.crash()
    fs.heal()
    reopened = DB(fs, _chaos_options())
    try:
        result.violations = recovery_violations(
            reopened, model, None, WORKLOAD_KEYS + PIPELINE_KEYS
        )
    finally:
        reopened.close()
    result.audited = sorted(model.state)


def run_schedule(seed: int) -> ScheduleResult:
    """One composed network+disk fault schedule (seeded, deterministic
    fault placement; wall-clock interleaving varies run to run — the
    invariants must hold under any interleaving)."""
    rng = random.Random(seed)
    network_fault = NETWORK_FAULTS[rng.randrange(len(NETWORK_FAULTS))]
    disk_template = DISK_FAULTS[rng.randrange(len(DISK_FAULTS))]
    result = ScheduleResult(
        seed=seed,
        network_fault=network_fault,
        disk_fault="none" if disk_template is None else ":".join(disk_template),
    )
    threads_before = threading.active_count()
    policy = FaultPolicy(seed=seed)
    fs = FaultInjectionFS(SimulatedFS(), policy)
    db = DB(fs, _chaos_options())
    # Arm the disk fault only after a clean open, so it lands mid-serving
    # (an open-time fault would just fail the constructor, testing nothing
    # about the serving path).
    if disk_template is not None:
        op, pattern, kind = disk_template
        policy.fail(
            op, pattern, kind=kind,
            after=rng.randrange(0, 6),
            count=rng.randrange(1, 3),
        )
    try:
        asyncio.run(_run_schedule_async(result, fs, db, rng))
    except Exception as exc:  # noqa: BLE001 - a schedule crash is a finding
        result.error = f"{type(exc).__name__}: {exc}"
    # The serving pool must be gone; give worker threads a beat to exit.
    for _ in range(50):
        if threading.active_count() <= threads_before:
            break
        time.sleep(0.01)
    result.leaked_threads = max(0, threading.active_count() - threads_before)
    return result


def run_serve_chaos(num_schedules: int, *, seed: int = 0) -> dict:
    """Run ``num_schedules`` composed schedules; return the JSON report."""
    results = [run_schedule(seed * 100_000 + i) for i in range(num_schedules)]
    failed = [r for r in results if not r.passed]
    by_network: dict[str, int] = {}
    by_disk: dict[str, int] = {}
    for r in results:
        by_network[r.network_fault] = by_network.get(r.network_fault, 0) + 1
        by_disk[r.disk_fault] = by_disk.get(r.disk_fault, 0) + 1
    return {
        "schedules": num_schedules,
        "seed": seed,
        "passed": not failed,
        "failed_schedules": len(failed),
        "acked_writes_audited": sum(len(r.audited) for r in results),
        "recovery_violations": sum(len(r.violations) for r in results),
        "degrade_events": sum(r.degrade_events for r in results),
        "resume_failures": sum(1 for r in results if r.resume_failed),
        "cancelled_inflight": sum(r.cancelled_inflight for r in results),
        "leaked_tasks": sum(r.leaked_tasks for r in results),
        "leaked_threads": sum(r.leaked_threads for r in results),
        "reset_races": sum(r.reset_races for r in results),
        "by_network_fault": by_network,
        "by_disk_fault": by_disk,
        "failures": [
            {
                "seed": r.seed,
                "network_fault": r.network_fault,
                "disk_fault": r.disk_fault,
                "violations": r.violations,
                "resume_failed": r.resume_failed,
                "cancelled_inflight": r.cancelled_inflight,
                "leaked_tasks": r.leaked_tasks,
                "leaked_threads": r.leaked_threads,
                "reset_races": r.reset_races,
                "error": r.error,
            }
            for r in failed[:20]
        ],
    }


def main(argv: list[str] | None = None) -> int:
    """0 = every schedule held every invariant, 1 = a violation."""
    parser = argparse.ArgumentParser(
        prog="python -m oracle.servechaos",
        description="Composed network+disk fault schedules against the "
        "serving front end; exits non-zero on any invariant violation.",
    )
    parser.add_argument("--schedules", type=int, default=None, metavar="N",
                        help="schedule count (default 240 full / 24 quick)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="CI smoke size")
    parser.add_argument("--json", metavar="PATH", help="write the report here")
    args = parser.parse_args(argv)
    num = args.schedules if args.schedules is not None else (24 if args.quick else 240)
    report = run_serve_chaos(num, seed=args.seed)
    print(
        f"servechaos: {report['schedules']} schedules, "
        f"{report['acked_writes_audited']} acked writes audited, "
        f"{report['recovery_violations']} recovery violations, "
        f"{report['degrade_events']} degrades, "
        f"{report['cancelled_inflight']} cancelled in-flight, "
        f"{report['leaked_tasks']} leaked tasks, "
        f"{report['leaked_threads']} leaked threads, "
        f"{report['reset_races']} reset races"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"report: {args.json}")
    if not report["passed"]:
        print(f"FAIL: {report['failed_schedules']} schedule(s) violated an "
              f"invariant")
        return 1
    print("OK: all invariants held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
