"""Crash-point consistency harness.

Enumerates every durability barrier (``sync``) a seeded workload crosses,
then replays the workload once per barrier with a simulated power-cut at
exactly that point (:class:`~repro.storage.faults.FaultInjectionFS` with
``crash_at_sync``), heals the filesystem, reopens the store, and checks
the recovery invariants:

1. **No acked-durable write lost** — every operation that returned before
   the crash is readable with the value it wrote (the per-record WAL sync
   means an acknowledged write's barrier has landed).
2. **No half-visible write** — the operation in flight at the crash is
   atomic: after recovery its keys all show the new values or all show the
   old ones, never a mix.
3. **Clean structure** — a full scan succeeds (every block checksum
   verifies) and agrees with the point reads.
4. **Repair convergence** — :func:`~repro.tools.repair.repair_store` on a
   copy of the crashed files produces a store whose contents equal the
   normally-recovered one (repair never needs the manifest the crash may
   have torn).

A crash *between* two barriers is equivalent to a crash at the next one
(nothing became durable in between), so barrier enumeration covers the
whole schedule of distinguishable crash states; torn tails of the final
un-synced append are exercised by the fault FS's ``torn_writes`` mode.

Runs the synchronous engine (no background threads) so the sync schedule
is a pure function of the seed — every run of the same seed crashes at
bit-identical states.

``--sharded`` runs the same protocol against a :class:`ShardedDB`: every
shard filesystem *and* the router catalog share one global sync-barrier
clock (:class:`MachineCrashClock`), and the scheduled crash takes down
the whole machine at once — mid shard-split entry copy, mid router
commit, mid source-shard teardown.  Recovery reopens the sharded store,
which must GC orphan child shards and serve exactly the acked state.
Two invariants shift with the sharded contract: batch atomicity is
checked per shard (a cross-shard batch commits one WAL record per
engine — ``ShardedDB.write_batch`` documents cross-shard atomicity out
of scope), and the repair-convergence check — single-store by
construction — is replaced by the router orphan-GC check.

CLI::

    python -m repro.tools crashtest [--ops N] [--points N] [--seed N]
                                    [--quick] [--sharded] [--json PATH]
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field

from ..core.db import DB
from ..core.write_batch import WriteBatch
from ..errors import SimulatedCrashError
from ..options import COMPACTION_SELECTIVE, Options
from ..sharding import MemoryShardStore, ShardedDB
from ..storage.faults import FaultInjectionFS, FaultPolicy
from ..storage.fs import FileSystem, SimulatedFS
from .repair import repair_store

#: Tiny geometry: flushes, compactions, WAL rotations, and manifest growth
#: all happen within a ~hundred-operation workload, so the sync schedule
#: crosses every subsystem's barriers.
_HARNESS_GEOMETRY = dict(
    block_size=256,
    sstable_size=1024,
    memtable_size=1024,
    max_levels=5,
    level0_size_factor=4,
    level_size_multiplier=4,
)


def harness_options(**overrides) -> Options:
    """The store configuration every harness run uses.

    ``overrides`` lets drivers layer extra options onto the fixed harness
    geometry — e.g. ``compaction_offload="process"`` to crash-test the
    offloaded execution backend (DESIGN.md §11)."""
    params: dict = dict(compaction_style=COMPACTION_SELECTIVE, **_HARNESS_GEOMETRY)
    params.update(overrides)
    return Options(**params)


# --------------------------------------------------------------- workload


def build_workload(
    num_ops: int, seed: int, keyspace: int = 32, value_size: int = 0
) -> list[tuple]:
    """A deterministic op list: puts, deletes, multi-key batches, flushes.

    The small keyspace forces overwrites and tombstones, so recovery must
    get *shadowing* right, not just presence.  ``value_size`` pads every
    value up to that length (values stay distinct — the pad is a suffix),
    so the kv-separation leg writes values that cross the vlog threshold.
    """
    rng = random.Random(seed)

    def pad(value: bytes) -> bytes:
        return value.ljust(value_size, b"x") if value_size else value

    ops: list[tuple] = []
    for i in range(num_ops):
        roll = rng.random()
        key = f"k{rng.randrange(keyspace):04d}".encode()
        if roll < 0.62:
            ops.append(("put", key, pad(f"v{i:06d}".encode())))
        elif roll < 0.76:
            ops.append(("delete", key))
        elif roll < 0.92:
            entries = []
            for j in range(rng.randrange(2, 5)):
                bkey = f"k{rng.randrange(keyspace):04d}".encode()
                if rng.random() < 0.2:
                    entries.append(("delete", bkey, None))
                else:
                    entries.append(("put", bkey, pad(f"b{i:06d}.{j}".encode())))
            ops.append(("batch", entries))
        else:
            ops.append(("flush",))
    return ops


def _apply_op(db: DB, op: tuple) -> None:
    if op[0] == "put":
        db.put(op[1], op[2])
    elif op[0] == "delete":
        db.delete(op[1])
    elif op[0] == "batch":
        batch = WriteBatch()
        for kind, key, value in op[1]:
            if kind == "put":
                batch.put(key, value)
            else:
                batch.delete(key)
        db.write(batch)
    elif op[0] == "flush":
        db.flush()


def _expected_after(state: dict[bytes, bytes], op: tuple) -> dict[bytes, bytes]:
    """The acked KV state after ``op`` lands on ``state`` (pure)."""
    state = dict(state)
    if op[0] == "put":
        state[op[1]] = op[2]
    elif op[0] == "delete":
        state.pop(op[1], None)
    elif op[0] == "batch":
        for kind, key, value in op[1]:
            if kind == "put":
                state[key] = value
            else:
                state.pop(key, None)
    return state


def _touched_keys(op: tuple | None) -> list[bytes]:
    # Router edits (split/merge) and flushes move bytes, not KV state.
    if op is None or op[0] in ("flush", "split", "merge"):
        return []
    if op[0] == "batch":
        return sorted({key for _kind, key, _v in op[1]})
    return [op[1]]


# --------------------------------------------------------------- execution


def _quiet_shutdown(db: DB) -> None:
    """Stop a crashed DB's execution backends without the closing flush.

    A simulated crash leaves the DB unusable but its worker pools (subtask
    threads, offload processes) alive; crashing hundreds of times per
    harness run would otherwise accumulate leaked workers."""
    try:
        db._shutdown_executors()
    except BaseException:  # noqa: BLE001 - best-effort cleanup
        pass


def _run_workload(
    fs: FaultInjectionFS, ops: list[tuple], options: Options | None = None
) -> tuple[dict[bytes, bytes], tuple | None]:
    """Run ``ops`` until completion or the scheduled crash fires.

    Returns ``(acked_state, pending_op)`` — the KV state every completed
    (acknowledged) operation built up, and the op in flight at the crash
    (None when the run completed, or crashed outside any op).
    """
    acked: dict[bytes, bytes] = {}
    try:
        db = DB(fs, options or harness_options(), seed=1)
    except BaseException:  # noqa: BLE001 - crash during open
        return acked, None
    for op in ops:
        try:
            _apply_op(db, op)
        except BaseException:  # noqa: BLE001 - crash (or its fallout)
            _quiet_shutdown(db)
            return acked, op
        acked = _expected_after(acked, op)
    try:
        db.close()
    except BaseException:  # noqa: BLE001 - crash during the closing flush
        _quiet_shutdown(db)
    return acked, None


def _clone_files(fs: FaultInjectionFS) -> SimulatedFS:
    """Accounting-free copy of the (healed) file state, for repair runs."""
    clone = SimulatedFS()
    for name in fs.inner.list_dir():
        clone.replace(name, fs.inner.contents(name))
    return clone


def _state_violations(
    db,
    acked: dict[bytes, bytes],
    pending: tuple | None,
    *,
    atomic_group=None,
) -> tuple[list[str], dict[bytes, bytes] | None]:
    """Invariants 1–3 against any reopened engine exposing get/scan.

    ``atomic_group`` maps a key to its atomicity domain for the
    all-or-nothing check — None means one global domain (a single engine,
    where a batch is one WAL record); the sharded harness passes the
    router's ``shard_for``, because a cross-shard batch commits one WAL
    record *per shard* and only per-shard atomicity is the contract.

    Returns ``(violations, scanned)`` — the full-scan view is handed back
    so the single-store harness can feed it to the repair check."""
    violations: list[str] = []
    new_state = _expected_after(acked, pending) if pending else acked
    touched = set(_touched_keys(pending))

    # 1. acked-durable writes survive (keys the pending op touches are
    #    judged by the atomicity rule instead).
    for key, value in acked.items():
        if key in touched:
            continue
        got = db.get(key)
        if got != value:
            violations.append(
                f"acked write lost: {key!r} expected {value!r} got {got!r}"
            )
    for key in touched:
        old, new = acked.get(key), new_state.get(key)
        got = db.get(key)
        if got != old and got != new:
            violations.append(
                f"half-visible write: {key!r} is {got!r}, "
                f"expected old {old!r} or new {new!r}"
            )

    # 2. the pending op is all-or-nothing within each atomicity domain.
    decisive = [
        key for key in touched if acked.get(key) != new_state.get(key)
    ]
    domains: dict = {}
    for key in decisive:
        group = atomic_group(key) if atomic_group is not None else 0
        domains.setdefault(group, []).append(key)
    for keys in domains.values():
        sides = {db.get(key) == new_state.get(key) for key in keys}
        if len(sides) > 1:
            violations.append(
                f"pending op split: keys {keys!r} mix old and new state"
            )

    # 3. a full scan is structurally clean and agrees with point reads.
    try:
        scanned = dict(db.scan())
    except BaseException as exc:  # noqa: BLE001
        violations.append(f"scan failed: {type(exc).__name__}: {exc}")
        scanned = None
    if scanned is not None:
        for key, value in acked.items():
            if key in touched:
                continue
            if scanned.get(key) != value:
                violations.append(
                    f"scan disagrees: {key!r} expected {value!r} "
                    f"got {scanned.get(key)!r}"
                )
    return violations, scanned


def _check_recovery(
    fs: FaultInjectionFS,
    acked: dict[bytes, bytes],
    pending: tuple | None,
    *,
    repair: bool = True,
    options: Options | None = None,
) -> list[str]:
    """Reopen the healed store and verify every invariant; returns the
    violations (empty = this crash point recovers perfectly)."""
    if options is None:
        options = harness_options()
    try:
        db = DB(fs, options, seed=1)
    except BaseException as exc:  # noqa: BLE001 - any failure is a violation
        return [f"reopen failed: {type(exc).__name__}: {exc}"]

    try:
        violations, scanned = _state_violations(db, acked, pending)

        # 4. repair_store on a copy converges to the same contents.
        if repair and scanned is not None:
            clone = _clone_files(fs)
            try:
                repair_store(clone, options)
                repaired = DB(clone, options, seed=1)
                try:
                    repaired_view = dict(repaired.scan())
                finally:
                    repaired.close()
                if repaired_view != scanned:
                    missing = set(scanned) - set(repaired_view)
                    extra = set(repaired_view) - set(scanned)
                    violations.append(
                        f"repair diverged: missing {sorted(missing)!r}, "
                        f"extra {sorted(extra)!r}"
                    )
            except BaseException as exc:  # noqa: BLE001
                violations.append(
                    f"repair failed: {type(exc).__name__}: {exc}"
                )
    finally:
        try:
            db.close()
        except BaseException:  # noqa: BLE001 - already reporting violations
            pass
    return violations


# --------------------------------------------------------------- reporting


@dataclass
class CrashTestReport:
    """Outcome of one harness run (JSON-serializable via :meth:`to_dict`)."""

    seed: int
    num_ops: int
    total_sync_points: int
    points_tested: list[int] = field(default_factory=list)
    #: ``{"point": int, "violations": [str, ...]}`` per failing point.
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def violation_count(self) -> int:
        return sum(len(f["violations"]) for f in self.failures)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "num_ops": self.num_ops,
            "total_sync_points": self.total_sync_points,
            "points_tested": self.points_tested,
            "failures": self.failures,
            "passed": self.passed,
        }

    def summary(self) -> str:
        """Human-readable outcome, listing each violating crash point."""
        lines = [
            f"workload: {self.num_ops} ops (seed {self.seed}), "
            f"{self.total_sync_points} sync points",
            f"crashed at {len(self.points_tested)} distinct points: "
            + ("all invariants held" if self.passed else "VIOLATIONS"),
        ]
        for failure in self.failures:
            lines.append(f"  point {failure['point']}:")
            for violation in failure["violations"]:
                lines.append(f"    - {violation}")
        return "\n".join(lines)


def _subsample(total: int, limit: int) -> list[int]:
    """Up to ``limit`` indices spread evenly across ``range(total)``."""
    if total <= limit:
        return list(range(total))
    return sorted(
        {round(i * (total - 1) / (limit - 1)) for i in range(limit)}
    )


def run_crash_test(
    *,
    num_ops: int = 160,
    max_points: int = 96,
    seed: int = 0,
    check_repair: bool = True,
    options_overrides: dict | None = None,
    value_size: int = 0,
) -> CrashTestReport:
    """Phase A: measure the workload's sync schedule; phase B: crash at
    (up to ``max_points`` of) its barriers and verify recovery.

    ``options_overrides`` layers extra :class:`Options` fields onto the
    harness geometry for every DB the harness opens (workload, recovery,
    and repair runs alike).  ``value_size`` pads workload values (the
    kv-separation leg uses it to cross the vlog threshold)."""
    ops = build_workload(num_ops, seed, value_size=value_size)
    options = harness_options(**(options_overrides or {}))

    baseline_fs = FaultInjectionFS(SimulatedFS(), FaultPolicy(seed=seed))
    _run_workload(baseline_fs, ops, options)
    total = baseline_fs.sync_points

    report = CrashTestReport(seed=seed, num_ops=num_ops, total_sync_points=total)
    for point in _subsample(total, max_points):
        fs = FaultInjectionFS(
            SimulatedFS(), FaultPolicy(seed=seed, crash_at_sync=point)
        )
        acked, pending = _run_workload(fs, ops, options)
        if not fs.crashed:
            # Deterministic schedule: every enumerated barrier must fire.
            report.failures.append(
                {"point": point, "violations": ["scheduled crash never fired"]}
            )
            continue
        fs.heal()
        violations = _check_recovery(
            fs, acked, pending, repair=check_repair, options=options
        )
        report.points_tested.append(point)
        if violations:
            report.failures.append({"point": point, "violations": violations})
    return report


# ------------------------------------------------------------ sharded mode


class MachineCrashClock:
    """One simulated machine's global sync-barrier counter.

    A :class:`ShardedDB` spans many filesystems — one per shard plus the
    router catalog — but a power cut takes them all down at the same
    instant.  Every member :class:`SharedClockFaultFS` counts its sync
    barriers here, so ``crash_at_sync`` indexes one global schedule, and
    when it fires every member crashes together (machine-crash
    semantics, not a single-disk failure)."""

    def __init__(self, *, crash_at_sync: int | None = None):
        self.crash_at_sync = crash_at_sync
        self.count = 0
        self.fired = False
        self.members: list[FaultInjectionFS] = []
        self.lock = threading.Lock()

    def register(self, fs: FaultInjectionFS) -> None:
        with self.lock:
            self.members.append(fs)

    def tick(self) -> bool:
        """Advance the global barrier counter; True exactly once, at the
        scheduled crash barrier."""
        with self.lock:
            index = self.count
            self.count += 1
            if (
                self.crash_at_sync is not None
                and index == self.crash_at_sync
                and not self.fired
            ):
                self.fired = True
                return True
            return False

    def crash_all(self) -> None:
        for fs in self.members:
            fs.crash()

    def heal_all(self) -> None:
        """Disarm the schedule and heal every member for the recovery run
        (late-registered members — shards opened during recovery — join
        an already-disarmed clock)."""
        self.crash_at_sync = None
        for fs in self.members:
            fs.heal()


class SharedClockFaultFS(FaultInjectionFS):
    """A :class:`FaultInjectionFS` whose crash schedule lives on a shared
    :class:`MachineCrashClock` instead of its own policy.  At the
    scheduled global barrier the *whole machine* crashes — this FS and
    every sibling — before the barrier lands, then the sync raises."""

    def __init__(
        self,
        inner: FileSystem,
        clock: MachineCrashClock,
        policy: FaultPolicy | None = None,
    ):
        super().__init__(inner, policy or FaultPolicy())
        self._clock = clock
        clock.register(self)

    def sync_file(self, name: str) -> None:
        if self._clock.tick():
            self._clock.crash_all()
            raise SimulatedCrashError(
                f"simulated machine crash at global sync point "
                f"{self._clock.count - 1}"
            )
        super().sync_file(name)


def build_sharded_workload(
    num_ops: int, seed: int, keyspace: int = 32, value_size: int = 0
) -> list[tuple]:
    """The single-engine workload interleaved with router edits.

    A shard split lands every 16 KV ops and a merge every 24 (offset so
    they alternate), so the crash schedule's barriers fall inside the
    split's child entry-copy, the router snapshot commit, and the source
    shard teardown — the windows the split/merge protocol orders sync
    barriers around — as well as the ordinary WAL/flush/manifest ones.
    The operand is a raw draw; it picks a live shard index modulo the
    shard count at apply time."""
    rng = random.Random(seed ^ 0x51A2DED)
    ops = build_workload(num_ops, seed, keyspace, value_size)
    out: list[tuple] = []
    for i, op in enumerate(ops, start=1):
        out.append(op)
        if i % 16 == 0:
            out.append(("split", rng.randrange(1 << 16)))
        elif i % 24 == 12:
            out.append(("merge", rng.randrange(1 << 16)))
    return out


def _apply_sharded_op(db: ShardedDB, op: tuple) -> None:
    if op[0] == "split":
        # Median split; a shard with <2 distinct keys declines (None).
        db.split_shard(op[1] % db.num_shards)
    elif op[0] == "merge":
        if db.num_shards > 1:
            db.merge_shards(op[1] % (db.num_shards - 1))
    else:
        _apply_op(db, op)


def _quiet_sharded_shutdown(db: ShardedDB) -> None:
    """Best-effort worker teardown for a crashed ShardedDB (the closing
    flush would just raise ``SimulatedCrashError`` again)."""
    for shard_db in list(db._dbs.values()):
        _quiet_shutdown(shard_db)
    for pool in (db._executor, db._offload_pool):
        if pool is not None:
            try:
                pool.close()
            except BaseException:  # noqa: BLE001 - best-effort cleanup
                pass


def _sharded_store(clock: MachineCrashClock, seed: int) -> MemoryShardStore:
    """A shard store whose every filesystem — shards and the ``_router``
    catalog alike — is a member of ``clock``'s machine."""
    return MemoryShardStore(
        fs_factory=lambda _name: SharedClockFaultFS(
            SimulatedFS(), clock, FaultPolicy(seed=seed)
        )
    )


def _run_sharded_workload(
    store: MemoryShardStore,
    ops: list[tuple],
    options: Options,
    *,
    shards: int,
    boundaries: list[bytes],
) -> tuple[dict[bytes, bytes], tuple | None]:
    """Sharded twin of :func:`_run_workload`: run until completion or the
    machine crash, returning ``(acked_state, pending_op)``."""
    acked: dict[bytes, bytes] = {}
    try:
        db = ShardedDB(
            store, options, shards=shards, boundaries=list(boundaries), seed=1
        )
    except BaseException:  # noqa: BLE001 - crash during open
        return acked, None
    for op in ops:
        try:
            _apply_sharded_op(db, op)
        except BaseException:  # noqa: BLE001 - crash (or its fallout)
            _quiet_sharded_shutdown(db)
            return acked, op
        acked = _expected_after(acked, op)
    try:
        db.close()
    except BaseException:  # noqa: BLE001 - crash during the closing flush
        _quiet_sharded_shutdown(db)
    return acked, None


def _check_sharded_recovery(
    store: MemoryShardStore,
    acked: dict[bytes, bytes],
    pending: tuple | None,
    options: Options,
    *,
    shards: int,
    boundaries: list[bytes],
) -> list[str]:
    """Reopen the healed sharded store and verify invariants 1–3 plus the
    router's crash protocol: orphan child shards must be GC'd."""
    try:
        db = ShardedDB(
            store, options, shards=shards, boundaries=list(boundaries), seed=1
        )
    except BaseException as exc:  # noqa: BLE001 - any failure is a violation
        return [f"sharded reopen failed: {type(exc).__name__}: {exc}"]
    try:
        violations, _scanned = _state_violations(
            db, acked, pending, atomic_group=db.router.shard_for
        )
        leftover = set(store.shard_names()) - set(db.shard_names())
        if leftover:
            violations.append(
                f"orphan shards survived reopen GC: {sorted(leftover)!r}"
            )
    finally:
        try:
            db.close()
        except BaseException:  # noqa: BLE001 - already reporting violations
            pass
    return violations


def run_sharded_crash_test(
    *,
    num_ops: int = 160,
    max_points: int = 96,
    seed: int = 0,
    shards: int = 2,
    options_overrides: dict | None = None,
    value_size: int = 0,
) -> CrashTestReport:
    """The crash-point sweep against a 2-shard :class:`ShardedDB`.

    Same two phases as :func:`run_crash_test`, but the sync schedule is
    the *machine-global* one (every shard FS plus the router catalog),
    and the workload interleaves shard splits and merges so the sweep
    crashes inside the router-edit protocol as well as the per-shard
    write path.  Repair convergence is skipped (single-store invariant);
    orphan-shard GC on reopen is checked in its place."""
    ops = build_sharded_workload(num_ops, seed, value_size=value_size)
    options = harness_options(**(options_overrides or {}))
    # The keyspace is k0000..k0031; one boundary splits it evenly so both
    # initial shards see traffic from the first op on.
    boundaries = [b"k0016"]

    baseline_clock = MachineCrashClock()
    _run_sharded_workload(
        _sharded_store(baseline_clock, seed), ops, options,
        shards=shards, boundaries=boundaries,
    )
    total = baseline_clock.count

    report = CrashTestReport(seed=seed, num_ops=num_ops, total_sync_points=total)
    for point in _subsample(total, max_points):
        clock = MachineCrashClock(crash_at_sync=point)
        store = _sharded_store(clock, seed)
        acked, pending = _run_sharded_workload(
            store, ops, options, shards=shards, boundaries=boundaries
        )
        if not clock.fired:
            # Deterministic schedule: every enumerated barrier must fire.
            report.failures.append(
                {"point": point, "violations": ["scheduled crash never fired"]}
            )
            continue
        clock.heal_all()
        violations = _check_sharded_recovery(
            store, acked, pending, options, shards=shards, boundaries=boundaries
        )
        report.points_tested.append(point)
        if violations:
            report.failures.append({"point": point, "violations": violations})
    return report


# --------------------------------------------------------------------- CLI


def build_crashtest_parser():
    """Argument schema for ``crashtest`` (exposed for tests)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.tools crashtest",
        description="Crash at every sync point of a seeded workload and "
        "verify recovery invariants.",
    )
    parser.add_argument("--ops", type=int, default=160, metavar="N",
                        help="workload length (default 160)")
    parser.add_argument("--points", type=int, default=96, metavar="N",
                        help="max crash points, spread evenly (default 96)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload for CI (still >= 50 points)")
    parser.add_argument("--no-repair", action="store_true",
                        help="skip the repair-convergence check")
    parser.add_argument("--sharded", action="store_true",
                        help="crash-test a 2-shard ShardedDB (machine-wide "
                        "sync clock, split/merge ops in the workload)")
    parser.add_argument("--offload", choices=["none", "thread", "process"],
                        default="none",
                        help="run every harness DB with this compaction "
                        "offload backend (default none)")
    parser.add_argument("--kv-separation", action="store_true",
                        help="run every harness DB with key-value separation "
                        "on (tiny vlog threshold/file size + padded values, "
                        "so crash points land inside vlog append, head-roll "
                        "registration, and GC rewrite/journal windows)")
    parser.add_argument("--tuner", action="store_true",
                        help="run every harness DB with the online compaction "
                        "tuner on (tiny windows, zero cooldown), so crash "
                        "points land around live policy transitions — "
                        "quiesce, policy swap, and the post-switch "
                        "compaction burst")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full report as JSON")
    return parser


#: Workload value padding used by the kv-separation leg — large enough to
#: cross :func:`kv_separation_overrides`'s threshold, small enough that the
#: harness geometry (1 KiB memtable) still flushes every few ops.
KV_SEPARATION_VALUE_SIZE = 48


def kv_separation_overrides() -> dict:
    """Options overrides for crash-testing the value-log subsystem.

    The threshold sits below the padded workload values so every put is
    separated; the tiny file size forces head rolls (manifest-journaled
    registrations) within a ~hundred-op workload; the eager GC ratio makes
    GC fire during the run, so the crash schedule's barriers fall inside
    GC's re-put stream, deletion journal write, and deferred unlink."""
    return {
        "kv_separation": True,
        "kv_separation_threshold": 24,
        "vlog_file_size": 1024,
        "vlog_gc_ratio": 0.3,
    }


def tuner_overrides() -> dict:
    """Options overrides for crash-testing live policy transitions.

    Tiny windows, single-window hysteresis, and zero cooldown make the
    tuner switch policies every few ops of the harness workload, so the
    crash schedule's sync points fall inside and around the transition
    protocol: the scheduler quiesce, the under-lock policy swap, and the
    compaction the switch requests.  Policies are not persisted, so every
    recovery must come up cleanly on the *configured* policy regardless of
    what the tuner had switched to at the crash point."""
    return {
        "compaction_tuner": True,
        "tuner_window_ops": 8,
        "tuner_hysteresis_windows": 1,
        "tuner_cooldown_ops": 0,
    }


def offload_overrides(mode: str) -> dict:
    """Options overrides for crash-testing the offload backend.

    The fork context keeps per-crash-point pool startup cheap (the harness
    opens hundreds of DBs), and two workers are enough to exercise the
    concurrent submit paths."""
    if mode == "none":
        return {}
    return {
        "compaction_offload": mode,
        "compaction_offload_mp_context": "fork",
        "compaction_workers": 2,
    }


def run_crashtest_cli(argv: list[str]) -> int:
    """``crashtest`` subcommand: 0 = all invariants held, 1 = violations."""
    args = build_crashtest_parser().parse_args(argv)
    num_ops = 90 if args.quick else args.ops
    max_points = 56 if args.quick else args.points
    overrides = offload_overrides(args.offload)
    value_size = 0
    if args.kv_separation:
        overrides.update(kv_separation_overrides())
        value_size = KV_SEPARATION_VALUE_SIZE
    if args.tuner:
        overrides.update(tuner_overrides())
    if args.sharded:
        report = run_sharded_crash_test(
            num_ops=num_ops,
            max_points=max_points,
            seed=args.seed,
            options_overrides=overrides,
            value_size=value_size,
        )
    else:
        report = run_crash_test(
            num_ops=num_ops,
            max_points=max_points,
            seed=args.seed,
            check_repair=not args.no_repair,
            options_overrides=overrides,
            value_size=value_size,
        )
    print(report.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"report written to {args.json}")
    return 0 if report.passed else 1
