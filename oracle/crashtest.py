"""Crash-point consistency harness.

Enumerates every durability barrier (``sync``) a seeded workload crosses,
then replays the workload once per barrier with a simulated power-cut at
exactly that point (:class:`~repro.storage.faults.FaultInjectionFS` with
``crash_at_sync``), heals the filesystem, reopens the store, and checks
:func:`oracle.model.recovery_violations` against the model of every op
that returned before the crash:

1. **Acked state is exact** — every key of the workload reads as the
   acknowledged ops left it, deletes included (the per-record WAL sync
   means an acknowledged write's barrier has landed).
2. **No half-visible write** — the operation in flight at the crash is
   atomic: after recovery its keys all show the new values or all show the
   old ones, never a mix.
3. **Exact scan** — a full scan succeeds (every block checksum verifies)
   and equals the model outside the in-flight op's keys.
4. **Catalog rule** — sorted levels stay disjoint and every live file
   exists.

plus one rule that depends on the target:

5. **Repair convergence** (single store) —
   :func:`~repro.tools.repair.repair_store` on a copy of the crashed files
   produces a store whose contents equal the normally-recovered one
   (repair never needs the manifest the crash may have torn).

A crash *between* two barriers is equivalent to a crash at the next one
(nothing became durable in between), so barrier enumeration covers the
whole schedule of distinguishable crash states; torn tails of the final
un-synced append are exercised by the fault FS's ``torn_writes`` mode.

Runs the synchronous engine (no background threads) so the sync schedule
is a pure function of the seed — every run of the same seed crashes at
bit-identical states.

``--sharded`` runs the same loop against a :class:`ShardedDB`: every
shard filesystem *and* the router catalog share one global sync-barrier
clock (:class:`MachineCrashClock`), and the scheduled crash takes down
the whole machine at once — mid shard-split entry copy, mid router
commit, mid source-shard teardown.  Two rules shift with the sharded
contract: batch atomicity is checked per shard (a cross-shard batch
commits one WAL record per engine — ``ShardedDB.write_batch`` documents
cross-shard atomicity out of scope), and rule 5 — single-store by
construction — becomes **orphan-shard GC**: reopening must drop every
child shard the committed router map does not reference.

CLI::

    python -m oracle.crashtest [--ops N] [--points N] [--seed N] [--quick]
                               [--no-repair] [--sharded] [--tuner]
                               [--offload {none,process}]
                               [--kv-separation] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import random
import threading
from dataclasses import dataclass, field

from repro.core.db import DB
from repro.core.write_batch import WriteBatch
from repro.errors import SimulatedCrashError
from repro.options import COMPACTION_SELECTIVE, Options
from repro.sharding import MemoryShardStore, ShardedDB
from repro.storage.faults import FaultInjectionFS, FaultPolicy
from repro.storage.fs import FileSystem, SimulatedFS
from repro.tools.repair import repair_store

from .model import Model, recovery_violations

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

#: The workload's keys are ``k0000`` … ``k0031``; recovery reads back every
#: one of them, so a key whose acked delete was lost is seen coming back.
KEYSPACE = 32


def _key(i: int) -> bytes:
    return f"k{i:04d}".encode()


KEYS = [_key(i) for i in range(KEYSPACE)]


def harness_options(**overrides) -> Options:
    """The store configuration every harness run uses.

    ``overrides`` lets drivers layer extra options onto the fixed harness
    geometry — e.g. ``compaction_offload="process"`` to crash-test the
    offloaded execution backend (DESIGN.md §11)."""
    params: dict = dict(compaction_style=COMPACTION_SELECTIVE, **_HARNESS_GEOMETRY)
    params.update(overrides)
    return Options(**params)


# --------------------------------------------------------------- workload


def build_workload(num_ops: int, seed: int, value_size: int = 0) -> list[tuple]:
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
        key = _key(rng.randrange(KEYSPACE))
        if roll < 0.62:
            ops.append(("put", key, pad(f"v{i:06d}".encode())))
        elif roll < 0.76:
            ops.append(("delete", key))
        elif roll < 0.92:
            entries = []
            for j in range(rng.randrange(2, 5)):
                bkey = _key(rng.randrange(KEYSPACE))
                if rng.random() < 0.2:
                    entries.append(("delete", bkey, None))
                else:
                    entries.append(("put", bkey, pad(f"b{i:06d}.{j}".encode())))
            ops.append(("batch", entries))
        else:
            ops.append(("flush",))
    return ops


def build_sharded_workload(num_ops: int, seed: int, value_size: int = 0) -> list[tuple]:
    """The single-engine workload interleaved with router edits.

    A shard split lands every 16 KV ops and a merge every 24 (offset so
    they alternate), so the crash schedule's barriers fall inside the
    split's child entry-copy, the router snapshot commit, and the source
    shard teardown — the windows the split/merge protocol orders sync
    barriers around — as well as the ordinary WAL/flush/manifest ones.
    The operand is a raw draw; it picks a live shard index modulo the
    shard count at apply time."""
    rng = random.Random(seed ^ 0x51A2DED)
    ops = build_workload(num_ops, seed, value_size)
    out: list[tuple] = []
    for i, op in enumerate(ops, start=1):
        out.append(op)
        if i % 16 == 0:
            out.append(("split", rng.randrange(1 << 16)))
        elif i % 24 == 12:
            out.append(("merge", rng.randrange(1 << 16)))
    return out


def _apply_op(db, op: tuple) -> None:
    kind = op[0]
    if kind == "put":
        db.put(op[1], op[2])
    elif kind == "delete":
        db.delete(op[1])
    elif kind == "batch":
        batch = WriteBatch()
        for entry_kind, key, value in op[1]:
            if entry_kind == "put":
                batch.put(key, value)
            else:
                batch.delete(key)
        db.write(batch)
    elif kind == "flush":
        db.flush()
    elif kind == "split":
        # Median split; a shard with <2 distinct keys declines (None).
        db.split_shard(op[1] % db.num_shards)
    elif kind == "merge":
        if db.num_shards > 1:
            db.merge_shards(op[1] % (db.num_shards - 1))


# ---------------------------------------------------------------- targets


def _quiet_shutdown(db: DB) -> None:
    """Stop a crashed DB's execution backends without the closing flush.

    A simulated crash leaves the DB unusable but its worker pools (subtask
    threads, offload processes) alive; crashing hundreds of times per
    harness run would otherwise accumulate leaked workers."""
    try:
        db._shutdown_executors()
    except BaseException:  # noqa: BLE001 - best-effort cleanup
        pass


class _SingleStore:
    """One :class:`DB` over one fault-injecting filesystem.

    A target is what the driver opens, crashes, heals and reopens; it also
    names the atomicity domain of a key and the rule recovery must pass
    beyond the model's."""

    def __init__(self, seed: int, crash_at_sync: int | None = None, *, repair: bool = True):
        self.fs = FaultInjectionFS(
            SimulatedFS(), FaultPolicy(seed=seed, crash_at_sync=crash_at_sync)
        )
        self.repair = repair

    def open(self, options: Options) -> DB:
        return DB(self.fs, options, seed=1)

    @property
    def sync_points(self) -> int:
        return self.fs.sync_points

    @property
    def crashed(self) -> bool:
        return self.fs.crashed

    def heal(self) -> None:
        self.fs.heal()

    def shutdown(self, db: DB) -> None:
        _quiet_shutdown(db)

    def atomic_group(self, db: DB):
        return None  # a batch is one WAL record: one domain

    def recovery_rule(self, db: DB, options: Options) -> list[str]:
        """Repair convergence: ``repair_store`` on a copy of the healed
        files reopens to the contents ``db`` recovered."""
        if not self.repair:
            return []
        clone = SimulatedFS()
        for name in self.fs.inner.list_dir():
            clone.replace(name, self.fs.inner.contents(name))
        try:
            recovered = dict(db.scan())
            repair_store(clone, options)
            repaired = DB(clone, options, seed=1)
            try:
                repaired_view = dict(repaired.scan())
            finally:
                repaired.close()
        except BaseException as exc:  # noqa: BLE001
            return [f"repair failed: {type(exc).__name__}: {exc}"]
        if repaired_view == recovered:
            return []
        missing = set(recovered) - set(repaired_view)
        extra = set(repaired_view) - set(recovered)
        return [f"repair diverged: missing {sorted(missing)!r}, extra {sorted(extra)!r}"]


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


class _ShardedStore:
    """A 2-shard :class:`ShardedDB` whose every filesystem — shards and the
    ``_router`` catalog alike — is a member of one machine's clock."""

    #: One boundary splits the keyspace evenly, so both initial shards see
    #: traffic from the first op on.
    BOUNDARIES = (b"k0016",)

    def __init__(self, seed: int, crash_at_sync: int | None = None):
        self.clock = MachineCrashClock(crash_at_sync=crash_at_sync)
        self.store = MemoryShardStore(
            fs_factory=lambda _name: SharedClockFaultFS(
                SimulatedFS(), self.clock, FaultPolicy(seed=seed)
            )
        )

    def open(self, options: Options) -> ShardedDB:
        return ShardedDB(
            self.store, options, shards=2, boundaries=list(self.BOUNDARIES), seed=1
        )

    @property
    def sync_points(self) -> int:
        return self.clock.count

    @property
    def crashed(self) -> bool:
        return self.clock.fired

    def heal(self) -> None:
        self.clock.heal_all()

    def shutdown(self, db: ShardedDB) -> None:
        for shard_db in list(db._dbs.values()):
            _quiet_shutdown(shard_db)
        for pool in (db._executor, db._offload_pool):
            if pool is not None:
                try:
                    pool.close()
                except BaseException:  # noqa: BLE001 - best-effort cleanup
                    pass

    def atomic_group(self, db: ShardedDB):
        return db.router.shard_for  # one WAL record per shard

    def recovery_rule(self, db: ShardedDB, options: Options) -> list[str]:
        """Orphan-shard GC: no shard outside the committed map survives."""
        leftover = set(self.store.shard_names()) - set(db.shard_names())
        if leftover:
            return [f"orphan shards survived reopen GC: {sorted(leftover)!r}"]
        return []


# ----------------------------------------------------------------- driver


def _run_workload(target, ops: list[tuple], options: Options) -> tuple[Model, tuple | None]:
    """Run ``ops`` until completion or the scheduled crash fires.

    Returns ``(model, pending_op)`` — the state every completed
    (acknowledged) operation built up, and the op in flight at the crash
    (None when the run completed, or crashed outside any op).
    """
    model = Model()
    try:
        db = target.open(options)
    except BaseException:  # noqa: BLE001 - crash during open
        return model, None
    for op in ops:
        try:
            _apply_op(db, op)
        except BaseException:  # noqa: BLE001 - crash (or its fallout)
            target.shutdown(db)
            return model, op
        model.apply(op)
    try:
        db.close()
    except BaseException:  # noqa: BLE001 - crash during the closing flush
        target.shutdown(db)
    return model, None


def _check_recovery(target, model: Model, pending: tuple | None, options: Options) -> list[str]:
    """Reopen the healed store and verify every rule; returns the
    violations (empty = this crash point recovers perfectly)."""
    try:
        db = target.open(options)
    except BaseException as exc:  # noqa: BLE001 - any failure is a violation
        return [f"reopen failed: {type(exc).__name__}: {exc}"]
    try:
        violations = recovery_violations(
            db, model, pending, KEYS, atomic_group=target.atomic_group(db)
        )
        violations.extend(target.recovery_rule(db, options))
    finally:
        try:
            db.close()
        except BaseException:  # noqa: BLE001 - already reporting violations
            pass
    return violations


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
    sharded: bool = False,
    check_repair: bool = True,
    options_overrides: dict | None = None,
    value_size: int = 0,
) -> CrashTestReport:
    """Phase A: measure the workload's sync schedule; phase B: crash at
    (up to ``max_points`` of) its barriers and verify recovery.

    ``sharded`` swaps the single store for a 2-shard :class:`ShardedDB`
    on one machine clock and interleaves splits and merges into the
    workload; ``check_repair`` applies to the single store only.
    ``options_overrides`` layers extra :class:`Options` fields onto the
    harness geometry for every DB the harness opens (workload, recovery,
    and repair runs alike).  ``value_size`` pads workload values (the
    kv-separation leg uses it to cross the vlog threshold)."""
    build = build_sharded_workload if sharded else build_workload
    ops = build(num_ops, seed, value_size=value_size)
    options = harness_options(**(options_overrides or {}))

    def target(crash_at_sync: int | None = None):
        if sharded:
            return _ShardedStore(seed, crash_at_sync)
        return _SingleStore(seed, crash_at_sync, repair=check_repair)

    baseline = target()
    _run_workload(baseline, ops, options)
    total = baseline.sync_points

    report = CrashTestReport(seed=seed, num_ops=num_ops, total_sync_points=total)
    for point in _subsample(total, max_points):
        crashing = target(point)
        model, pending = _run_workload(crashing, ops, options)
        if not crashing.crashed:
            # Deterministic schedule: every enumerated barrier must fire.
            report.failures.append(
                {"point": point, "violations": ["scheduled crash never fired"]}
            )
            continue
        crashing.heal()
        violations = _check_recovery(crashing, model, pending, options)
        report.points_tested.append(point)
        if violations:
            report.failures.append({"point": point, "violations": violations})
    return report


# --------------------------------------------------------------------- CLI


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


def offload_overrides() -> dict:
    """Options overrides for crash-testing the process offload backend.

    The fork context keeps per-crash-point pool startup cheap (the harness
    opens hundreds of DBs), and two workers are enough to exercise the
    concurrent submit paths."""
    return {
        "compaction_offload": "process",
        "compaction_offload_mp_context": "fork",
        "compaction_workers": 2,
    }


def build_parser() -> argparse.ArgumentParser:
    """Argument schema for ``python -m oracle.crashtest`` (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m oracle.crashtest",
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
    parser.add_argument("--offload", choices=["none", "process"],
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


def main(argv: list[str] | None = None) -> int:
    """0 = all invariants held, 1 = violations."""
    args = build_parser().parse_args(argv)
    overrides = offload_overrides() if args.offload == "process" else {}
    value_size = 0
    if args.kv_separation:
        overrides.update(kv_separation_overrides())
        value_size = KV_SEPARATION_VALUE_SIZE
    if args.tuner:
        overrides.update(tuner_overrides())
    report = run_crash_test(
        num_ops=90 if args.quick else args.ops,
        max_points=56 if args.quick else args.points,
        seed=args.seed,
        sharded=args.sharded,
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


if __name__ == "__main__":
    raise SystemExit(main())
