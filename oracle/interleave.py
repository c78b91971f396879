"""Seeded cooperative scheduling of the engine's threads: any race replays
from its seed (DESIGN.md §7, "Waiting").

:func:`controlled` swaps cooperative twins of the engine's blocking
primitives into :mod:`repro.core.sync` for the duration of a ``with``
block and restores them on exit.  Inside it:

* the calling thread and every thread started through ``sync.Thread`` (the
  lane's worker included) are *managed*: they run one at a time, and a
  switch happens only at a seam call — a lock acquire (a try-lock too), a
  condition wait, a sleep, a thread start or join;
* the next thread is the runnable one with the highest priority.  Each
  thread draws a priority from the seeded RNG when it starts and redraws it
  at a switch point with the run's change probability (also drawn from the
  seed) — the priority-with-change-points scheme of PCT (Burckhardt et al.,
  ASPLOS 2010), which lets one thread run far ahead of another;
* time is virtual: ``sync.monotonic()`` reads a clock that advances only
  when every managed thread is blocked and one of them has a timeout;
* the compaction sub-task pool runs each sub-task inline on the thread
  that submits it.

Two outcomes are :class:`Finding` s: a **deadlock** (every thread blocked,
no timeout to advance to) and a **wait ended by its timeout** (the engine's
waits are predicate waits whose caps are a never-error bound, so reaching
one means a missed wake-up).  A third comes from :func:`explore`: the run's
end state breaks :mod:`oracle.model`'s rules.  Each carries the seed and
the switch trace; ``python -m oracle.interleave --seed N`` replays it.

Build the engine inside the block: primitives are chosen when an object is
constructed, so a lock built outside stays a real one.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import threading
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Callable, Iterable

from repro import DB, SimulatedFS, WouldBlock, WriteBatch
from repro.core import sync
from repro.options import COMPACTION_BLOCK, COMPACTION_SELECTIVE, COMPACTION_TABLE, Options
from repro.sharding import MemoryShardStore, ShardedDB

from .model import Model, recovery_violations

#: Redraw probabilities a seed picks from: rare redraws let one thread run
#: far ahead; frequent ones interleave finely.
CHANGE_PROBABILITIES = (0.02, 0.1, 0.3)


class Finding(Exception):
    """A schedule the engine must not take, with what replays it."""

    def __init__(self, kind: str, detail: str, seed: int, trace: list[tuple[str, str, str]]):
        super().__init__(f"{kind}: {detail} (seed {seed})")
        self.kind = kind
        self.detail = detail
        self.seed = seed
        self.trace = trace

    def report(self, tail: int | None = 40) -> str:
        """The verdict, then the last ``tail`` switch points (None: all)."""
        shown = self.trace if tail is None else self.trace[-tail:]
        lines = [
            f"{self.kind} at seed {self.seed}: {self.detail}",
            f"replay: python -m oracle.interleave --seed {self.seed}",
            f"switch trace ({len(self.trace)} points, last {len(shown)}):",
        ]
        first = len(self.trace) - len(shown)
        lines += [
            f"  {first + i:>6}  {thread:<16} {point:<22} {where}"
            for i, (thread, point, where) in enumerate(shown)
        ]
        return "\n".join(lines)


class _Abort(BaseException):
    """Unwinds every managed thread once a finding ends the run."""


class _Task:
    """One managed thread's scheduling state."""

    __slots__ = (
        "name", "go", "ready", "deadline", "timed", "timed_out", "finished",
        "priority", "thread",
    )

    def __init__(self, name: str, priority: float):
        self.name = name
        self.thread: threading.Thread | None = None  # None: the adopted caller
        self.go = threading.Semaphore(0)  # real: the baton hand-off
        self.ready: Callable[[], bool] | None = None  # None: runnable
        self.deadline: float | None = None
        self.timed = False  # whether reaching the deadline is a finding
        self.timed_out = False
        self.finished = False
        self.priority = priority


def _never() -> bool:
    return False


def _call_site() -> str:
    """The first frame outside this module and ``threading``: where the
    engine (or the workload) made the seam call."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_filename in (__file__, threading.__file__):
        frame = frame.f_back
    if frame is None:
        return "?"
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno} {frame.f_code.co_name}"


class Scheduler:
    """The cooperative scheduler behind :func:`controlled` (module docstring)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.change = self.rng.choice(CHANGE_PROBABILITIES)
        self.now = 0.0
        self.trace: list[tuple[str, str, str]] = []
        self.finding: Finding | None = None
        self.aborting = False
        self._tasks: list[_Task] = []
        self._by_ident: dict[int, _Task] = {}

    # -- tasks --------------------------------------------------------------

    def _add(self, name: str) -> _Task:
        task = _Task(name, self.rng.random())
        self._tasks.append(task)
        return task

    def adopt(self, name: str) -> _Task:
        """Manage the calling thread (it is running: it holds the baton)."""
        task = self._add(name)
        self._by_ident[threading.get_ident()] = task
        return task

    def task(self) -> _Task:
        task = self._by_ident.get(threading.get_ident())
        if task is None:
            raise RuntimeError(
                "a thread the scheduler does not manage reached the seam "
                f"({threading.current_thread().name})"
            )
        return task

    # -- the switch point ---------------------------------------------------

    def block(
        self,
        point: str,
        ready: Callable[[], bool] | None = None,
        timeout: float | None = None,
        timed: bool = True,
    ) -> bool:
        """The one switch point.  The calling thread waits until ``ready()``
        holds (None: at once) or ``timeout`` virtual seconds pass, while the
        scheduler runs others; returns False when the timeout ended it.
        ``timed``: a timeout reached is a finding (a wait), not the point
        (a sleep)."""
        task = self.task()
        if self.aborting:
            raise _Abort
        self.trace.append((task.name, point, _call_site()))
        if self.rng.random() < self.change:
            task.priority = self.rng.random()
        task.ready = ready
        task.deadline = None if timeout is None else self.now + max(0.0, timeout)
        task.timed = timed
        task.timed_out = False
        self._hand_off(self._pick())
        task.go.acquire()
        if self.aborting:
            raise _Abort
        return not task.timed_out

    def finish(self, task: _Task) -> None:
        """A managed thread's last act: hand the baton on without waiting."""
        task.finished = True
        self._by_ident.pop(threading.get_ident(), None)
        if not self.aborting:
            self._hand_off(self._pick())

    def _hand_off(self, successor: _Task | None) -> None:
        if successor is None:  # a finding: wake everyone to unwind
            self.aborting = True
            for other in self._tasks:
                if not other.finished:
                    other.go.release()
            return
        successor.ready = None
        successor.deadline = None
        successor.go.release()

    def _pick(self) -> _Task | None:
        """The next task to run, advancing virtual time when every task is
        blocked; None (with ``self.finding`` set) when the run is over."""
        while True:
            live = [t for t in self._tasks if not t.finished]
            runnable = [t for t in live if t.ready is None or t.ready()]
            if runnable:
                return max(runnable, key=lambda t: t.priority)
            timed = [t for t in live if t.deadline is not None]
            if not timed:
                blocked = ", ".join(f"{t.name} at {self._last_point(t)}" for t in live)
                self._found("deadlock", f"every thread blocked: {blocked}")
                return None
            self.now = min(t.deadline for t in timed)
            for t in timed:
                if t.deadline <= self.now:
                    t.deadline = None
                    t.timed_out = True
                    t.ready = None
                    if t.timed:
                        self._found(
                            "wait ended by timeout",
                            f"{t.name} at {self._last_point(t)} waited out its cap",
                        )
                        return None

    def _last_point(self, task: _Task) -> str:
        for name, point, where in reversed(self.trace):
            if name == task.name:
                return f"{point} ({where})"
        return "start"

    def _found(self, kind: str, detail: str) -> None:
        if self.finding is None:
            self.finding = Finding(kind, detail, self.seed, list(self.trace))

    # -- the primitives -----------------------------------------------------

    def primitives(self) -> dict:
        scheduler = self

        def make_lock() -> _Lock:
            return _Lock(scheduler, reentrant=False)

        def make_rlock() -> _Lock:
            return _Lock(scheduler, reentrant=True)

        def make_condition(lock=None) -> _Condition:
            return _Condition(scheduler, lock)

        def make_thread(*args, **kwargs) -> _ManagedThread:
            return _ManagedThread(scheduler, *args, **kwargs)

        def sleep(seconds: float) -> None:
            scheduler.block("sleep", _never if seconds > 0 else None, seconds, timed=False)

        def monotonic() -> float:
            return scheduler.now

        return {
            "Lock": make_lock,
            "RLock": make_rlock,
            "Condition": make_condition,
            "Thread": make_thread,
            "sleep": sleep,
            "monotonic": monotonic,
            "SubtaskPool": _InlinePool,
        }


class _Lock:
    """``threading.Lock`` / ``RLock`` twin; acquiring is a switch point."""

    def __init__(self, scheduler: Scheduler, reentrant: bool):
        self._scheduler = scheduler
        self._reentrant = reentrant
        self._owner: _Task | None = None
        self._count = 0

    def _free_for(self, task: _Task) -> bool:
        return self._owner is None or (self._reentrant and self._owner is task)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        scheduler = self._scheduler
        task = scheduler.task()
        if not blocking:
            scheduler.block("try-acquire")
            if not self._free_for(task):
                return False
        elif not scheduler.block(
            "acquire",
            lambda: self._free_for(task),
            None if timeout is None or timeout < 0 else timeout,
        ):
            return False
        self._owner = task
        self._count += 1
        return True

    def release(self) -> None:
        if self._owner is None or self._owner is not self._scheduler.task():
            if self._scheduler.aborting:
                return
            raise RuntimeError("release of a lock not held by this thread")
        self._count -= 1
        if self._count == 0:
            self._owner = None

    __enter__ = acquire

    def __exit__(self, *exc) -> None:
        self.release()

    def _is_owned(self) -> bool:
        return self._owner is self._scheduler.task()

    def _release_save(self) -> int:
        count, self._count, self._owner = self._count, 0, None
        return count

    def _acquire_restore(self, count: int) -> None:
        task = self._scheduler.task()
        self._scheduler.block("re-acquire", lambda: self._owner is None)
        self._owner, self._count = task, count


class _Waiter:
    __slots__ = ("notified",)

    def __init__(self):
        self.notified = False


class _Condition:
    """``threading.Condition`` twin over a :class:`_Lock` (an RLock by
    default, as ``threading``'s)."""

    def __init__(self, scheduler: Scheduler, lock: _Lock | None = None):
        self._scheduler = scheduler
        self._lock = lock if lock is not None else _Lock(scheduler, reentrant=True)
        self._waiters: list[_Waiter] = []

    def __enter__(self):
        return self._lock.__enter__()

    def __exit__(self, *exc) -> None:
        self._lock.release()

    def wait(self, timeout: float | None = None) -> bool:
        if not self._lock._is_owned():
            raise RuntimeError("cannot wait on un-acquired lock")
        waiter = _Waiter()
        self._waiters.append(waiter)
        saved = self._lock._release_save()
        try:
            return self._scheduler.block("wait", lambda: waiter.notified, timeout)
        finally:
            if not waiter.notified and waiter in self._waiters:
                self._waiters.remove(waiter)
            self._lock._acquire_restore(saved)

    def wait_for(self, predicate: Callable[[], bool], timeout: float | None = None):
        result = predicate()
        deadline = None if timeout is None else self._scheduler.now + timeout
        while not result:
            remaining = None if deadline is None else deadline - self._scheduler.now
            if remaining is not None and remaining <= 0:
                break
            self.wait(remaining)
            result = predicate()
        return result

    def notify(self, n: int = 1) -> None:
        if not self._lock._is_owned():
            if self._scheduler.aborting:
                return
            raise RuntimeError("cannot notify on un-acquired lock")
        woken, self._waiters = self._waiters[:n], self._waiters[n:]
        for waiter in woken:
            waiter.notified = True

    def notify_all(self) -> None:
        self.notify(len(self._waiters))


class _ManagedThread(threading.Thread):
    """``threading.Thread`` twin: a real thread that runs only while it
    holds the scheduler's baton; starting and joining are switch points."""

    def __init__(self, scheduler: Scheduler, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._scheduler = scheduler
        self._task: _Task | None = None

    def start(self) -> None:
        self._task = self._scheduler._add(self.name)
        self._task.thread = self
        super().start()
        self._scheduler.block(f"start {self.name}")

    def run(self) -> None:
        scheduler, task = self._scheduler, self._task
        scheduler._by_ident[threading.get_ident()] = task
        try:
            task.go.acquire()
            if not scheduler.aborting:
                super().run()
        except _Abort:
            pass
        finally:
            scheduler.finish(task)

    def join(self, timeout: float | None = None) -> None:
        task = self._task
        if task is not None and threading.get_ident() in self._scheduler._by_ident:
            if not self._scheduler.block(f"join {self.name}", lambda: task.finished, timeout):
                return
        super().join(None if task is not None and task.finished else timeout)


class _InlinePool:
    """Sub-task pool twin: each sub-task runs at ``submit``, on the caller."""

    def __init__(self, max_workers: int | None = None, thread_name_prefix: str = ""):
        pass

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - delivered by result()
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, **_kwargs) -> None:
        pass


@contextmanager
def controlled(seed: int):
    """Run the block's engine threads under a :class:`Scheduler` seeded with
    ``seed``; raises the run's :class:`Finding`, if any, on exit."""
    scheduler = Scheduler(seed)
    primitives = scheduler.primitives()
    saved = {name: getattr(sync, name) for name in primitives}
    main = scheduler.adopt("main")
    for name, value in primitives.items():
        setattr(sync, name, value)
    try:
        yield scheduler
    except BaseException:  # an _Abort, or what it left behind: the finding explains it
        if scheduler.finding is None:
            raise
    finally:
        for name, value in saved.items():
            setattr(sync, name, value)
        if not scheduler.aborting:
            # Threads the block left parked (an engine not closed): unwind.
            scheduler.aborting = True
            for task in scheduler._tasks:
                if task is not main and not task.finished:
                    task.go.release()
        scheduler._by_ident.pop(threading.get_ident(), None)
        for task in scheduler._tasks:
            if task.thread is not None:
                threading.Thread.join(task.thread, 10.0)
    if scheduler.finding is not None:
        raise scheduler.finding


# -- workloads -----------------------------------------------------------------

#: Tiny geometry with separated values: every few ops roll the memtable, and
#: overwrites leave value-log files dead enough for GC rounds, whose inline
#: flushes race the writers' own rollovers.
GEOMETRY = dict(
    block_size=256,
    sstable_size=1024,
    memtable_size=1024,
    max_levels=5,
    level0_size_factor=4,
    level_size_multiplier=4,
    block_cache_capacity=64 * 1024,
    kv_separation=True,
    kv_separation_threshold=32,
    vlog_file_size=1024,
    vlog_gc_ratio=0.3,
)
STYLES = (COMPACTION_TABLE, COMPACTION_BLOCK, COMPACTION_SELECTIVE)


def options_for(seed: int, **overrides) -> Options:
    """The workload geometry with the seed's compaction style."""
    params = dict(GEOMETRY, compaction_style=STYLES[seed % len(STYLES)])
    params.update(overrides)
    return Options(**params)


def make_ops(rng: random.Random, count: int, prefix: str, keys: int = 24) -> list[tuple]:
    """A seeded op list over ``keys`` keys under ``prefix``: puts, ~25 %
    deletes, batches, gets and scans (the model's vocabulary plus reads)."""
    def key(i: int) -> bytes:
        return f"{prefix}{i:03d}".encode()

    def value(i: int, n: int) -> bytes:
        return f"{prefix}{i:03d}#{n}.".encode() * rng.choice((1, 4, 8))

    ops: list[tuple] = []
    for n in range(count):
        roll = rng.random()
        i = rng.randrange(keys)
        if roll < 0.45:
            ops.append(("put", key(i), value(i, n)))
        elif roll < 0.65:
            ops.append(("delete", key(i)))
        elif roll < 0.75:
            ops.append(("batch", [
                ("put", key(j), value(j, n)) if rng.random() < 0.7 else ("delete", key(j), None)
                for j in rng.sample(range(keys), 3)
            ]))
        elif roll < 0.92:
            ops.append(("get", key(i)))
        else:
            ops.append(("scan", key(i), key(i + 6)))
    return ops


def apply_op(db, op: tuple, wait: bool = True):
    """Run one op on ``db``; a ``wait=False`` call that declines is retried
    as the same call with ``wait=True``.  Returns what a read returned."""
    kind = op[0]
    if kind == "put":
        call, args = db.put, op[1:]
    elif kind == "delete":
        call, args = db.delete, op[1:]
    elif kind == "batch":
        batch = WriteBatch()
        for entry_kind, key, value in op[1]:
            if entry_kind == "put":
                batch.put(key, value)
            else:
                batch.delete(key)
        call = db.write_batch if isinstance(db, ShardedDB) else db.write
        args = (batch,)
    elif kind == "get":
        call, args = db.get, op[1:]
    else:
        call, args = db.scan, op[1:]
    if not wait:
        try:
            return call(*args, wait=False)
        except WouldBlock:
            pass
    return call(*args)


def run_client(
    db, ops: list[tuple], model: Model, wait: bool = True, tick: Callable[[], None] = lambda: None
) -> list[str]:
    """Apply ``ops`` in order, checking each read against ``model`` (the
    client owns its keys, so every read must see exactly its own writes);
    ``tick`` runs after each op."""
    violations = []
    for op in ops:
        got = apply_op(db, op, wait)
        tick()
        if op[0] == "get":
            if got != model.get(op[1]):
                violations.append(f"get {op[1]!r}: expected {model.get(op[1])!r} got {got!r}")
        elif op[0] == "scan":
            if got != model.scan(op[1], op[2]):
                violations.append(f"scan [{op[1]!r}, {op[2]!r}) disagrees with the model")
        else:
            model.apply(op)
    return violations


def lane_workload(seed: int, *, clients: int = 2, ops: int = 120) -> list[str]:
    """Concurrent clients on one lane-mode engine, then a reopen: each
    client runs its own seeded op list over its own keys — the odd ones with
    ``wait=False`` — while the main thread flushes and compacts; the end
    state and the reopened store must satisfy
    :func:`oracle.model.recovery_violations`.  Every fourth seed runs a
    two-shard :class:`ShardedDB` on a two-worker shared executor instead,
    and the main thread splits and merges shards under the clients."""
    rng = random.Random(seed)
    options = options_for(seed, background_compaction=True)
    plans = [make_ops(rng, ops, f"c{c}-") for c in range(clients)]
    models = [Model() for _ in range(clients)]
    violations: list[str] = []
    if seed % 4 == 3:
        store = MemoryShardStore()

        def open_engine(fresh: bool):
            layout = dict(shards=2, boundaries=[b"c1-"]) if fresh else {}
            return ShardedDB(store, options, seed=seed, bg_workers=2, **layout)

        maintenance = (
            lambda: db.flush(),
            lambda: db.split_shard(0),
            lambda: db.flush(),
            lambda: db.merge_shards(0),
        )
    else:
        fs = SimulatedFS()

        def open_engine(fresh: bool):
            return DB(fs, options, seed=seed)

        maintenance = (
            lambda: db.flush(),
            lambda: db.compact_range(),
            lambda: db.flush(),
            lambda: db.compact_range(),
        )
    db = open_engine(True)
    # The main thread's maintenance steps are spread over the clients' run:
    # step i waits until the clients are i/(steps + 1) of the way through.
    progress = sync.Condition()
    done = [0, 0]  # ops applied, clients finished

    def tick() -> None:
        with progress:
            done[0] += 1
            progress.notify_all()

    def client(index: int) -> None:
        try:
            violations.extend(
                run_client(db, plans[index], models[index], wait=index % 2 == 0, tick=tick)
            )
        except Exception as exc:  # noqa: BLE001 - a finding, not a crash
            violations.append(f"client {index}: {type(exc).__name__}: {exc}")
        finally:
            with progress:
                done[1] += 1
                progress.notify_all()

    threads = [sync.Thread(target=client, args=(c,), name=f"client-{c}") for c in range(clients)]
    for thread in threads:
        thread.start()
    for i, step in enumerate(maintenance, 1):
        target = i * clients * ops // (len(maintenance) + 1)
        with progress:
            progress.wait_for(lambda: done[0] >= target or done[1] == clients)
        step()
    for thread in threads:
        thread.join()
    if violations:  # a client stopped mid-op: the state checks would only echo it
        db.close()
        return violations
    db.wait_for_background()
    model = Model()
    for part in models:
        model.state.update(part.state)
    violations += recovery_violations(db, model, None, model.state.keys())
    db.close()
    reopened = open_engine(False)
    violations += [f"after reopen: {v}" for v in
                   recovery_violations(reopened, model, None, model.state.keys())]
    reopened.close()
    return violations


def explore(workload: Callable[[int], list[str]], seeds: Iterable[int]) -> list[Finding]:
    """Run ``workload(seed)`` under :func:`controlled` for every seed.
    A run that deadlocks or times a wait out is a finding; so is one whose
    end state breaks :mod:`oracle.model`'s rules (acked state exact, exact
    scan, the catalog rule), which ``workload`` returns as violations."""
    findings = []
    for seed in seeds:
        try:
            with controlled(seed) as scheduler:
                violations = workload(seed)
            if violations:
                raise Finding("oracle", "; ".join(violations[:5]), seed, scheduler.trace)
        except Finding as finding:
            findings.append(finding)
    return findings


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi)) if hi else range(int(lo), int(lo) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m oracle.interleave",
        description="Explore or replay seeded interleavings of the lane-mode engine.",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, help="replay one seed and print its trace")
    group.add_argument("--seeds", default="0:50", help="explore LO:HI (default 0:50)")
    parser.add_argument("--trace-dir", help="write each failing seed's full trace here")
    args = parser.parse_args(argv)
    seeds = range(args.seed, args.seed + 1) if args.seed is not None else _seed_range(args.seeds)
    findings = explore(lane_workload, seeds)
    for finding in findings:
        print(finding.report(tail=None if args.seed is not None else 40))
        if args.trace_dir:
            os.makedirs(args.trace_dir, exist_ok=True)
            with open(os.path.join(args.trace_dir, f"seed-{finding.seed}.trace"), "w") as out:
                out.write(finding.report(tail=None) + "\n")
    print(f"{len(seeds)} seeds, {len(findings)} findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
