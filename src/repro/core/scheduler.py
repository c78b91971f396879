"""Background flush/compaction executor (the concurrent write pipeline).

With ``Options.background_compaction`` the DB stops running flushes and
compaction cascades inline on the writing thread.  Instead:

* a write that fills the memtable *freezes* it (the frozen immutable
  memtable stays fully readable) and wakes the DB's :class:`SchedulerLane`,
  exactly like LevelDB's ``MaybeScheduleCompaction``;
* a worker of the lane's :class:`SharedBackgroundExecutor` builds the L0
  table and executes compactions with the engine lock **released** — only
  the short commit step (version edit, file retirement) re-acquires it —
  so foreground reads and writes proceed while the heavy merging and I/O
  run in the background;
* L0 pressure feeds back through the write path's slowdown/stop triggers
  (bounded sleep / block-until-drained), never through errors.

Every DB is one lane.  A standalone DB owns a one-worker executor with
that single lane (LevelDB's one-background-thread architecture); the shards
of a ``ShardedDB`` register their lanes on one shared pool.  Either way at
most one worker executes a given lane at a time, which serializes all
structural mutation of that DB's tree and is what makes releasing the
engine lock during compaction *execution* safe — between a pick and its
commit nothing else can edit the version.  Intra-compaction parallelism
(the paper's Parallel Merging) is layered inside a step by
:class:`~repro.compaction.parallel.SubtaskExecutor`.

A failure in a lane's step is routed through its ``on_error`` callback
(the DB's severity engine): transient failures are retried in place — the
lane is re-queued after the callback's backoff — while hard/fatal ones
park the lane with the error stored (LevelDB's ``bg_error_``), leaving the
DB serving reads in degraded mode until :meth:`SchedulerLane.reset_error`
(``DB.resume``) revives it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

from ..errors import SEVERITY_TRANSIENT, ReadOnlyError, classify_severity
from ..obs.trace import NULL_TRACER
from . import sync

#: :class:`ErrorHandler` states (its degraded-mode state machine).
STATE_OK = "ok"
STATE_RETRYING = "retrying"
STATE_DEGRADED = "degraded"


class ErrorHandler:
    """Severity-driven failure policy (RocksDB ``ErrorHandler`` analogue).

    State machine::

        ok --transient failure--> retrying --success--> ok   (auto-resume)
        retrying --retries exhausted--> degraded
        ok|retrying --hard/fatal failure--> degraded
        degraded --clear() after the fault is fixed--> ok

    In ``degraded`` the DB is read-only: :meth:`check_writable` raises
    :class:`ReadOnlyError` on the write/flush/compact paths while reads
    keep serving the last consistent state.  Retries charge capped
    exponential backoff to the *simulated* clock (``fs.charge_time``), so
    deterministic runs stay deterministic and the retry cost shows up in
    the same time accounting as the I/O it delays.

    Thread-safety: internally locked; called from foreground writers, the
    background worker, and ``DB.resume()``.
    """

    def __init__(self, *, fs, stats, tracer=NULL_TRACER):
        self._fs = fs
        self._stats = stats
        self._tracer = tracer
        #: Consecutive retries of a transient failure before degrading.
        self.max_retries = 8
        #: Attempt N waits ``min(backoff_s * 2**(N-1), backoff_cap_s)``
        #: simulated seconds.
        self.backoff_s = 0.01
        self.backoff_cap_s = 1.0
        self._lock = sync.Lock()
        self.state = STATE_OK
        self.severity: str | None = None
        self.last_error: BaseException | None = None
        #: Consecutive failed attempts in the current retry episode.
        self.attempts = 0
        #: Lifetime retry count (monotonic, for health/tests).
        self.total_retries = 0

    @property
    def degraded(self) -> bool:
        return self.state == STATE_DEGRADED

    def record(
        self, exc: BaseException, context: str = "background", *, retryable: bool = True
    ) -> bool:
        """Fold one failure into the state machine.

        Returns True when the caller should retry the failed work (the
        backoff has already been charged); False when the DB just entered
        (or stays in) degraded mode.  Pass ``retryable=False`` to force a
        degrade even for a transient error (e.g. a torn WAL append, which
        must never be papered over by a retry).
        """
        severity = classify_severity(exc)
        with self._lock:
            if self.state == STATE_DEGRADED and exc is self.last_error:
                # The same failure surfacing through a second layer (e.g. a
                # CommitError recorded inline, then again by the scheduler's
                # on_error) is one event, not two.
                return False
            self._stats.bg_failures += 1
            self.last_error = exc
            self.severity = severity
            retryable = (
                retryable
                and severity == SEVERITY_TRANSIENT
                and self.attempts < self.max_retries
            )
            if retryable:
                self.attempts += 1
                self.total_retries += 1
                self._stats.bg_retries += 1
                self.state = STATE_RETRYING
                attempt = self.attempts
                delay = min(self.backoff_s * (2 ** (attempt - 1)), self.backoff_cap_s)
            else:
                if self.state != STATE_DEGRADED:
                    self.state = STATE_DEGRADED
                    self._stats.degraded_entries += 1
        if not retryable:
            if self._tracer.enabled:
                self._tracer.instant(
                    "error.degraded",
                    "error",
                    {"context": context, "severity": severity, "error": str(exc)},
                )
            return False
        if self._tracer.enabled:
            self._tracer.instant(
                "error.retry",
                "error",
                {
                    "context": context,
                    "attempt": attempt,
                    "backoff_s": delay,
                    "error": str(exc),
                },
            )
        # Simulated-clock aware: the wait costs simulated seconds, not wall
        # time (in realtime mode charge_time also sleeps proportionally).
        self._fs.charge_time(delay, "retry")
        return True

    def note_success(self) -> None:
        """A unit of background work succeeded: close any retry episode."""
        with self._lock:
            if self.state != STATE_RETRYING:
                return
            self.state = STATE_OK
            self.attempts = 0
            self.severity = None
            self.last_error = None
            self._stats.bg_resumes += 1
        if self._tracer.enabled:
            self._tracer.instant("error.resume", "error", {"reason": "retry-succeeded"})

    def check_writable(self) -> None:
        """Raise :class:`ReadOnlyError` when the DB is degraded.

        Must be called *under the engine lock* on every path that mutates
        state, so a background error set between a caller's pre-check and
        its critical section is still observed (the bg_error race fix).

        The state is read before this handler's lock is taken, and taken
        only to read the error of a degraded state.  That unlocked read,
        taken under the engine lock, observes every transition into
        degraded that a locked read would.  A transition is one store to
        ``state`` inside :meth:`record`'s critical section.  A locked read
        is ordered after exactly the critical sections that released the
        lock before it took the lock; each of their stores came before
        that release, so before this read too, and under the GIL a read
        sees the last store made.  What a locked read could add is a
        ``record`` still inside its critical section: a failure concurrent
        with this write, which a locked read also observes or not by which
        thread wins the lock, and either order is a legal one.  An error
        recorded before the writer's critical section, the bg_error race,
        is always seen.  A state that reads degraded is re-read under the
        lock, with its error.
        """
        if self.state != STATE_DEGRADED:
            return
        with self._lock:
            if self.state != STATE_DEGRADED:
                return  # cleared by resume() since the read above
            error = self.last_error
            severity = self.severity
        raise ReadOnlyError(
            f"DB is read-only after a {severity} background error: {error}"
        ) from error

    def clear(self) -> bool:
        """Manual resume (``DB.resume``): leave degraded/retrying state.

        Returns False when there was nothing to clear.
        """
        with self._lock:
            if self.state == STATE_OK:
                return False
            self.state = STATE_OK
            self.attempts = 0
            self.severity = None
            self.last_error = None
            self._stats.bg_resumes += 1
        if self._tracer.enabled:
            self._tracer.instant("error.resume", "error", {"reason": "manual"})
        return True

    def health(self) -> dict:
        """Snapshot for ``DB.health()``."""
        with self._lock:
            return {
                "state": self.state,
                "writable": self.state != STATE_DEGRADED,
                "severity": self.severity,
                "error": str(self.last_error) if self.last_error else None,
                "retries": self.total_retries,
            }


class SchedulerLane:
    """One DB's view of a :class:`SharedBackgroundExecutor`: the signalling
    surface its write path and manual operations drive (``wake`` / ``pause``
    / ``resume`` / ``wait_idle`` / ``error`` / ``reset_error`` /
    ``on_worker_thread`` / ``close``).

    The lane's ``step_fn`` performs **one unit** of work per call (one
    flush or one compaction) and returns whether it did anything, which is
    what lets the executor interleave N shards fairly instead of letting
    one shard drain its whole backlog while the others starve.

    ``tracer`` (optional) records one ``bg.round`` span per step, which is
    what makes background work visible as its own timeline lane.

    ``on_error`` (optional) is consulted when ``step_fn`` raises: return
    True to re-queue the lane (the callback sleeps/charges any backoff
    itself), False to park it with the error stored.  Without a callback
    every failure parks the lane.
    """

    def __init__(
        self,
        executor: "SharedBackgroundExecutor",
        step_fn: Callable[[], bool],
        *,
        name: str = "lane",
        tracer=NULL_TRACER,
        on_error: Callable[[BaseException], bool] | None = None,
    ):
        self._executor = executor
        self._step_fn = step_fn
        self.name = name
        self._tracer = tracer
        self._on_error = on_error
        # All mutable lane state is guarded by the executor's condition.
        self._work_due = False
        self._running: threading.Thread | None = None
        self._paused = 0
        self._closed = False
        self.error: BaseException | None = None

    def wake(self) -> None:
        """Signal that flush/compaction work may be due."""
        cv = self._executor._cv
        with cv:
            if self._closed or self.error is not None:
                return
            self._work_due = True
            cv.notify_all()

    def pause(self) -> None:
        """Quiesce the lane: block until its in-flight step yields, and
        keep new steps from starting until :meth:`resume`.  Counted, so
        nested pauses compose.  Used by manual compactions, which mutate
        the version inline and must not race an executing background
        compaction's file reads/retirement."""
        cv = self._executor._cv
        with cv:
            self._paused += 1
            cv.wait_for(
                lambda: self.error is not None or self._closed or self._running is None
            )

    def resume(self) -> None:
        cv = self._executor._cv
        with cv:
            self._paused = max(0, self._paused - 1)
            if self._paused == 0:
                # Re-signal: work may have become due while quiesced.
                self._work_due = True
                cv.notify_all()

    @contextmanager
    def quiesce(self) -> Iterator[None]:
        """Context-manager form of :meth:`pause`/:meth:`resume` — the
        drain-then-mutate protocol manual compactions use.  Lane scope:
        only this DB's work drains."""
        self.pause()
        try:
            yield
        finally:
            self.resume()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until the lane has drained all due work (or errored).

        Returns False if ``timeout`` elapsed first.
        """
        cv = self._executor._cv
        with cv:
            return cv.wait_for(
                lambda: self.error is not None
                or self._closed
                or (self._running is None and not self._work_due),
                timeout,
            )

    def on_worker_thread(self) -> bool:
        return self._running is threading.current_thread()

    def raise_if_failed(self) -> None:
        """Re-raise the stored background failure, if any."""
        if self.error is not None:
            raise self.error

    def reset_error(self) -> bool:
        """Clear a sticky background error and wake the lane; returns
        True if there was an error to clear."""
        cv = self._executor._cv
        with cv:
            if self.error is None:
                return False
            self.error = None
            if not self._closed:
                self._work_due = True
                cv.notify_all()
            return True

    def close(self, timeout: float = 60.0) -> None:
        """Detach this lane: let an in-flight step finish, then deregister.
        The shared executor itself stays up (its owner closes it)."""
        cv = self._executor._cv
        with cv:
            self._closed = True
            cv.notify_all()
            if self._running is not threading.current_thread():
                cv.wait_for(lambda: self._running is None, timeout)
        self._executor._unregister(self)


class SharedBackgroundExecutor:
    """The background worker pool: ``workers`` daemon threads serving every
    registered :class:`SchedulerLane`.

    Instead of one thread per DB (N shards → N threads → N concurrent
    compactions' worth of device bandwidth), the fixed pool picks the next
    runnable lane **round-robin** so a write-heavy shard cannot starve its
    neighbours.  A standalone DB is the one-lane, one-worker case.

    Invariant: at most one worker executes a given lane at a time (the
    claim is the lane's ``_running`` thread), preserving each DB's
    single-structural-mutator guarantee that makes lock-free compaction
    execution safe.  Per-lane error handling: ``on_error`` returning True
    re-queues the lane (the callback already charged the backoff); False
    parks the lane with the error stored until ``reset_error``.
    """

    def __init__(self, workers: int = 1, *, name: str = "repro-shared-bg"):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._cv = sync.Condition()
        self._lanes: list[SchedulerLane] = []
        self._cursor = 0
        self._closed = False
        self._threads = [
            sync.Thread(target=self._loop, name=f"{name}-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def num_lanes(self) -> int:
        with self._cv:
            return len(self._lanes)

    def register(
        self,
        step_fn: Callable[[], bool],
        *,
        name: str = "lane",
        tracer=NULL_TRACER,
        on_error: Callable[[BaseException], bool] | None = None,
    ) -> SchedulerLane:
        """Add a work source; returns its lane handle."""
        lane = SchedulerLane(
            self, step_fn, name=name, tracer=tracer, on_error=on_error
        )
        with self._cv:
            if self._closed:
                raise RuntimeError("executor is closed")
            self._lanes.append(lane)
        return lane

    def _unregister(self, lane: SchedulerLane) -> None:
        with self._cv:
            if lane in self._lanes:
                self._lanes.remove(lane)

    def close(self, timeout: float = 60.0) -> None:
        """Stop the pool; in-flight steps finish, queued work is abandoned
        (shards are expected to be closed/drained first)."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=timeout)

    # -- the workers ------------------------------------------------------

    def _pick_locked(self) -> SchedulerLane | None:
        """Next runnable lane, scanning round-robin from the shared cursor
        (fairness: the cursor advances past each pick, so every due lane is
        visited before any lane is served twice)."""
        count = len(self._lanes)
        for i in range(count):
            lane = self._lanes[(self._cursor + i) % count]
            if (
                lane._work_due
                and not lane._closed
                and lane.error is None
                and lane._paused == 0
                and lane._running is None
            ):
                self._cursor = (self._cursor + i + 1) % count
                return lane
        return None

    def _loop(self) -> None:
        while True:
            with self._cv:
                lane = self._pick_locked()
                while lane is None and not self._closed:
                    self._cv.wait()
                    lane = self._pick_locked()
                if lane is None:
                    return
                lane._running = threading.current_thread()
                lane._work_due = False
            did_work = False
            exc: BaseException | None = None
            with lane._tracer.span("bg.round", "background", {"lane": lane.name}):
                try:
                    did_work = bool(lane._step_fn())
                except BaseException as step_exc:  # noqa: BLE001 - routed to on_error
                    exc = step_exc
            retry = False
            if exc is not None and lane._on_error is not None:
                try:
                    retry = bool(lane._on_error(exc))
                except BaseException as handler_exc:  # noqa: BLE001
                    exc = handler_exc
                    retry = False
            with self._cv:
                lane._running = None
                if exc is not None:
                    if retry and not lane._closed:
                        lane._work_due = True
                    else:
                        lane.error = exc
                elif did_work and not lane._closed:
                    # More may be due; leave the lane runnable but go back
                    # through the pick so siblings get their turn first.
                    lane._work_due = True
                self._cv.notify_all()
