"""The one background executor: ``SharedBackgroundExecutor`` + ``SchedulerLane``.

Every DB runs its flush/compaction steps as a lane (DESIGN.md §7, §12);
these tests drive the executor directly with scripted step functions.
Synchronisation is by ``threading.Event`` handshakes — every wait carries a
timeout and is asserted, nothing sleeps.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.scheduler import SharedBackgroundExecutor

TIMEOUT = 10.0


def wait(event: threading.Event) -> None:
    assert event.wait(TIMEOUT), "handshake timed out"


def spin_until(predicate) -> None:
    """Busy-wait (no sleep) for a state change that signals no event."""
    deadline = time.monotonic() + TIMEOUT
    while not predicate():
        assert time.monotonic() < deadline, "state never reached"


@pytest.fixture
def executor():
    pool = SharedBackgroundExecutor(workers=1)
    yield pool
    pool.close(timeout=TIMEOUT)
    assert not any(t.is_alive() for t in pool._threads)


class Gate:
    """A lane whose step parks its worker until released — lets a test line
    up several due lanes before the (single) worker looks at any of them."""

    def __init__(self, executor):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.lane = executor.register(self._step, name="gate")

    def _step(self) -> bool:
        self.entered.set()
        wait(self.release)
        return False

    def hold(self) -> None:
        self.lane.wake()
        wait(self.entered)


class Witness:
    """A lane whose step just reports that it ran.  With one worker, its
    step running proves the worker scanned every lane registered before it
    and found none runnable."""

    def __init__(self, executor):
        self.ran = threading.Event()
        self.lane = executor.register(self._step, name="witness")

    def _step(self) -> bool:
        self.ran.set()
        return False

    def run_once(self) -> None:
        self.ran.clear()
        self.lane.wake()
        wait(self.ran)


def test_round_robin_between_two_due_lanes(executor):
    gate = Gate(executor)
    log: list[str] = []
    done = threading.Event()

    def stepper(name):
        def step() -> bool:
            log.append(name)
            if len(log) == 6:
                done.set()
            return log.count(name) < 3  # "more may be due" twice, then drained

        return step

    a = executor.register(stepper("a"), name="a")
    b = executor.register(stepper("b"), name="b")
    gate.hold()
    a.wake()
    b.wake()
    gate.release.set()
    wait(done)
    assert a.wait_idle(TIMEOUT) and b.wait_idle(TIMEOUT)
    # A backlogged lane goes back through the pick, so its sibling gets a
    # turn before it is served again.
    assert log == ["a", "b", "a", "b", "a", "b"]


def test_lane_never_runs_on_two_workers_at_once():
    """Stress: four workers, one lane that is re-woken while it runs.  The
    claim on the lane must keep its steps strictly serial."""
    pool = SharedBackgroundExecutor(workers=4)
    lock = threading.Lock()
    state = {"active": 0, "peak": 0, "calls": 0}
    rounds = 300

    def step() -> bool:
        with lock:
            state["active"] += 1
            state["peak"] = max(state["peak"], state["active"])
            state["calls"] += 1
            calls = state["calls"]
        if calls < rounds:
            lane.wake()  # due again while still running: idle workers see it
        for _ in range(50):
            pass
        with lock:
            state["active"] -= 1
        return calls < rounds

    lane = pool.register(step, name="solo")
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        lane.wake()
        spin_until(lambda: state["calls"] >= rounds)
        assert lane.wait_idle(TIMEOUT)
    finally:
        sys.setswitchinterval(old_interval)
        pool.close(timeout=TIMEOUT)
    assert state["peak"] == 1
    assert (state["active"], state["calls"]) == (0, rounds)


def test_pause_waits_for_inflight_step(executor):
    started = threading.Event()
    release = threading.Event()
    paused = threading.Event()
    log: list[str] = []

    def step() -> bool:
        started.set()
        wait(release)
        log.append("step-end")
        return False

    lane = executor.register(step, name="p")
    lane.wake()
    wait(started)

    def pauser() -> None:
        lane.pause()
        log.append("pause-returned")
        paused.set()

    thread = threading.Thread(target=pauser, daemon=True)
    thread.start()
    # pause() registers itself (under the executor's condition) before it
    # blocks; once that is visible the step is still in flight, so a
    # correct pause() cannot have returned.
    spin_until(lambda: lane._paused == 1)
    assert not paused.is_set()
    release.set()
    wait(paused)
    thread.join(TIMEOUT)
    assert not thread.is_alive()
    assert log == ["step-end", "pause-returned"]
    lane.resume()


def test_pause_holds_new_steps_until_resume(executor):
    ran = threading.Event()
    calls = []

    def step() -> bool:
        calls.append(1)
        ran.set()
        return False

    lane = executor.register(step, name="p")
    witness = Witness(executor)
    lane.pause()  # idle lane: returns at once
    lane.pause()  # counted: two resumes needed
    lane.wake()
    witness.run_once()  # the worker passed over the due-but-paused lane
    assert calls == []
    lane.resume()
    witness.run_once()
    assert calls == []
    lane.resume()
    wait(ran)
    assert lane.wait_idle(TIMEOUT)
    assert calls == [1]


def test_quiesce_is_pause_resume_as_context_manager(executor):
    ran = threading.Event()
    lane = executor.register(lambda: ran.set() and False, name="q")
    with lane.quiesce():
        assert lane._paused == 1
    assert lane._paused == 0
    wait(ran)  # resume re-signals the lane


def test_on_error_true_requeues_the_lane(executor):
    done = threading.Event()
    seen: list[BaseException] = []
    calls = []

    def step() -> bool:
        calls.append(1)
        if len(calls) == 1:
            raise OSError("transient")
        done.set()
        return False

    def on_error(exc: BaseException) -> bool:
        seen.append(exc)
        return True

    lane = executor.register(step, name="retry", on_error=on_error)
    lane.wake()
    wait(done)
    assert lane.wait_idle(TIMEOUT)
    assert len(calls) == 2
    assert [str(e) for e in seen] == ["transient"]
    assert lane.error is None


def test_on_error_false_parks_and_reset_error_revives(executor):
    done = threading.Event()
    calls = []
    boom = RuntimeError("hard")

    def step() -> bool:
        calls.append(1)
        if len(calls) == 1:
            raise boom
        done.set()
        return False

    lane = executor.register(step, name="park", on_error=lambda exc: False)
    witness = Witness(executor)
    lane.wake()
    assert lane.wait_idle(TIMEOUT)  # parked counts as drained
    assert lane.error is boom
    with pytest.raises(RuntimeError):
        lane.raise_if_failed()
    lane.wake()  # no-op while parked
    witness.run_once()
    assert len(calls) == 1
    assert lane.reset_error() is True
    wait(done)
    assert lane.wait_idle(TIMEOUT)
    assert lane.error is None
    assert lane.reset_error() is False
    assert len(calls) == 2


def test_without_on_error_every_failure_parks(executor):
    def step() -> bool:
        raise ValueError("no handler")

    lane = executor.register(step, name="bare")
    lane.wake()
    assert lane.wait_idle(TIMEOUT)
    assert isinstance(lane.error, ValueError)


def test_closing_one_lane_leaves_the_other_served(executor):
    a_calls = []
    b_ran = threading.Event()
    a = executor.register(lambda: a_calls.append(1) and False, name="a")
    b = executor.register(lambda: b_ran.set() and False, name="b")
    a.wake()
    assert a.wait_idle(TIMEOUT)
    assert a_calls == [1]
    a.close(timeout=TIMEOUT)
    assert executor.num_lanes == 1
    a.wake()  # a closed lane ignores wakes
    b.wake()
    wait(b_ran)
    assert b.wait_idle(TIMEOUT)
    assert a_calls == [1]


def test_close_waits_for_the_inflight_step():
    pool = SharedBackgroundExecutor(workers=1)
    gate = Gate(pool)
    gate.hold()
    closed = threading.Event()

    def closer() -> None:
        gate.lane.close(timeout=TIMEOUT)
        closed.set()

    thread = threading.Thread(target=closer, daemon=True)
    thread.start()
    spin_until(lambda: gate.lane._closed)
    assert not closed.is_set()
    gate.release.set()
    wait(closed)
    thread.join(TIMEOUT)
    assert pool.num_lanes == 0
    pool.close(timeout=TIMEOUT)
    with pytest.raises(RuntimeError):
        pool.register(lambda: False)
