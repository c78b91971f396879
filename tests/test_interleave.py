"""The seeded cooperative scheduler (``oracle.interleave``) and what it
proves about the engine's waits (DESIGN.md §7, "Waiting"): the lane-mode
workload is clean over a fixed seed budget, both wake-up rules hold, and
the sync/lane and wait/no-wait differential legs agree."""

from __future__ import annotations

import random
import time

import pytest

from oracle.interleave import (
    Finding,
    apply_op,
    controlled,
    explore,
    lane_workload,
    make_ops,
    options_for,
)
from repro import DB, SimulatedFS
from repro.compaction.base import CompactionTask
from repro.core import sync
from repro.errors import ReadOnlyError

#: Seeds tier-1 explores.  Reverting the re-check in ``_maybe_freeze_locked``
#: or letting ``_lock_nowait_write`` skip ``_rollover_waits_locked`` fails
#: several of them (CI's ``interleave`` job runs 500).
SEED_BUDGET = 40


class TestScheduler:
    def test_a_seed_replays_its_schedule(self):
        traces = []
        for _ in range(2):
            with controlled(6) as scheduler:
                assert lane_workload(6) == []
            traces.append(scheduler.trace)
        assert traces[0] == traces[1]
        assert {name for name, _point, _where in traces[0]} == {
            "main", "client-0", "client-1", "repro-background-0",
        }

    def test_seeds_pick_different_schedules(self):
        traces = set()
        for seed in range(3):
            with controlled(seed) as scheduler:
                lane_workload(seed)
            traces.add(tuple(name for name, _point, _where in scheduler.trace))
        assert len(traces) == 3

    def test_lock_order_inversion_is_a_deadlock(self):
        with pytest.raises(Finding, match="deadlock") as caught:
            with controlled(0):
                a, b = sync.Lock(), sync.Lock()

                def other() -> None:
                    with b:
                        sync.sleep(0.001)
                        with a:
                            pass

                thread = sync.Thread(target=other, name="other")
                thread.start()
                with a:
                    sync.sleep(0.001)  # lets the other side take ``b``
                    with b:
                        pass
                thread.join()
        assert caught.value.seed == 0
        assert "python -m oracle.interleave --seed 0" in caught.value.report()

    def test_a_wait_nobody_ends_is_reported_not_slept(self):
        cap = 3600.0
        started = time.monotonic()
        with pytest.raises(Finding, match="wait ended by timeout"):
            with controlled(0):
                cv = sync.Condition()
                with cv:
                    cv.wait_for(lambda: False, cap)
        assert time.monotonic() - started < 10.0  # virtual time, not an hour

    def test_time_advances_only_when_every_thread_is_blocked(self):
        with controlled(0):
            seen = []

            def ticker() -> None:
                for _ in range(3):
                    seen.append(sync.monotonic())
                    sync.sleep(0.5)

            thread = sync.Thread(target=ticker, name="ticker")
            thread.start()
            thread.join()
            assert seen == [0.0, 0.5, 1.0]
            assert sync.monotonic() == 1.5

    def test_the_subtask_pool_runs_inline(self):
        with controlled(0):
            pool = sync.SubtaskPool(max_workers=4, thread_name_prefix="sub")
            order = []
            futures = [pool.submit(order.append, i) for i in range(3)]
            assert order == [0, 1, 2]
            assert all(future.done() for future in futures)
            pool.shutdown(wait=True)

    def test_the_seam_is_restored_on_exit(self):
        import threading

        with controlled(0):
            assert sync.Lock is not threading.Lock
        assert sync.Lock is threading.Lock
        assert sync.Condition is threading.Condition
        assert sync.sleep is time.sleep and sync.monotonic is time.monotonic


def test_lane_workload_is_clean_over_the_seed_budget():
    """Concurrent clients (one of them ``wait=False``), manual flushes and
    compactions (shard splits and merges on the sharded seeds) and the lane
    with value-log GC: no deadlock, no timed-out wait, and the acked state,
    scans and catalog match the model before and after a reopen, at every
    seed."""
    findings = explore(lane_workload, range(SEED_BUDGET))
    assert findings == [], "\n\n".join(finding.report() for finding in findings)


def stop_stalled_db(seed: int) -> DB:
    """A lane-mode engine whose L0 sits at the stop trigger: the picker is
    wedged, so only a manual compaction (or a failure) ends a writer's stall."""
    options = options_for(
        seed,
        background_compaction=True,
        kv_separation=False,
        level0_slowdown_writes_trigger=1,
        level0_stop_writes_trigger=2,
    )
    db = DB(SimulatedFS(), options, seed=seed)
    db.picker.pick = lambda version: None
    for i in range(2):
        db.put(b"k%d" % i, b"v")
        db.flush()
    return db


def start_stalled_writer(db: DB, outcome: list) -> sync.Thread:
    def writer() -> None:
        try:
            db.put(b"stalled", b"v")
            outcome.append("written")
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome.append(exc)

    thread = sync.Thread(target=writer, name="writer")
    thread.start()
    sync.sleep(0.001)  # returns once the writer is parked on the stop trigger
    assert outcome == []
    return thread


class TestWakeUps:
    """A stop-stalled writer waits on ``_l0_cv`` with a 30 s cap.  Each rule
    below is a wake-up that polling used to paper over; under the scheduler
    a missed one is a "wait ended by timeout" finding."""

    @pytest.mark.parametrize("seed", range(6))
    def test_stalled_writer_wakes_when_the_lane_fails(self, seed):
        """Predicate on state set before the notify: the severity engine's
        degraded flag, not the lane's error, which the executor stores only
        after ``_handle_background_error`` has notified."""
        outcome = []
        with controlled(seed):
            db = stop_stalled_db(seed)
            thread = start_stalled_writer(db, outcome)

            def boom(task):
                raise RuntimeError("injected compaction failure")

            db._execute_compaction = boom
            db.picker.pick = lambda version: CompactionTask(0, [], [])
            db._scheduler.wake()
            thread.join()
            db.close()
        assert len(outcome) == 1 and isinstance(outcome[0], ReadOnlyError)

    @pytest.mark.parametrize("seed", range(3))
    def test_stalled_writer_wakes_when_a_manual_compaction_drains_l0(self, seed):
        """Notify where L0 shrinks — ``_commit_compaction`` — whichever
        thread compacts: here ``compact_range`` with the lane paused."""
        outcome = []
        with controlled(seed):
            db = stop_stalled_db(seed)
            thread = start_stalled_writer(db, outcome)
            db.compact_range()
            thread.join()
            assert db.num_files_per_level()[0] == 0
            assert db.get(b"stalled") == b"v"
            db.close()
        assert outcome == ["written"]


def run_op_list(seed: int, *, background: bool, wait: bool) -> tuple:
    """One seeded op list on a fresh engine under ``controlled(seed)``:
    every op's answer (None for writes), then the full scan and a get of
    every key the list touches."""
    ops = make_ops(random.Random(seed), 300, "k-")
    keys = sorted(
        {key for op in ops if op[0] == "batch" for _kind, key, _value in op[1]}
        | {op[1] for op in ops if op[0] != "batch"}
    )
    with controlled(seed):
        db = DB(SimulatedFS(), options_for(seed, background_compaction=background), seed=seed)
        answers = [apply_op(db, op, wait) for op in ops]
        final = (db.scan(), [db.get(key) for key in keys])
        db.close()
    return answers, final


class TestDifferential:
    """The same op list under two configurations: user-visible state must
    match (write amplification may not — the lane compacts on its own
    schedule)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sync_and_lane_answer_alike(self, seed):
        assert run_op_list(seed, background=True, wait=True) == run_op_list(
            seed, background=False, wait=True
        )

    @pytest.mark.parametrize("background", [False, True], ids=["sync", "lane"])
    @pytest.mark.parametrize("seed", range(3))
    def test_wait_and_no_wait_answer_alike(self, seed, background):
        assert run_op_list(seed, background=background, wait=False) == run_op_list(
            seed, background=background, wait=True
        )
