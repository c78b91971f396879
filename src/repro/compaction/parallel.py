"""Parallel Merging (paper Section IV-B) — the one sub-task executor.

A compaction task splits into independent sub-tasks, one per overlapped
child SSTable (the partitioned parent slices touch disjoint key ranges and
disjoint files).  :class:`SubtaskExecutor` is built once per DB and runs
them on one of two backends, chosen at open from what the engine can
observe (there is no option for it):

**Inline** (synchronous mode — every paper figure).  Sub-tasks execute
*deterministically in sequence*; with ``Options.parallel_merging`` the
simulated clock is charged as if a pool of ``compaction_workers`` ran them
in parallel:

1. each sub-task runs serially and its simulated-time cost is measured;
2. the costs are scheduled onto the workers longest-processing-time-first;
3. the difference between the serial total and the resulting makespan is
   rebated from the simulated clock.

This keeps runs reproducible (no thread scheduling nondeterminism) while
making the running-time figures reflect the optimization, which is how the
paper's speedups manifest.  ``lpt_makespan`` is exposed separately so tests
can validate the scheduling itself.

**Threaded** (``background_compaction`` or ``compaction_offload != "none"``
— the modes that already run work off the calling thread).  The sub-tasks
run on a real thread pool: each touches a different child SSTable, so the
only shared mutation — folding outcomes into the
:class:`~repro.compaction.base.CompactionResult` — happens under the
result's ``apply_lock``.  No rebate applies: the parallelism is physical,
and concurrent charges make the simulated clock approximate anyway
(DESIGN.md §7).  With an offload pool each sub-task thread does its
(simulated) I/O while sibling sub-tasks' merge compute runs on the pool.
"""

from __future__ import annotations

from heapq import heapreplace
from typing import Callable

from ..core import sync
from ..obs.trace import NULL_TRACER
from ..options import Options
from ..storage.io_stats import CAT_COMPACTION, IOStats
from .offload import OFFLOAD_NONE, OffloadPool


def lpt_makespan(durations: list[float], workers: int) -> float:
    """Longest-processing-time-first makespan of ``durations`` on
    ``workers`` identical workers (a 4/3-approximation of optimal, and the
    natural model of a greedy thread pool fed from a task queue).

    Each task goes to the least-loaded worker, tracked in a heap of
    ``(load, worker_index)`` so assignment is O(log workers) rather than a
    linear scan; the index tie-break matches the scan's first-minimum
    choice, so results are bit-identical for any worker count.
    """
    if not durations:
        return 0.0
    if workers <= 1:
        return sum(durations)
    loads = [(0.0, index) for index in range(workers)]
    for duration in sorted(durations, reverse=True):
        load, index = loads[0]
        heapreplace(loads, (load + duration, index))
    return max(loads)[0]


class SubtaskExecutor:
    """Runs a compaction's sub-task closures (see the module docstring).

    Owns the sub-task thread pool and holds the offload pool Block
    Compaction sub-tasks ship their merge compute to (``offload_pool`` —
    None without offload).  The offload pool is built here from the options
    unless one is injected: a ``ShardedDB`` shares one across its shards
    and closes it itself.
    """

    def __init__(
        self,
        stats: IOStats,
        options: Options,
        *,
        offload_pool: OffloadPool | None = None,
        tracer=NULL_TRACER,
    ):
        offload = options.compaction_offload != OFFLOAD_NONE
        self._stats = stats
        self._workers = max(1, options.compaction_workers)
        self._rebate = options.parallel_merging and options.compaction_workers > 1
        self._tracer = tracer
        self._threads = (
            sync.SubtaskPool(
                max_workers=self._workers, thread_name_prefix="repro-subtask"
            )
            if options.background_compaction or offload
            else None
        )
        self._owns_offload_pool = offload and offload_pool is None
        self.offload_pool = (
            OffloadPool.from_options(options)
            if self._owns_offload_pool
            else offload_pool
        )
        self.last_durations: list[float] = []
        self.last_rebate: float = 0.0

    def _traced(self, subtask: Callable[[], None], index: int, total: int) -> Callable[[], None]:
        """Wrap one sub-task in a ``compaction.subtask`` span."""
        tracer = self._tracer

        def run_traced() -> None:
            with tracer.span("compaction.subtask", "compaction", {"index": index, "of": total}):
                subtask()

        return run_traced

    def run(self, subtasks: list[Callable[[], None]]) -> None:
        """Execute every sub-task.  Threaded: submit all, await all, re-raise
        the first failure.  Inline: in order, then rebate
        serial-minus-makespan simulated time when Parallel Merging is on."""
        if self._tracer.enabled:
            total = len(subtasks)
            subtasks = [
                self._traced(subtask, index, total)
                for index, subtask in enumerate(subtasks)
            ]
        if self._threads is not None and len(subtasks) > 1:
            self.last_durations = []
            self.last_rebate = 0.0
            futures = [self._threads.submit(subtask) for subtask in subtasks]
            errors = []
            for future in futures:
                try:
                    future.result()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)
            if errors:
                raise errors[0]
            return
        if not self._rebate or len(subtasks) <= 1:
            for subtask in subtasks:
                subtask()
            return
        durations: list[float] = []
        for subtask in subtasks:
            before = self._stats.sim_time_s
            subtask()
            durations.append(max(0.0, self._stats.sim_time_s - before))
        serial_total = sum(durations)
        makespan = lpt_makespan(durations, self._workers)
        self.last_durations = durations
        self.last_rebate = max(0.0, serial_total - makespan)
        self._stats.rebate_time(self.last_rebate, CAT_COMPACTION)

    def close(self) -> None:
        """Drain and stop the sub-task threads (in-flight sub-tasks may
        still be waiting on offload results), then the offload pool if this
        executor built it.  Idempotent."""
        if self._threads is not None:
            self._threads.shutdown(wait=True)
        if self._owns_offload_pool:
            self.offload_pool.close()
