"""GIL-free execution of Block Compaction's merge compute (DESIGN.md §11).

Block Compaction's per-file work splits cleanly in two:

* **I/O** — reading dirty blocks, appending rebuilt blocks, filter/index/
  footer writes.  In this engine that is *simulated* device time charged by
  the :class:`~repro.storage.fs.FileSystem`, and it already overlaps across
  subtask threads.
* **Compute** — decode → k-way merge → block rebuild → CRC.  Pure Python
  over immutable inputs, which under a thread pool serializes on the GIL no
  matter how many workers run.

This module is the worker side and the transport.  The parent —
:func:`~repro.compaction.block_compaction.block_compact_file` — performs
all filesystem access and packs each subtask's immutable inputs into a
picklable :class:`~repro.compaction.block_compaction.BlockMergeJob`, the
same job it walks itself when nothing is offloaded.  The worker
(:func:`execute_block_merge`) runs that one walk,
:func:`~repro.compaction.block_compaction.run_block_walk`, into the
:class:`~repro.sstable.block_builder.BlockCutter` an
:class:`~repro.sstable.table_appender.AppendSession` cuts blocks with, and
returns the rebuilt raw block bytes plus their index facts; the parent
replays those into its append session's ``commit_block``, which charges the
simulated writes and runs the existing locked commit path unchanged.

One job, one walk, one cutter, one tombstone rule: an offloaded append
writes **bit-identical file bytes** to the in-process one by construction —
the equivalence the tests pin.

Transport: a persistent ``ProcessPoolExecutor``.  Large dirty payloads
travel via one ``multiprocessing.shared_memory`` segment per job instead of
being pickled into the job (avoiding the double-copy through the call
pickle); small jobs inline the bytes, which is cheaper than a segment
round-trip.

Failure semantics: a dead worker (``BrokenProcessPool``) surfaces as
:class:`~repro.errors.OffloadError` — a *hard* severity for the PR-5 error
engine, so the DB degrades to read-only instead of hanging or retrying
forever.  The pool discards the broken executor and lazily builds a fresh
one, so ``DB.resume()`` can recover.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..errors import OffloadError
from ..options import Options
from ..sstable.block_builder import BlockCutter
from ..sstable.format import BLOCK_TRAILER_SIZE
from ..vlog import is_pointer
from .block_compaction import OP_REUSE, BlockMergeJob, run_block_walk

OFFLOAD_NONE = "none"

#: Result-op tag next to the echoed ``OP_REUSE``:
#: ``("b", raw, smallest, largest, num_entries, user_keys)``.
OP_BLOCK = "b"


@dataclass
class BlockMergeResult:
    """What comes back: the replay script for the parent's append session.

    ``ops`` preserves walk order: ``("r", entry_idx)`` echo a reuse,
    ``("b", raw, smallest, largest, num_entries, user_keys)`` append one
    rebuilt raw block (already wrapped with its trailer).
    """

    ops: list[tuple]
    worker_pid: int
    #: Value-log pointers the merge dropped (``job.report_drops``); the
    #: parent feeds them to its garbage ledger.
    dropped: list[bytes] = field(default_factory=list)
    #: Payload bytes decoded from dirty blocks (observability).
    decoded_bytes: int = 0
    #: Merged entries written into rebuilt blocks (observability).
    merged_entries: int = 0


def _resolve_payloads(job: BlockMergeJob) -> list[bytes]:
    """Materialize the dirty payload list from whichever transport was used."""
    if job.shm_name is not None:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=job.shm_name)
        try:
            buf = segment.buf
            return [bytes(buf[offset : offset + length]) for offset, length in job.shm_spans or []]
        finally:
            segment.close()
    return job.payloads or []


def execute_block_merge(job: BlockMergeJob) -> BlockMergeResult:
    """Run one job's decode → merge → rebuild → CRC.  Pure compute: no
    filesystem, no engine state — safe in any process."""
    payloads = _resolve_payloads(job)
    geometry = job.geometry
    # The in-process cutter, emitting into the result script instead of an
    # append session's ``commit_block``.
    ops: list[tuple] = []
    cutter = BlockCutter(
        geometry.block_size,
        geometry.block_restart_interval,
        geometry.compression_type,
        lambda *block: ops.append((OP_BLOCK, *block)),
    )
    dropped: list[bytes] = []

    def on_drop(stored: bytes) -> None:
        if is_pointer(stored):
            dropped.append(stored)

    def reuse(entry_idx: int) -> None:
        # A reuse is a cut point, echoed for the parent to resolve.
        cutter.cut()
        ops.append((OP_REUSE, entry_idx))

    run_block_walk(job, payloads, cutter, reuse, on_drop if job.report_drops else None)
    cutter.cut()
    return BlockMergeResult(
        ops=ops,
        worker_pid=os.getpid(),
        dropped=dropped,
        decoded_bytes=sum(len(raw) - BLOCK_TRAILER_SIZE for raw in payloads),
        merged_entries=sum(op[4] for op in ops if op[0] == OP_BLOCK),
    )


def _warm_probe(hold_s: float) -> int:
    """Pin one pool worker long enough for its siblings to start too."""
    time.sleep(hold_s)
    return os.getpid()


class OffloadPool:
    """A persistent process pool for :class:`BlockMergeJob` execution.

    Thread-safe: selective compaction's subtask threads submit concurrently.
    A broken process pool is discarded under the lock and rebuilt on the
    next submission, so one crashed worker degrades the DB (via
    :class:`OffloadError` → hard severity) without poisoning it forever.
    """

    def __init__(
        self,
        workers: int,
        *,
        mp_context: str = "spawn",
        shm_threshold: int = 64 * 1024,
    ):
        self.workers = max(1, workers)
        self._mp_context = mp_context
        self._shm_threshold = shm_threshold
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False
        #: Broken executors discarded after worker crashes (observability).
        self.restarts = 0

    @classmethod
    def from_options(cls, options: Options) -> "OffloadPool":
        """The pool ``options.compaction_offload="process"`` asks for."""
        return cls(
            options.compaction_workers,
            mp_context=options.compaction_offload_mp_context,
            shm_threshold=options.compaction_offload_shm_bytes,
        )

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(self._mp_context),
        )

    def _executor_for_submit(self):
        with self._lock:
            if self._closed:
                raise OffloadError("offload pool is closed")
            if self._executor is None:
                self._executor = self._make_executor()
            return self._executor

    def _discard_broken(self, executor) -> None:
        """Drop a broken executor so the next submit builds a fresh pool."""
        with self._lock:
            if self._executor is executor:
                self._executor = None
                self.restarts += 1
        # A broken pool's shutdown returns immediately (workers are dead).
        executor.shutdown(wait=False)

    def run(self, job: BlockMergeJob) -> BlockMergeResult:
        """Execute one job, blocking until its result is back.

        The calling subtask thread releases the GIL while it waits, which
        is exactly when sibling subtasks run their (simulated) I/O.
        """
        segment = None
        if job.payloads and sum(len(p) for p in job.payloads) >= self._shm_threshold:
            from multiprocessing import shared_memory

            total = sum(len(p) for p in job.payloads)
            segment = shared_memory.SharedMemory(create=True, size=max(1, total))
            spans: list[tuple[int, int]] = []
            cursor = 0
            for payload in job.payloads:
                segment.buf[cursor : cursor + len(payload)] = payload
                spans.append((cursor, len(payload)))
                cursor += len(payload)
            job.shm_name = segment.name
            job.shm_spans = spans
            job.payloads = None
        executor = self._executor_for_submit()
        try:
            future = executor.submit(execute_block_merge, job)
            return future.result()
        except BrokenProcessPool as exc:
            self._discard_broken(executor)
            raise OffloadError(
                f"offload worker died executing a block-merge job: {exc}"
            ) from exc
        except RuntimeError as exc:
            # submit() after an interpreter-driven shutdown.
            raise OffloadError(f"offload pool rejected job: {exc}") from exc
        finally:
            if segment is not None:
                segment.close()
                segment.unlink()

    def warm(self) -> int:
        """Start every worker now, returning the number of distinct workers.

        The first job a process worker receives pays the child's module
        import; benchmarks (and latency-sensitive callers) use this to move
        that cost off the timed path.  Each probe holds its worker briefly
        so the executor is forced to start all of them.
        """
        executor = self._executor_for_submit()
        try:
            futures = [
                executor.submit(_warm_probe, 0.05) for _ in range(self.workers)
            ]
            return len({future.result() for future in futures})
        except BrokenProcessPool as exc:
            self._discard_broken(executor)
            raise OffloadError(f"offload pool failed to warm: {exc}") from exc

    def close(self) -> None:
        """Drain in-flight jobs and stop every worker.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
