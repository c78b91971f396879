"""Group commit (DESIGN.md §7), LevelDB's ``BuildBatchGroup``: writers
that find the engine lock busy queue; the head leads, committing a run of
batches in one WAL append and one lock-held memtable pass.  Each batch
keeps its own WAL record — only the ``fs.append`` is shared."""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable

from . import sync
from .write_batch import WriteBatch

#: Largest run of queued batches one group-commit leader adopts.
GROUP_COMMIT_MAX_BYTES = 1 * 1024 * 1024


class _Writer:
    """One queued batch (LevelDB's ``Writer``)."""

    __slots__ = ("batch", "done", "error")

    def __init__(self, batch: WriteBatch):
        self.batch = batch
        self.done = False
        self.error: BaseException | None = None


class WriteQueue:
    """The writers waiting behind a busy engine lock, and the protocol
    that commits them in groups."""

    def __init__(self, engine_lock, tracer):
        self._engine_lock = engine_lock
        self._tracer = tracer
        #: Queued writers, leader first; non-empty means someone is waiting.
        self.writers: deque[_Writer] = deque()
        self._cv = sync.Condition()

    def commit(
        self, batch: WriteBatch, apply_group: Callable[[list[WriteBatch]], None]
    ) -> None:
        """Queue ``batch`` and return once a leader — this writer, or one
        ahead of it — has committed it through ``apply_group(batches)``,
        which runs under the engine lock.  Whatever ``apply_group`` raised
        is raised in every member of that group."""
        writer = _Writer(batch)
        cv = self._cv
        with cv:
            self.writers.append(writer)
            cv.wait_for(lambda: writer.done or self.writers[0] is writer)
            if writer.done:
                if writer.error is not None:
                    raise writer.error
                return
        # Leader.  The queue is left intact until completion so new
        # arrivals keep waiting behind it.
        group = [writer]
        size = batch.byte_size()
        error: BaseException | None = None
        tracer = self._tracer
        if tracer.enabled:
            tracer.begin("group_commit", "write")
        try:
            with self._engine_lock:
                # Adopt followers only now: everyone who queued while the
                # leader waited for the engine lock rides along, up to the
                # byte cap.
                with cv:
                    for follower in islice(self.writers, 1, None):
                        size += follower.batch.byte_size()
                        if size > GROUP_COMMIT_MAX_BYTES:
                            break
                        group.append(follower)
                apply_group([m.batch for m in group])
        except BaseException as exc:  # noqa: BLE001 - delivered to every member
            error = exc
        finally:
            if tracer.enabled:
                tracer.end("group_commit", "write", {"writers": len(group), "bytes": size})
        with cv:
            for member in group:
                popped = self.writers.popleft()
                assert popped is member
                member.error = error
                member.done = True
            cv.notify_all()
        if error is not None:
            raise error
