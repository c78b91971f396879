"""Value-log garbage collection (DESIGN.md §13), as functions over the
engine: ``DB._background_step`` runs :func:`run_round` as its
lowest-priority unit."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.version import VersionEdit
from ..core.write_batch import WriteBatch
from .format import encode_pointer, salvage_scan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.db import DB

#: Victim records re-pointed per engine-lock hold.
CHUNK_RECORDS = 64


def run_round(db: "DB") -> bool:
    """Run one GC round if a file qualifies, then try any deferred physical
    deletions.  Returns True when work happened.

    A failed round is retried by whichever driver ran the background step.
    A round cannot re-enter itself: its re-puts go through
    ``DB._apply_locked``, which never rolls the memtable, and
    :func:`_maybe_flush` only ever runs the step that is the pending
    flush."""
    if db.vlog is None or db._closed:
        return False
    with db._lock:
        victim = db.vlog.pick_gc_victim(db.version.vlog)
    if victim is not None:
        collect(db, victim)
        db._error_handler.note_success()
    return _process_deletes(db) or victim is not None


def collect(db: "DB", victim: int) -> None:
    """Rewrite ``victim``'s still-live records to the log head, then
    journal its deletion.

    Crash consistency: re-puts are ordinary durable writes, so a crash at
    ANY point leaves only duplicate-but-live records — never a dangling
    pointer.  Before the deletion edit lands the victim stays registered
    and a re-run converges (the re-pointed keys now fail the liveness
    check); after it lands, recovery unlinks the file via the
    unregistered-file rule."""
    with db.tracer.span("vlog.gc", "compaction", {"file": victim}):
        db.stats.vlog_gc_runs += 1
        records, _intact = salvage_scan(db.vlog.read_file(victim))
        for i in range(0, len(records), CHUNK_RECORDS):
            rewrite_chunk(db, victim, records[i : i + CHUNK_RECORDS])
            _maybe_flush(db)
        with db._lock:
            db._apply_edit(VersionEdit(deleted_vlog_files=[victim]))
            # Physical deletion waits for every reader that might still
            # hold the old pointers: barrier = the first sequence at which
            # all live versions point at the head copies.
            db.vlog.defer_delete(victim, db._sequence)


def rewrite_chunk(
    db: "DB", victim: int, chunk: list[tuple[int, int, bytes, bytes]]
) -> None:
    """Re-point one chunk of victim records.  Liveness re-check and re-put
    happen under a single engine-lock hold, so a concurrent writer can
    never be clobbered by a stale GC copy: a record is rewritten only while
    the newest version of its key is EXACTLY the pointer to this frame."""
    with db._lock:
        # The engine lock is held, so the current superversion cannot be
        # retired under these walks: no reference needed.
        sv, sequence = db._superversion, db._sequence
        survivors = WriteBatch()
        for frame_offset, frame_length, key, value in chunk:
            stored, _charge = sv.lookup(key, sequence)
            if stored is not None and stored == encode_pointer(
                victim, frame_offset, frame_length
            ):
                survivors.put(key, value)
        if len(survivors):
            # Re-put through the one durable write core (vlog re-separation
            # + WAL + memtable), as engine traffic.
            db._apply_locked([survivors], user=False)
            db.stats.vlog_gc_rewritten_values += len(survivors)
            db.stats.vlog_gc_rewritten_bytes += sum(
                len(value) for _type, _key, value in survivors
            )


def _maybe_flush(db: "DB") -> None:
    """Keep the memtable bounded while GC re-puts stream through it:
    freeze-and-flush inline (both modes).  Compactions the flushes make due
    run after the GC round finishes."""
    with db._lock:
        if (
            db._immutable is None
            and db._memtable.approximate_memory_usage() >= db.options.memtable_size
        ):
            db._freeze_locked()
        db._drain_immutable_locked()


def _process_deletes(db: "DB") -> bool:
    """Physically unlink journaled-deleted vlog files once nothing can
    still read them: no deletion pin (open iterator / draining
    superversion) and no snapshot older than the GC barrier."""
    if not db.vlog.pending_deletes:
        return False
    with db._lock:
        if db.deletion_manager.active_pins:
            return False
        boundaries = db.snapshots.boundaries()
        oldest = min(boundaries) if boundaries else None
        return (
            db.vlog.process_deletes(lambda barrier: oldest is None or oldest >= barrier)
            > 0
        )
