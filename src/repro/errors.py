"""Exception hierarchy for the BlockDB reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class NotFoundError(ReproError, KeyError):
    """A requested key or file does not exist.

    Subclasses ``KeyError`` so that ``db.get`` callers may use either idiom.
    """


class CorruptionError(ReproError):
    """On-disk data failed a structural or checksum validation."""


class InvalidArgumentError(ReproError, ValueError):
    """An API was called with arguments that violate its contract."""


class DBClosedError(ReproError):
    """An operation was attempted on a database that has been closed."""


class FileSystemError(ReproError):
    """A simulated or real filesystem operation failed."""


class TransientIOError(FileSystemError):
    """A filesystem operation failed in a way expected to clear on retry.

    Raised by :class:`~repro.storage.faults.FaultInjectionFS` for faults
    declared transient; a real backend would map ``EAGAIN``/``ENOSPC``-class
    conditions here.  The severity engine retries these with capped
    exponential backoff instead of failing the DB (RocksDB's
    ``Status::Severity::kSoftError`` analogue).
    """


class SimulatedCrashError(ReproError):
    """The fault-injection filesystem simulated a whole-process crash.

    Every un-synced byte was dropped; the DB object that observed this is
    dead and must be abandoned.  Reopen the store (after
    ``FaultInjectionFS.heal``) to recover.
    """


class ReadOnlyError(ReproError):
    """The DB is in degraded (read-only) mode after a hard background error.

    Reads and scans still serve the last consistent state; writes, flushes
    and manual compactions are refused until the fault is cleared and
    ``DB.resume()`` succeeds.
    """


class CommitError(ReproError):
    """A failure while durably committing a version edit (manifest write).

    Commit failures are never retried in place: the in-memory version may
    already differ from the durable manifest, so the only safe responses
    are degraded mode or a reopen.  Always classified :data:`SEVERITY_HARD`
    or worse.
    """


class OffloadError(ReproError):
    """The compaction offload pool failed (a worker process died, or the
    pool was shut down under an in-flight job).

    Deliberately *not* a :class:`FileSystemError`: the storage state is
    fine, the execution backend broke.  Classified :data:`SEVERITY_HARD` —
    the DB degrades to read-only rather than hanging on a dead worker or
    retrying into a broken pool; the pool rebuilds itself lazily so
    ``DB.resume()`` can recover.
    """


# --- error severity (RocksDB ErrorHandler analogue) -------------------------

#: Expected to clear by itself; background work retries with backoff.
SEVERITY_TRANSIENT = "transient"
#: Persistent environment failure; the DB degrades to read-only but its
#: in-memory state is still trustworthy.
SEVERITY_HARD = "hard"
#: The store's durable state can no longer be trusted (corruption, commit
#: divergence); degraded mode, and only a reopen/repair may clear it.
SEVERITY_FATAL = "fatal"


def classify_severity(exc: BaseException) -> str:
    """Map an exception to a severity bucket.

    The order matters: :class:`TransientIOError` subclasses
    :class:`FileSystemError`, and :class:`CommitError` outranks the cause
    chained into it.
    """
    if isinstance(exc, (CorruptionError, CommitError)):
        return SEVERITY_FATAL
    if isinstance(exc, TransientIOError):
        return SEVERITY_TRANSIENT
    return SEVERITY_HARD


class WriteStallError(ReproError):
    """Raised when writes are stopped and the caller opted out of waiting.

    Mirrors LevelDB's ``level0_stop_writes_trigger`` behaviour: when level 0
    accumulates too many SSTables the engine refuses new writes until
    compaction catches up.
    """


class WouldBlock(ReproError):
    """A ``wait=False`` call reached a point where it would have to wait.

    Raised by ``DB`` / ``ShardedDB`` ``get`` / ``multi_get`` / ``scan`` /
    ``write`` (and ``put`` / ``delete``) before anything a re-run would
    change again: the engine lock or a router edit is held by someone else,
    a write would be throttled or finds a memtable rollover due that it
    would have to wait for, or the filesystem really blocks
    (``FileSystem.blocking``).  Not an
    error: the caller runs the same call again with ``wait=True``, on a
    thread that may wait (DESIGN.md §9, §15).  It never reaches the
    severity engine or the wire.
    """
