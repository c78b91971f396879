"""Value-log runtime state: head writer, reader cache, garbage ledger.

One :class:`VlogManager` serves one DB whose store is tagged: its manifest
records that format (DESIGN.md §13).  It owns the append-only *head* file
(where new separated values and GC rewrites land), a cache of
random-access readers for pointer resolution, the in-memory accumulator of
compaction-observed dead bytes (folded into each compaction's manifest
edit by the DB), and the deferred physical-deletion queue for GC victims.

Division of labour: the manager is mechanical — the stored-value format
(:meth:`VlogManager.separate`), framing, appending, reading, bookkeeping.
What needs a sequence number or a manifest edit is passed in or driven
from outside: head rotation registration by :class:`~repro.core.db.DB`,
GC liveness re-checks, re-pointing and deletion barriers by
:mod:`repro.vlog.gc`.

Thread safety: head appends happen only under the engine lock (the write
path and GC are serialized there); pointer resolution is called from the
read path with the engine lock released, so the reader cache has its
own lock; the dead-byte accumulator has its own lock because compactions
observe drops outside the engine lock.
"""

from __future__ import annotations

import threading

from ..core.write_batch import WriteBatch
from ..keys import TYPE_VALUE
from ..metrics.stats import DBStats
from ..options import Options
from ..storage.fs import FileSystem, RandomAccessFile, WritableFile
from .format import (
    POINTER_SIZE,
    TAG_INLINE,
    TAG_POINTER,
    decode_pointer,
    decode_record,
    encode_pointer,
    encode_record,
    salvage_scan,
    vlog_file_name,
    wrap_inline,
)

#: I/O category every value-log byte is charged to.
CAT_VLOG = "vlog"


class VlogManager:
    """Runtime value-log state for one DB (see module docstring)."""

    def __init__(self, fs: FileSystem, options: Options, stats: DBStats):
        self.fs = fs
        self.options = options
        self.stats = stats
        self._head: WritableFile | None = None
        self.head_number: int | None = None
        self.head_offset = 0
        self._readers: dict[int, RandomAccessFile] = {}
        self._readers_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending_dead: dict[int, int] = {}
        #: GC victims journaled deleted but physically deferred until no
        #: snapshot or iterator predating the rewrite remains:
        #: ``(file_number, barrier_sequence)``.
        self.pending_deletes: list[tuple[int, int]] = []

    # -- head file ---------------------------------------------------------

    def open_head(self, number: int) -> None:
        """Start appending to a fresh value-log file ``number``."""
        if self._head is not None:
            self._head.close()
        self._head = self.fs.create_file(vlog_file_name(number), category=CAT_VLOG)
        self.head_number = number
        self.head_offset = 0

    def separate(self, batches: list[WriteBatch], roll_head) -> list[WriteBatch]:
        """Rewrite batches into stored form: values at or past the
        separation threshold move to the head and become pointers;
        everything else is inline-tagged.  Caller holds the engine lock.

        The whole run is one framed append and one ``sync`` — the
        durability barrier that must precede the WAL append carrying the
        pointers (DESIGN.md §13): a durable pointer then always addresses a
        durable frame.  ``roll_head()`` opens a fresh head first when this
        one reached the rotation size; it journals the new file, so the DB
        supplies it."""
        threshold = self.options.kv_separation_threshold
        ops_per = [list(batch) for batch in batches]
        large = [
            (bi, oi)
            for bi, ops in enumerate(ops_per)
            for oi, (value_type, _key, value) in enumerate(ops)
            if value_type == TYPE_VALUE and len(value) >= threshold
        ]
        stored: dict[tuple[int, int], bytes] = {}
        if large:
            if self._head is None or self.head_offset >= self.options.vlog_file_size:
                roll_head()
            buffer = bytearray()
            offset = self.head_offset
            for bi, oi in large:
                _type, key, value = ops_per[bi][oi]
                frame = encode_record(key, value)
                buffer += frame
                stored[(bi, oi)] = encode_pointer(self.head_number, offset, len(frame))
                offset += len(frame)
            self._head.append(bytes(buffer))
            self._head.sync()
            self.head_offset = offset
            self.stats.vlog_separated_values += len(large)
            self.stats.vlog_separated_bytes += len(buffer)
        out: list[WriteBatch] = []
        for bi, ops in enumerate(ops_per):
            rewritten = WriteBatch()
            for oi, (value_type, key, value) in enumerate(ops):
                if value_type != TYPE_VALUE:
                    rewritten.delete(key)
                elif (bi, oi) in stored:
                    rewritten.put(key, stored[(bi, oi)])
                else:
                    rewritten.put(key, wrap_inline(value))
            out.append(rewritten)
        return out

    # -- pointer resolution ------------------------------------------------

    def _reader(self, number: int) -> RandomAccessFile:
        with self._readers_lock:
            reader = self._readers.get(number)
            if reader is None:
                reader = self.fs.open_random(vlog_file_name(number), category=CAT_VLOG)
                self._readers[number] = reader
            return reader

    def _drop_reader(self, number: int) -> None:
        with self._readers_lock:
            reader = self._readers.pop(number, None)
        if reader is not None:
            reader.close()

    def resolve(self, stored: bytes) -> bytes:
        """Map a tagged stored value back to the user value.

        Inline values strip the tag; pointers read and CRC-check their
        frame.  Called by readers with the engine lock released.
        """
        if stored and stored[0] == TAG_INLINE:
            return stored[1:]
        pointer = decode_pointer(stored)
        frame = self._reader(pointer.file_number).read(
            pointer.offset, pointer.length, category=CAT_VLOG
        )
        _key, value, _end = decode_record(frame)
        self.stats.count_vlog_resolves(1)
        return value

    # -- garbage ledger ------------------------------------------------------

    def observe_drop(self, stored: bytes) -> None:
        """A compaction/flush dropped a stored value: if it was a pointer,
        its whole frame just became garbage — accumulate the dead bytes."""
        if len(stored) == POINTER_SIZE and stored[0] == TAG_POINTER:
            pointer = decode_pointer(stored)
            with self._pending_lock:
                self._pending_dead[pointer.file_number] = (
                    self._pending_dead.get(pointer.file_number, 0) + pointer.length
                )
            self.stats.vlog_dead_bytes_observed += pointer.length

    def take_pending_dead(self) -> list[tuple[int, int]]:
        """Drain the accumulator for folding into a manifest edit."""
        with self._pending_lock:
            if not self._pending_dead:
                return []
            drained = sorted(self._pending_dead.items())
            self._pending_dead.clear()
            return drained

    # -- GC support ----------------------------------------------------------

    def pick_gc_victim(self, vlog_state: dict[int, int]) -> int | None:
        """The sealed file with the highest dead ratio at or above the GC
        threshold, or None.  ``vlog_state`` is the manifest-journaled
        ledger (``Version.vlog``: file number -> dead bytes)."""
        deferred = {number for number, _ in self.pending_deletes}
        best = None
        best_ratio = self.options.vlog_gc_ratio
        for number, dead in vlog_state.items():
            if number == self.head_number or number in deferred or not dead:
                continue
            name = vlog_file_name(number)
            if not self.fs.exists(name):
                continue
            size = self.fs.file_size(name)
            if size <= 0:
                continue
            ratio = dead / size
            if ratio >= best_ratio:
                best, best_ratio = number, ratio
        return best

    def read_file(self, number: int) -> bytes:
        """The full image of a sealed vlog file (GC victim scan)."""
        name = vlog_file_name(number)
        size = self.fs.file_size(name)
        if size == 0:
            return b""
        return self._reader(number).read(0, size, category=CAT_VLOG, sequential=True)

    def salvage_tail(self, number: int) -> int:
        """Truncate vlog file ``number`` back to its last intact frame (a
        torn tail is an append whose pointers never reached the WAL) and
        return the bytes discarded.  The one salvage, for recovery and
        repair alike: a read error raises, failing recovery's open, while
        repair sets the file aside."""
        image = self.read_file(number)
        _records, intact = salvage_scan(image)
        if intact < len(image):
            self.fs.truncate_file(vlog_file_name(number), intact)
        return len(image) - intact

    def defer_delete(self, number: int, barrier_sequence: int) -> None:
        """Queue a journaled-deleted victim for physical deletion once no
        snapshot/iterator older than ``barrier_sequence`` remains."""
        self._drop_reader(number)
        self.pending_deletes.append((number, barrier_sequence))

    def process_deletes(self, can_delete) -> int:
        """Physically delete deferred victims whose barrier has cleared.

        ``can_delete(barrier_sequence)`` is the DB's pin/snapshot check.
        Returns how many files were unlinked.
        """
        if not self.pending_deletes:
            return 0
        kept: list[tuple[int, int]] = []
        deleted = 0
        for number, barrier in self.pending_deletes:
            if not can_delete(barrier):
                kept.append((number, barrier))
                continue
            name = vlog_file_name(number)
            if self.fs.exists(name):
                self.fs.delete_file(name)
            deleted += 1
            self.stats.vlog_files_deleted += 1
        self.pending_deletes = kept
        return deleted

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._head is not None:
            self._head.close()
            self._head = None
        with self._readers_lock:
            readers = list(self._readers.values())
            self._readers.clear()
        for reader in readers:
            reader.close()
