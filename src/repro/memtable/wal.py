"""Write-ahead log.

A simplified LevelDB log: a sequence of self-describing records, each
``[masked crc32 : fixed32][payload length : varint][payload]``.  One record
holds one serialized write batch.  The reader stops cleanly at a truncated
tail (a crash mid-append) but raises on checksum corruption inside the
stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..encoding import BufferWriter, crc32c, decode_fixed32, decode_varint
from ..errors import CorruptionError
from ..storage.fs import FileSystem, WritableFile
from ..storage.io_stats import CAT_WAL

_HEADER_CRC_BYTES = 4


class WalWriter:
    """Appends records to a log file.

    Not internally locked: callers serialize appends (every engine append,
    a lone writer's or a group-commit leader's, holds the engine lock).
    """

    def __init__(self, fs: FileSystem, name: str):
        self._file: WritableFile = fs.create_file(name, category=CAT_WAL)
        self._writer = BufferWriter()
        self._tracer = fs.tracer
        self.name = name
        #: Records appended (group commit coalesces many batches per append,
        #: so ``records_written`` can exceed the file's append count).
        self.records_written = 0

    def add_record(self, payload: bytes) -> None:
        """Frame ``payload`` (crc, length, bytes) and append it to the log:
        the manifest's single-record call, byte-for-byte ``add_records``
        of one.

        The frame is assembled in one persistent :class:`BufferWriter`,
        cleared per record, so the write path allocates no intermediate
        ``bytes`` objects.
        """
        writer = self._writer
        writer.clear()
        writer.fixed32(crc32c(payload))
        writer.length_prefixed(payload)
        self.records_written += 1
        self._file.append(writer.getvalue(), category=CAT_WAL)
        # The write is acked only once durable: sync per record, so a crash
        # can tear at most the record whose ack the client never saw.
        self._file.sync()

    def add_records(self, payloads: list[bytes]) -> None:
        """Frame every payload and append them all in ONE device write —
        the engine's only append (``DB._apply_locked``), a lone write being
        a group of one.

        This is group commit's amortization: each batch keeps its own
        record (recovery replays them individually, preserving per-batch
        atomicity), but the device sees a single append for the whole
        group instead of one per writer.
        """
        writer = self._writer
        writer.clear()
        for payload in payloads:
            writer.fixed32(crc32c(payload))
            writer.length_prefixed(payload)
        self.records_written += len(payloads)
        framed = writer.getvalue()
        if self._tracer.enabled:
            # One marker per device append: ``records`` > 1 is the
            # timeline's evidence that group commit amortized N records.
            self._tracer.instant(
                "wal.group", "wal", {"records": len(payloads), "bytes": len(framed)}
            )
        self._file.append(framed, category=CAT_WAL)
        # One barrier for the whole group — same amortization as the append.
        self._file.sync()

    def size(self) -> int:
        return self._file.size()

    def close(self) -> None:
        self._file.close()


@dataclass
class WalRecoveryStats:
    """What tolerant WAL replay salvaged and what it gave up on."""

    #: Intact records replayed.
    records: int = 0
    #: Bytes of the log covered by replayed records (frames included).
    bytes_replayed: int = 0
    #: Bytes abandoned at the tail (torn frame, or everything after the
    #: first record that failed its checksum).
    bytes_skipped: int = 0
    #: True when the tail was cut by a CRC mismatch rather than a clean
    #: truncation — evidence of real corruption, not just a crash.
    corrupt: bool = False

    def merge(self, other: "WalRecoveryStats") -> None:
        self.records += other.records
        self.bytes_replayed += other.bytes_replayed
        self.bytes_skipped += other.bytes_skipped
        self.corrupt = self.corrupt or other.corrupt


def read_wal_tolerant(fs: FileSystem, name: str, stats: WalRecoveryStats) -> Iterator[bytes]:
    """Yield intact record payloads, stopping at the first bad record.

    The one frame walk (:func:`read_wal` is this plus a raise): a record
    that fails its CRC ends replay at the last good record — the damage and
    everything behind it is counted in ``stats.bytes_skipped`` (and flagged
    ``corrupt``).  A write whose frame never fully landed was never acked,
    so dropping the tail cannot lose an acknowledged write.  The manifest
    replay path keeps the strict reader: a torn catalog is not safely
    truncatable mid-stream.
    """
    handle = fs.open_random(name)
    try:
        size = handle.size()
        data = handle.read(0, size, category=CAT_WAL, sequential=True) if size else b""
    finally:
        handle.close()

    offset = 0
    replayed = 0
    while offset < len(data):
        if offset + _HEADER_CRC_BYTES > len(data):
            break  # torn header
        expected_crc = decode_fixed32(data, offset)
        try:
            length, payload_start = decode_varint(data, offset + _HEADER_CRC_BYTES)
        except CorruptionError:
            break  # torn length varint
        payload_end = payload_start + length
        if payload_end > len(data):
            break  # torn payload
        payload = data[payload_start:payload_end]
        if crc32c(payload) != expected_crc:
            stats.corrupt = True
            break
        stats.records += 1
        replayed = payload_end
        yield payload
        offset = payload_end
    stats.bytes_replayed += replayed
    stats.bytes_skipped += len(data) - replayed


def read_wal(fs: FileSystem, name: str) -> Iterator[bytes]:
    """Yield every intact record payload in ``name``: the tolerant walk
    plus a verdict.  A truncated final record (torn write) still ends
    iteration silently, matching crash-recovery semantics; a CRC mismatch
    on a complete record raises :class:`CorruptionError` once the good
    records before it have been yielded."""
    stats = WalRecoveryStats()
    yield from read_wal_tolerant(fs, name, stats)
    if stats.corrupt:
        raise CorruptionError(
            f"WAL record at offset {stats.bytes_replayed} failed checksum"
        )
