"""Write-ahead log.

A simplified LevelDB log: a sequence of self-describing records, each
``[masked crc32 : fixed32][payload length : varint][payload]``.  One record
holds one write batch's payload, which the batch encoded as its ops were
added (:mod:`repro.core.write_batch`): the writer only frames it, computing
the CRC and packing it with the length in one call, and hands the device
one ``bytes`` per append.  The reader stops cleanly at a truncated tail (a
crash mid-append) but raises on checksum corruption inside the stream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator
from zlib import crc32 as _zlib_crc32

from ..encoding import crc32c, decode_fixed32, decode_varint, encode_fixed32, encode_varint
from ..errors import CorruptionError
from ..storage.fs import FileSystem, WritableFile
from ..storage.io_stats import CAT_WAL

_HEADER_CRC_BYTES = 4
#: A frame's head in one ``struct`` pack of CRC and length, for a payload
#: under 128 B (a one-byte length varint) and for one under 16 KiB (two).
_HEAD_1 = struct.Struct("<IB")
_HEAD_2 = struct.Struct("<IBB")


def _frame(payload: bytes) -> bytes:
    """``payload`` framed as one ``bytes``: the writer's one encoder.  The
    masked CRC is :func:`~repro.encoding.crc32c`, inlined."""
    crc = _zlib_crc32(payload)
    crc = (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF
    length = len(payload)
    if length < 0x80:
        return _HEAD_1.pack(crc, length) + payload
    if length < 0x4000:
        return _HEAD_2.pack(crc, length & 0x7F | 0x80, length >> 7) + payload
    return encode_fixed32(crc) + encode_varint(length) + payload


class WalWriter:
    """Appends records to a log file.

    Not internally locked: callers serialize appends (every engine append,
    a lone writer's or a group-commit leader's, holds the engine lock).
    """

    def __init__(self, fs: FileSystem, name: str):
        self._file: WritableFile = fs.create_file(name, category=CAT_WAL)
        self._tracer = fs.tracer
        self.name = name
        #: Records appended (group commit coalesces many batches per append,
        #: so ``records_written`` can exceed the file's append count).  A
        #: record counts once its append has returned: one whose append
        #: raised is not in it.
        self.records_written = 0

    def add_record(self, payload: bytes) -> None:
        """Frame ``payload`` (crc, length, bytes) and append it to the log:
        the manifest's single-record call, byte-for-byte ``add_records``
        of one, through the same encoder."""
        self._file.append(_frame(payload))  # the file's category is CAT_WAL
        self.records_written += 1
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
        # One frame is handed back by join as it is; a group is joined.
        framed = b"".join(map(_frame, payloads))
        if self._tracer.enabled:
            # One marker per device append: ``records`` > 1 is the
            # timeline's evidence that group commit amortized N records.
            self._tracer.instant(
                "wal.group", "wal", {"records": len(payloads), "bytes": len(framed)}
            )
        self._file.append(framed)  # the file's category is CAT_WAL
        self.records_written += len(payloads)
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
