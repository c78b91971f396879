"""Store repair — LevelDB's ``RepairDB`` analogue.

When the manifest chain is lost or damaged (deleted ``CURRENT``, corrupt
manifest), the data usually still exists: SSTable files are self-describing
(footer → index → blocks) and WAL files replay into tables.  Repair:

1. scans the directory for ``*.sst`` files, reading each one's live footer
   and index (corrupt or truncated tables are set aside, not deleted);
2. converts any ``*.log`` WAL files into fresh L0 tables;
3. registers every salvaged table at level 0 — overlap is legal there, and
   ordinary compactions re-sort everything on the next open;
4. writes a fresh manifest + ``CURRENT`` with the recovered sequence number
   and file-number horizon.

Like LevelDB's repairer, this recovers *committed* data but forgets level
assignments; some duplicate versions may temporarily coexist until
compaction cleans up (newest wins at read time regardless).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.manifest import CURRENT_FILE, ManifestWriter, write_pointer
from ..core.version import FileMetadata, VersionEdit, new_file_metadata
from ..core.write_batch import replay_wal
from ..encoding import encode_fixed64
from ..errors import CorruptionError, FileSystemError, ReproError
from ..keys import sequence_of
from ..memtable.memtable import MemTable
from ..memtable.wal import WalRecoveryStats
from ..core.flush import flush_memtable
from ..options import Options
from ..sstable.format import BLOCK_TRAILER_SIZE, FOOTER_SIZE, TABLE_MAGIC, Footer, unwrap_block
from ..sstable.table_reader import TableReader
from ..storage.fs import FileSystem


@dataclass
class RepairReport:
    """What a repair pass found and rebuilt."""

    tables_recovered: int = 0
    entries_recovered: int = 0
    logs_converted: int = 0
    corrupt_files: list[str] = field(default_factory=list)
    max_sequence: int = 0
    manifest_name: str = ""
    #: Tables whose live (EOF) footer was torn by an interrupted in-place
    #: append and were truncated back to an older intact footer generation.
    tables_truncated: int = 0
    #: Bytes discarded by those truncations (the torn append tails).
    table_bytes_discarded: int = 0
    #: Unreplayable WAL tail bytes skipped during log conversion.
    wal_bytes_skipped: int = 0
    #: Value-log files re-registered in the fresh manifest (their garbage
    #: ledger restarts at zero — future compactions re-derive it).
    vlog_files_recovered: int = 0
    #: Torn value-log tail bytes truncated away.
    vlog_bytes_discarded: int = 0

    def summary(self) -> str:
        """One-paragraph human-readable outcome."""
        lines = [
            f"recovered {self.tables_recovered} table(s), "
            f"{self.entries_recovered} live entries, "
            f"converted {self.logs_converted} WAL file(s); "
            f"sequence horizon {self.max_sequence}",
            f"manifest: {self.manifest_name}",
        ]
        if self.tables_truncated:
            lines.append(
                f"truncated {self.tables_truncated} table(s) back to an older "
                f"footer ({self.table_bytes_discarded} torn bytes discarded)"
            )
        if self.wal_bytes_skipped:
            lines.append(f"skipped {self.wal_bytes_skipped} unreplayable WAL byte(s)")
        if self.vlog_files_recovered:
            lines.append(
                f"re-registered {self.vlog_files_recovered} value-log file(s) "
                f"({self.vlog_bytes_discarded} torn bytes discarded)"
            )
        if self.corrupt_files:
            lines.append("set aside as corrupt: " + ", ".join(self.corrupt_files))
        return "\n".join(lines)


def _salvage_table(
    fs: FileSystem, name: str, options: Options
) -> FileMetadata | None:
    """Metadata for a readable table, or None when it is damaged."""
    try:
        reader = TableReader(fs, name, file_number=int(name.split(".")[0]), options=options)
    except (CorruptionError, FileSystemError, ValueError):
        return None
    try:
        if reader.num_entries == 0 or reader.smallest_key() is None:
            return None

        class _Info:
            file_name = name
            file_size = reader.file_size
            valid_bytes = reader.valid_bytes
            num_entries = reader.num_entries
            smallest = reader.smallest_key()
            largest = reader.largest_key()

        return new_file_metadata(
            reader.file_number, _Info, min_allowed_seeks=options.seek_compaction_min_seeks
        )
    finally:
        reader.close()


_MAGIC_BYTES = encode_fixed64(TABLE_MAGIC)


def _truncate_to_older_footer(
    fs: FileSystem, name: str, options: Options
) -> tuple[FileMetadata | None, int]:
    """Salvage a table whose live (EOF) footer is torn or corrupt.

    In-place block appends grow a table as ``...blocks...[old footer]
    [new blocks][new footer]`` — only the footer at EOF is live, but every
    superseded footer is still physically present and internally
    consistent.  When an append was interrupted (crash mid-write, torn
    append fault) the tail is garbage while an older generation survives
    intact.  Scan backwards for footer-magic candidates, validate each
    (footer decodes, its index block lies within the prefix and passes its
    checksum, the table then opens), and truncate the file to the newest
    one that checks out.

    Returns ``(metadata, discarded_bytes)`` — ``(None, 0)`` when no intact
    generation exists.  Destructive only to bytes past the salvaged footer,
    which are unreachable garbage by construction.
    """
    try:
        size = fs.file_size(name)
        data = fs._read(name, 0, size)
    except (FileSystemError, OSError):
        return None, 0
    pos = len(data)
    while True:
        pos = data.rfind(_MAGIC_BYTES, 0, pos)
        if pos < 0:
            return None, 0
        end = pos + len(_MAGIC_BYTES)  # magic is the footer's last field
        pos -= 1  # next rfind looks strictly earlier
        if end == len(data) or end < FOOTER_SIZE:
            continue  # the live footer already failed; need a strict prefix
        try:
            footer = Footer.deserialize(data[end - FOOTER_SIZE : end])
            index_end = footer.index_handle.offset + footer.index_handle.size
            if index_end + BLOCK_TRAILER_SIZE > end - FOOTER_SIZE:
                continue
            unwrap_block(
                data[
                    footer.index_handle.offset : index_end + BLOCK_TRAILER_SIZE
                ]
            )
        except (CorruptionError, ReproError):
            continue
        fs.truncate_file(name, end)
        meta = _salvage_table(fs, name, options)
        if meta is not None:
            return meta, len(data) - end
        # An undamaged footer over damaged blocks: keep scanning further
        # back (truncate_file only shrinks, so earlier candidates remain).


def _convert_log(
    fs: FileSystem, name: str, options: Options, file_number: int
) -> tuple[FileMetadata | None, int, WalRecoveryStats]:
    """Replay one WAL into an L0 table; returns (metadata, max sequence,
    replay stats — tolerant of a torn/corrupt tail)."""
    memtable = MemTable()
    stats = WalRecoveryStats()
    try:
        max_sequence = replay_wal(fs, name, memtable, stats)
    except (CorruptionError, FileSystemError):
        # Salvage what replayed before the damage; the full table scan in
        # repair_store recovers the sequence horizon of those entries.
        max_sequence = 0
    if len(memtable) == 0:
        return None, max_sequence, stats
    memtable.freeze()
    return flush_memtable(fs, options, memtable, file_number), max_sequence, stats


def repair_store(fs: FileSystem, options: Options | None = None) -> RepairReport:
    """Rebuild the store's manifest from whatever files survive.

    Safe on a healthy store too (it simply re-registers everything at L0).
    Never deletes data files; damaged ones are reported, not removed.
    """
    options = options or Options()
    options.validate()
    report = RepairReport()
    tables: list[FileMetadata] = []
    max_file_number = 0

    names = fs.scan_directory()
    for name in names:
        if name.endswith(".sst"):
            meta = _salvage_table(fs, name, options)
            if meta is None:
                # Interrupted in-place append?  An older footer generation
                # may survive intact behind the torn tail.
                meta, discarded = _truncate_to_older_footer(fs, name, options)
                if meta is not None:
                    report.tables_truncated += 1
                    report.table_bytes_discarded += discarded
            if meta is None:
                report.corrupt_files.append(name)
                continue
            tables.append(meta)
            max_file_number = max(max_file_number, meta.file_number)
            report.tables_recovered += 1
            report.entries_recovered += meta.num_entries
            # the newest surviving version bounds the sequence horizon
            report.max_sequence = max(report.max_sequence, sequence_of(meta.largest))

    for name in names:
        if name.endswith(".log"):
            max_file_number += 1
            meta, log_seq, wal_stats = _convert_log(fs, name, options, max_file_number)
            report.wal_bytes_skipped += wal_stats.bytes_skipped
            report.max_sequence = max(report.max_sequence, log_seq)
            if meta is not None:
                tables.append(meta)
                report.logs_converted += 1
                report.tables_recovered += 1
                report.entries_recovered += meta.num_entries
                report.max_sequence = max(report.max_sequence, sequence_of(meta.largest))

    # The sequence horizon must cover every surviving entry (a file's
    # largest *key* does not carry its largest *sequence*); repair can
    # afford the full scan.
    from ..keys import comparable_parts

    for meta in tables:
        reader = TableReader(fs, meta.file_name(), meta.file_number, options)
        try:
            for comparable, _value in reader.entries_from(category="open"):
                _user, sequence, _vt = comparable_parts(comparable)
                if sequence > report.max_sequence:
                    report.max_sequence = sequence
        finally:
            reader.close()

    # Value-log files: truncate torn tails and re-register every survivor.
    # Dead-byte ledgers restart at zero — safe, because the ledger is only
    # a GC scheduling heuristic (GC re-checks liveness against the LSM) and
    # future compactions re-derive the counts.  Pointers in salvaged tables
    # stay valid: truncation only removes frames past the last intact CRC,
    # which no durable pointer can address (the vlog append syncs before
    # the pointer's WAL record).
    from ..vlog import parse_vlog_file_name, salvage_scan

    vlog_files: list[int] = []
    for name in names:
        number = parse_vlog_file_name(name)
        if number is None:
            continue
        try:
            size = fs.file_size(name)
            _records, intact = salvage_scan(fs._read(name, 0, size))
        except (FileSystemError, OSError):
            report.corrupt_files.append(name)
            continue
        if intact < size:
            fs.truncate_file(name, intact)
            report.vlog_bytes_discarded += size - intact
        vlog_files.append(number)
        max_file_number = max(max_file_number, number)
        report.vlog_files_recovered += 1

    manifest_number = max_file_number + 1
    writer = ManifestWriter(fs, manifest_number)
    edit = VersionEdit(
        log_number=0,
        next_file_number=manifest_number + 1,
        last_sequence=report.max_sequence,
        new_files=[(0, meta) for meta in tables],
        new_vlog_files=sorted(vlog_files),
    )
    writer.log_edit(edit)
    writer.close()
    write_pointer(fs, CURRENT_FILE, writer.name)
    report.manifest_name = writer.name
    return report
