"""Offline SSTable / manifest inspection (LevelDB's ``sst_dump`` analogue).

Works against any store directory (a :class:`~repro.storage.fs.LocalFS`
root) or an in-memory :class:`~repro.storage.fs.SimulatedFS`.  The table
descriptions surface exactly the structures this reproduction adds to the
format: section chains (append counts), the extended index entries with
both bounds, per-block validity, and reserved-bit filter headroom.

CLI::

    python -m repro.tools.sst_dump <store-dir> <file.sst> [--entries]
    python -m repro.tools.sst_dump <store-dir> --manifest
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bloom import ReservedBloomFilter
from ..core.manifest import CURRENT_FILE, read_pointer, replay_manifest
from ..keys import comparable_parts
from ..sstable.filter_block import BlockFilters, TableFilter
from ..sstable.table_reader import TableReader
from ..storage.fs import FileSystem
from ..vlog.format import vlog_file_name


@dataclass
class BlockInfo:
    """One valid data block, as the live index describes it."""

    offset: int
    size: int
    num_entries: int
    smallest_user_key: bytes
    largest_user_key: bytes


@dataclass
class TableDescription:
    """Everything the metadata sections say about one table file."""

    file_name: str
    file_size: int
    section: int
    num_entries: int
    valid_bytes: int
    obsolete_bytes: int
    smallest_user_key: bytes | None
    largest_user_key: bytes | None
    filter_kind: str  # 'none' | 'table' | 'table+reserved' | 'block'
    filter_headroom: int
    blocks: list[BlockInfo] = field(default_factory=list)

    def summary(self) -> str:
        """Multi-line human-readable rendering (the CLI's output)."""
        lines = [
            f"{self.file_name}: {self.file_size} B, section {self.section} "
            f"({self.section} append{'s' if self.section != 1 else ''})",
            f"  entries={self.num_entries} valid={self.valid_bytes} B "
            f"obsolete={self.obsolete_bytes} B",
            f"  range=[{self.smallest_user_key!r} .. {self.largest_user_key!r}]",
            f"  filter={self.filter_kind}"
            + (f" (headroom {self.filter_headroom} keys)" if self.filter_headroom else ""),
            f"  valid blocks ({len(self.blocks)}):",
        ]
        physical = sorted(self.blocks, key=lambda b: b.offset)
        contiguous = sum(
            1
            for a, b in zip(physical, physical[1:])
            if b.offset == a.offset + a.size + 5
        )
        for block in self.blocks:
            lines.append(
                f"    @{block.offset:<8} {block.size:>6} B {block.num_entries:>4} entries  "
                f"[{block.smallest_user_key!r} .. {block.largest_user_key!r}]"
            )
        if len(physical) > 1:
            lines.append(
                f"  physical contiguity: {contiguous}/{len(physical) - 1} adjacent pairs"
            )
        return "\n".join(lines)


def describe_table(fs: FileSystem, name: str) -> TableDescription:
    """Read a table file's live metadata into a :class:`TableDescription`."""
    reader = TableReader(fs, name, file_number=0)
    try:
        flt = reader.filter
        if flt is None:
            kind, headroom = "none", 0
        elif isinstance(flt, BlockFilters):
            kind, headroom = "block", 0
        elif isinstance(flt, TableFilter) and isinstance(flt.bloom, ReservedBloomFilter):
            kind, headroom = "table+reserved", flt.bloom.remaining_capacity()
        else:
            kind, headroom = "table", 0
        smallest = reader.smallest_key()
        largest = reader.largest_key()
        return TableDescription(
            file_name=name,
            file_size=reader.file_size,
            section=reader.footer.section,
            num_entries=reader.num_entries,
            valid_bytes=reader.valid_bytes,
            obsolete_bytes=max(0, reader.file_size - reader.valid_bytes),
            smallest_user_key=smallest[:-8] if smallest else None,
            largest_user_key=largest[:-8] if largest else None,
            filter_kind=kind,
            filter_headroom=headroom,
            blocks=[
                BlockInfo(
                    offset=e.offset,
                    size=e.size,
                    num_entries=e.num_entries,
                    smallest_user_key=e.smallest_user_key,
                    largest_user_key=e.largest_user_key,
                )
                for e in reader.index.entries
            ],
        )
    finally:
        reader.close()


def dump_table(
    fs: FileSystem, name: str, limit: int | None = None
) -> list[tuple[bytes, int, int, bytes]]:
    """Decode a table's live entries: ``(user_key, sequence, type, value)``."""
    reader = TableReader(fs, name, file_number=0)
    try:
        rows = []
        for comparable, value in reader.entries_from():
            user_key, sequence, value_type = comparable_parts(comparable)
            rows.append((user_key, sequence, value_type, value))
            if limit is not None and len(rows) >= limit:
                break
        return rows
    finally:
        reader.close()


def describe_manifest(fs: FileSystem) -> list[str]:
    """Human-readable replay of the store's live manifest: per edit, the
    catalog fields, table changes and the value-log records (the format
    tag, registered files, the garbage ledger's deltas, GC deletions)."""
    current = read_pointer(fs, CURRENT_FILE)
    if current is None:
        return ["<no CURRENT file: not a store directory or never opened>"]
    lines = [f"CURRENT -> {current}"]
    for i, edit in enumerate(replay_manifest(fs, current)):
        parts = []
        if edit.log_number is not None:
            parts.append(f"log={edit.log_number}")
        if edit.next_file_number is not None:
            parts.append(f"next_file={edit.next_file_number}")
        if edit.last_sequence is not None:
            parts.append(f"last_seq={edit.last_sequence}")
        for level, key in edit.compact_pointers:
            parts.append(f"ptr[L{level}]={key!r}")
        for level, number in edit.deleted_files:
            parts.append(f"del L{level}/{number:06d}")
        for level, meta in edit.new_files:
            parts.append(f"add L{level}/{meta.file_number:06d} ({meta.file_size} B)")
        for level, meta in edit.updated_files:
            parts.append(
                f"upd L{level}/{meta.file_number:06d} "
                f"(size {meta.file_size} B, appends {meta.append_count})"
            )
        if edit.values_tagged:
            parts.append("values=tagged")
        for number in edit.new_vlog_files:
            parts.append(f"add {vlog_file_name(number)}")
        for number, dead_bytes in edit.vlog_dead:
            parts.append(f"dead {vlog_file_name(number)} +{dead_bytes} B")
        for number in edit.deleted_vlog_files:
            parts.append(f"del {vlog_file_name(number)}")
        lines.append(f"edit[{i}]: " + ", ".join(parts))
    return lines
