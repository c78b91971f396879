"""Appending to SSTables — Block Compaction's write primitive.

An :class:`AppendSession` records, in key order, which existing blocks
survive (``reuse``) and which runs of new entries get serialized into
appended blocks (``add_run``).  ``finish`` writes, through the one
:class:`~repro.sstable.section_writer.SectionWriter`, the new data blocks at
the file's tail followed by a fresh filter blob, a fresh extended index
block covering *all* valid blocks (reused + new), and a new footer — the
append layout of :mod:`repro.sstable.format`.
"""

from __future__ import annotations

from typing import Iterable

from ..keys import comparable_from_internal
from ..options import Options
from ..storage.fs import FileSystem
from ..storage.io_stats import CAT_COMPACTION
from .block_builder import Entry
from .index import IndexEntry
from .section_writer import SectionWriter, TableInfo
from .table_reader import TableReader


class AppendSession:
    """One Block Compaction's writes against a single SSTable."""

    def __init__(
        self,
        fs: FileSystem,
        reader: TableReader,
        options: Options,
        level: int,
        category: str = CAT_COMPACTION,
    ):
        self._writer = SectionWriter(fs, reader.name, options, level, category, base=reader)
        self._cutter = self._writer.cutter
        #: Replays one block an offload worker's cutter emitted.
        self.commit_block = self._writer.commit_block

    def add_run(self, entries: Iterable[Entry]) -> None:
        """Append merged ``((user_key, inv), value)`` entries to the new
        blocks; entries and reused blocks must arrive in increasing key
        order."""
        self._cutter.add_run(entries)

    def add(self, internal_key: bytes, value: bytes) -> None:
        """Append one entry given as an internal key (a one-entry
        :meth:`add_run`)."""
        self._cutter.add_run(((comparable_from_internal(internal_key), value),))

    def reuse(self, entry: IndexEntry) -> None:
        """Record a clean block: it stays where it is, its index entry is
        copied into the new index verbatim."""
        self._writer.reuse(entry)

    @property
    def filter_rebuilt(self) -> bool:
        """Whether finish() had to rebuild the filter from live keys."""
        return self._writer.filter_rebuilt

    def finish(self) -> TableInfo:
        """Write filter + index + footer; return the table's new metadata."""
        return self._writer.finish()
