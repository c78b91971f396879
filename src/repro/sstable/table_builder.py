"""Building fresh SSTables (flush and Table Compaction outputs).

The builder consumes entries in internal-key order and writes them as
section 0 of a new file through the one
:class:`~repro.sstable.section_writer.SectionWriter`: data blocks cut at the
configured block size — never splitting one user key's versions across two
blocks, so index entries give exact user-key coverage — then a filter blob,
the extended index block, and the footer.

The engine hands whole runs of comparable entries to
:meth:`TableBuilder.add_run` (the
:class:`~repro.sstable.block_builder.BlockCutter` run loop); ``add`` is a
one-entry adapter over it for callers holding internal keys — tests, tools,
examples.
"""

from __future__ import annotations

from typing import Iterable

from ..keys import comparable_from_internal
from ..options import Options
from ..storage.fs import FileSystem
from ..storage.io_stats import CAT_FLUSH
from .block_builder import Entry
from .section_writer import SectionWriter, TableInfo


class TableBuilder:
    """Serializes one new SSTable file."""

    def __init__(
        self,
        fs: FileSystem,
        name: str,
        options: Options,
        level: int,
        category: str = CAT_FLUSH,
    ):
        self._fs = fs
        self._writer = SectionWriter(fs, name, options, level, category)
        self._cutter = self._writer.cutter

    def add_run(self, entries: Iterable[Entry], stop: int | None = None) -> Entry | None:
        """Append ``((user_key, inv), value)`` entries in increasing
        internal-key order.  Returns None once ``entries`` is exhausted;
        given ``stop`` (a file size), returns instead the first entry of a
        new user key met once the file plus its pending block reach
        ``stop`` — the output-rotation point, never inside one user key's
        versions — without adding it."""
        if stop is not None:
            stop -= self._writer.offset
        return self._cutter.add_run(entries, stop)

    def add(self, internal_key: bytes, value: bytes) -> None:
        """Append one entry given as an internal key (a one-entry
        :meth:`add_run`)."""
        self._cutter.add_run(((comparable_from_internal(internal_key), value),))

    def empty(self) -> bool:
        return self._cutter.last_user_key is None

    def finish(self) -> TableInfo:
        """Flush pending data, write filter + index + footer, return metadata."""
        return self._writer.finish()

    def abandon(self) -> None:
        """Discard the partially built file."""
        writer = self._writer
        writer.finished = True
        writer.file.close()
        if self._fs.exists(writer.file.name):
            self._fs.delete_file(writer.file.name)
