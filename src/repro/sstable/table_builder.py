"""Building fresh SSTables (flush and Table Compaction outputs).

The builder consumes entries in internal-key order and writes them as
section 0 of a new file through the one
:class:`~repro.sstable.section_writer.SectionWriter`: data blocks cut at the
configured block size — never splitting one user key's versions across two
blocks, so index entries give exact user-key coverage — then a filter blob,
the extended index block, and the footer.
"""

from __future__ import annotations

from ..options import Options
from ..storage.fs import FileSystem
from ..storage.io_stats import CAT_FLUSH
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
        self._add = self._cutter.add

    def add(self, internal_key: bytes, value: bytes) -> None:
        """Append one entry; keys must arrive in increasing internal order."""
        self._add(internal_key, value)

    @property
    def last_user_key(self) -> bytes | None:
        """User key of the last entry added (None before the first)."""
        return self._cutter.last_user_key

    def estimated_file_size(self) -> int:
        """Current file bytes plus the pending block — the compaction loop's
        output-rotation signal."""
        return self._writer.offset + self._cutter.block.size_estimate

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
