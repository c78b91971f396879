"""The one SSTable section writer (layout: :mod:`repro.sstable.format`).

A table file is a sequence of sections, each ``[data blocks][filter blob]
[index block][footer]``.  :class:`SectionWriter` writes one: section 0 of a
new file when there is no base reader (a build), the next section at the
tail of the base reader's file when there is (Block Compaction's append).
The two differ only in how the file is opened, which blocks the index may
reuse, and which keys feed the filter.

Filter maintenance on an append follows Section IV-D: when the live filter
is a reserved-bits filter with enough headroom the new keys are simply
inserted; otherwise the filter is rebuilt from the table's live keys, which
requires reading the clean blocks (a real cost, charged to the section's
I/O category — this is precisely what the reserved bits exist to avoid).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from ..bloom import ReservedBloomFilter
from ..options import FILTER_BLOCK, FILTER_NONE, FILTER_TABLE, Options
from ..storage.fs import FileSystem
from .block_builder import BlockCutter
from .filter_block import (
    BlockFilters,
    Filter,
    TableFilter,
    build_block_filters,
    build_table_filter,
)
from .format import BLOCK_TRAILER_SIZE, BlockHandle, Footer, wrap_block
from .index import IndexBlock, IndexEntry
from .table_reader import TableReader


@dataclass
class TableInfo:
    """Result of building or appending to a table file.

    Handed to the eager open (or reload) that follows, it spares the reader
    a decode of the index and filter just encoded (see
    :mod:`repro.sstable.table_reader`); ``index`` and ``filter`` are never
    mutated once returned."""

    file_name: str
    file_size: int
    #: Live data-block payload bytes (Algorithm 4's valid size).
    valid_bytes: int
    num_entries: int
    smallest: bytes | None  # internal key
    largest: bytes | None
    index: IndexBlock
    filter: Filter | None
    #: Bytes physically written by this build/append operation.
    bytes_written: int
    #: The section's footer as written: what the reader compares the
    #: footer it reads back with before it adopts ``index`` / ``filter``.
    footer_bytes: bytes


class SectionWriter:
    """Writes one section of ``name``: section 0 of a new file, or — given
    the file's live reader as ``base`` — the next one at its tail."""

    def __init__(
        self,
        fs: FileSystem,
        name: str,
        options: Options,
        level: int,
        category: str,
        base: TableReader | None = None,
    ):
        self._options = options
        self._level = level
        self._category = category
        self._base = base
        if base is None:
            self.file = fs.create_file(name, category=category)
            self.offset = 0
        else:
            self.file = fs.open_append(name, category=category)
            self.offset = fs.file_size(name)
        self._start_offset = self.offset
        self.cutter = BlockCutter(
            options.block_size,
            options.block_restart_interval,
            options.compression_type(),
            self.commit_block,
        )
        self._entries: list[IndexEntry] = []
        #: Each of ``_entries``' largest user key, in order.
        self._largest_user_keys: list[bytes] = []
        self._reused_offsets: set[int] = set()
        #: User keys per block written by this section, by block offset.
        self._keys_per_block: dict[int, list[bytes]] = {}
        #: Whether finish() had to rebuild the base's filter from live keys.
        self.filter_rebuilt = False
        self.finished = False

    # -- recording, in key order ------------------------------------------------

    def commit_block(
        self,
        raw: bytes,
        smallest: bytes,
        largest: bytes,
        num_entries: int,
        user_keys: list[bytes],
    ) -> None:
        """Write one finished data block (payload + trailer) at the tail and
        index it: the cutter's ``emit`` in-process, and what replays the
        blocks an offload worker's cutter emitted — same bytes, same
        (simulated) append charge, same index/filter bookkeeping."""
        offset = self.offset
        indexed = self._largest_user_keys
        if indexed and user_keys[0] <= indexed[-1]:
            raise ValueError("table blocks must be indexed in increasing user-key order")
        # The index records the STORED size (compressed when it shrank).
        self._entries.append(
            IndexEntry(smallest, largest, offset, len(raw) - BLOCK_TRAILER_SIZE, num_entries)
        )
        indexed.append(user_keys[-1])
        self.file.append(raw)
        self.offset = offset + len(raw)
        self._keys_per_block[offset] = user_keys

    def reuse(self, entry: IndexEntry) -> None:
        """Record a clean block of the base: it stays where it is, its index
        entry is copied into the new index verbatim."""
        self.cutter.cut()
        indexed = self._largest_user_keys
        if indexed and entry.smallest_user_key <= indexed[-1]:
            raise ValueError("table blocks must be indexed in increasing user-key order")
        largest_user_key = entry.largest_user_key
        self._entries.append(entry)
        indexed.append(largest_user_key)
        self._reused_offsets.add(entry.offset)
        self.cutter.last_user_key = largest_user_key

    # -- filter maintenance -------------------------------------------------------

    def _reused_user_keys(self) -> list[bytes]:
        """Live user keys from reused blocks — read from disk (the rebuild
        cost reserved bits avoid)."""
        if self._base is None:
            return []
        reused = [e for e in self._entries if e.offset in self._reused_offsets]
        return self._base.read_user_keys(reused, category=self._category)

    def _build_filter(self) -> Filter | None:
        options = self._options
        policy = options.filter_policy
        if policy == FILTER_NONE or options.bloom_bits_per_key <= 0:
            return None
        old = self._base.filter if self._base is not None else None
        if policy == FILTER_TABLE:
            new_keys = list(chain.from_iterable(self._keys_per_block.values()))
            if (
                isinstance(old, TableFilter)
                and isinstance(old.bloom, ReservedBloomFilter)
                and old.bloom.can_absorb(len(new_keys))
            ):
                # Deep-copy the live filter and absorb the appended keys into
                # its reserved headroom.  Keys whose versions were superseded
                # remain set — harmless false positives, no correctness loss.
                bloom = ReservedBloomFilter.deserialize(old.bloom.serialize())
                bloom.add_many(new_keys)
                return TableFilter(bloom)
            self.filter_rebuilt = self._base is not None
            return build_table_filter(
                self._reused_user_keys() + new_keys,
                options.bloom_bits_per_key,
                options.bloom_reserved_fraction(self._level),
            )
        if policy == FILTER_BLOCK:
            flt = build_block_filters(self._keys_per_block, options.bloom_bits_per_key)
            if isinstance(old, BlockFilters):
                for offset in self._reused_offsets:
                    if offset in old.per_block:
                        flt.per_block[offset] = old.per_block[offset]
            return flt
        raise AssertionError(f"unreachable filter policy {policy!r}")

    # -- completion ---------------------------------------------------------------

    def _append_meta_block(self, payload: bytes) -> BlockHandle:
        raw = wrap_block(payload)
        handle = BlockHandle(self.offset, len(payload))
        self.file.append(raw)
        self.offset += len(raw)
        return handle

    def finish(self) -> TableInfo:
        """Cut the pending block, write filter + index + footer, sync, and
        return the table's metadata."""
        if self.finished:
            raise RuntimeError("table section already finished")
        self.finished = True
        self.cutter.cut()

        flt = self._build_filter()
        filter_handle = (
            BlockHandle(0, 0) if flt is None else self._append_meta_block(flt.serialize())
        )
        index = IndexBlock(self._entries, self._largest_user_keys)
        index_handle = self._append_meta_block(index.serialize())

        num_entries = index.total_entries()
        valid_bytes = index.total_valid_bytes()
        footer_bytes = Footer(
            index_handle=index_handle,
            filter_handle=filter_handle,
            num_entries=num_entries,
            valid_data_bytes=valid_bytes,
            section=0 if self._base is None else self._base.footer.section + 1,
        ).serialize()
        self.file.append(footer_bytes)
        self.offset += len(footer_bytes)
        # Durability point: the section must be on disk before the manifest
        # edit that makes it live can reference it.  A crash between this
        # barrier and that edit leaves an appended tail whose footer is not
        # yet live — recovery truncates back to the recorded size.
        self.file.sync()
        self.file.close()

        return TableInfo(
            file_name=self.file.name,
            file_size=self.offset,
            valid_bytes=valid_bytes,
            num_entries=num_entries,
            smallest=index.smallest_key(),
            largest=index.largest_key(),
            index=index,
            filter=flt,
            bytes_written=self.offset - self._start_offset,
            footer_bytes=footer_bytes,
        )
