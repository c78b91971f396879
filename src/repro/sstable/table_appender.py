"""Appending to SSTables — Block Compaction's write primitive.

An :class:`AppendSession` records, in key order, which existing blocks
survive (``reuse``) and which new entries get serialized into appended
blocks (``add``).  ``finish`` writes the new data blocks at the file's tail
followed by a fresh filter blob, a fresh extended index block covering
*all* valid blocks (reused + new), and a new footer — the append layout of
:mod:`repro.sstable.format`.

Filter maintenance follows Section IV-D: when the live filter is a
reserved-bits filter with enough headroom the new keys are simply inserted;
otherwise the filter is rebuilt from the table's live keys, which requires
reading the clean blocks (a real cost, charged to the compaction category —
this is precisely what the reserved bits exist to avoid).
"""

from __future__ import annotations

from ..bloom import ReservedBloomFilter, build_filter
from ..keys import user_key_of
from ..options import FILTER_BLOCK, FILTER_NONE, FILTER_TABLE, Options
from ..storage.fs import FileSystem
from ..storage.io_stats import CAT_COMPACTION
from .block_builder import BlockBuilder
from .filter_block import BlockFilters, Filter, TableFilter
from .format import BLOCK_TRAILER_SIZE, BlockHandle, Footer, wrap_block
from .index import IndexBlock, IndexEntry
from .table_builder import TableInfo
from .table_reader import TableReader


class AppendResult(TableInfo):
    """Alias: appends return the same shape as builds."""


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
        self._fs = fs
        self._reader = reader
        self._options = options
        self._level = level
        self._category = category
        self._block_size = options.block_size
        self._compression = options.compression_type()
        self._file = fs.open_append(reader.name, category=category)
        self._offset = fs.file_size(reader.name)
        self._start_offset = self._offset
        self._block = BlockBuilder(options.block_restart_interval)
        self._entries: list[IndexEntry] = []
        self._reused_offsets: set[int] = set()
        #: User keys of the pending block, then per appended block by offset.
        self._block_user_keys: list[bytes] = []
        self._keys_per_new_block: dict[int, list[bytes]] = {}
        self._num_new_entries = 0
        self._filter_rebuilt = False
        self._finished = False

    # -- recording, in key order ------------------------------------------------

    def add(self, internal_key: bytes, value: bytes) -> None:
        """Append one merged entry to the current new block."""
        user_key = user_key_of(internal_key)
        keys = self._block_user_keys
        # Cut the block when full, but never between two versions of the
        # same user key (the rule TableBuilder.add applies).
        if keys and self._block.size_estimate >= self._block_size and user_key != keys[-1]:
            self.flush_block()
            keys = self._block_user_keys
        self._block.add(internal_key, value)
        keys.append(user_key)
        self._num_new_entries += 1

    def flush_block(self) -> None:
        """Cut the pending new block and write it at the tail."""
        if self._block.empty():
            return
        payload = self._block.finish()
        raw = wrap_block(payload, self._compression)
        entry = IndexEntry(
            smallest=self._block.first_key,
            largest=self._block.last_key,
            offset=self._offset,
            size=len(raw) - BLOCK_TRAILER_SIZE,
            num_entries=self._block.num_entries,
        )
        self._file.append(raw)
        self._offset += len(raw)
        self._entries.append(entry)
        self._keys_per_new_block[entry.offset] = self._block_user_keys
        self._block_user_keys = []
        self._block.reset()

    def reuse(self, entry: IndexEntry) -> None:
        """Record a clean block: it stays where it is, its index entry is
        copied into the new index verbatim."""
        self.flush_block()
        self._entries.append(entry)
        self._reused_offsets.add(entry.offset)

    def append_prebuilt(
        self,
        raw: bytes,
        smallest: bytes,
        largest: bytes,
        num_entries: int,
        user_keys: list[bytes],
    ) -> None:
        """Append one already-serialized block (payload + trailer).

        The offload path's write primitive: a worker process built the raw
        block with the same cut rule :meth:`add` applies, and the parent
        replays it here — charging the (simulated) append I/O and recording
        the same index/filter bookkeeping ``add`` + :meth:`flush_block`
        would have, so the resulting file is bit-identical.
        """
        self.flush_block()
        entry = IndexEntry(
            smallest=smallest,
            largest=largest,
            offset=self._offset,
            size=len(raw) - BLOCK_TRAILER_SIZE,
            num_entries=num_entries,
        )
        self._file.append(raw)
        self._offset += len(raw)
        self._entries.append(entry)
        self._keys_per_new_block[entry.offset] = list(user_keys)
        self._num_new_entries += num_entries

    # -- filter maintenance ---------------------------------------------------------

    @property
    def filter_rebuilt(self) -> bool:
        """Whether finish() had to rebuild the filter from live keys."""
        return self._filter_rebuilt

    def _reused_user_keys(self) -> list[bytes]:
        """Live user keys from reused blocks — read from disk (the rebuild
        cost reserved bits avoid)."""
        keys: list[bytes] = []
        reused = [e for e in self._entries if e.offset in self._reused_offsets]
        blocks = self._reader.read_blocks_concurrently(
            reused,
            category=self._category,
            concurrency=self._options.dirty_block_read_parallelism,
        )
        for block in blocks:
            keys.extend(block.user_keys())
        return keys

    def _build_filter(self) -> Filter | None:
        policy = self._options.filter_policy
        if policy == FILTER_NONE or self._options.bloom_bits_per_key <= 0:
            return None
        if policy == FILTER_TABLE:
            new_keys = [key for keys in self._keys_per_new_block.values() for key in keys]
            old = self._reader.filter
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
            self._filter_rebuilt = True
            live_keys = self._reused_user_keys() + new_keys
            return TableFilter(
                build_filter(
                    live_keys,
                    self._options.bloom_bits_per_key,
                    self._options.bloom_reserved_fraction(self._level),
                )
            )
        if policy == FILTER_BLOCK:
            per_block = {}
            old = self._reader.filter
            if isinstance(old, BlockFilters):
                for offset in self._reused_offsets:
                    if offset in old.per_block:
                        per_block[offset] = old.per_block[offset]
            for offset, keys in self._keys_per_new_block.items():
                per_block[offset] = build_filter(keys, self._options.bloom_bits_per_key)
            return BlockFilters(per_block)
        raise AssertionError(f"unreachable filter policy {policy!r}")

    # -- completion -------------------------------------------------------------------

    def finish(self) -> AppendResult:
        """Write filter + index + footer; return the table's new metadata."""
        if self._finished:
            raise RuntimeError("append session already finished")
        self._finished = True
        self.flush_block()

        flt = self._build_filter()
        if flt is not None:
            payload = flt.serialize()
            raw = wrap_block(payload)
            filter_handle = BlockHandle(self._offset, len(payload))
            self._file.append(raw)
            self._offset += len(raw)
        else:
            filter_handle = BlockHandle(0, 0)

        index = IndexBlock(self._entries)
        payload = index.serialize()
        raw = wrap_block(payload)
        index_handle = BlockHandle(self._offset, len(payload))
        self._file.append(raw)
        self._offset += len(raw)

        num_entries = index.total_entries()
        valid_bytes = index.total_valid_bytes()
        footer = Footer(
            index_handle=index_handle,
            filter_handle=filter_handle,
            num_entries=num_entries,
            valid_data_bytes=valid_bytes,
            section=self._reader.footer.section + 1,
        )
        footer_bytes = footer.serialize()
        self._file.append(footer_bytes)
        self._offset += len(footer_bytes)
        # Durability point before the manifest commit.  A crash between this
        # barrier and the manifest edit leaves an appended tail whose footer
        # is not yet live — recovery truncates back to the recorded size.
        self._file.sync()
        self._file.close()

        return AppendResult(
            file_name=self._reader.name,
            file_size=self._offset,
            valid_bytes=valid_bytes,
            num_entries=num_entries,
            smallest=index.smallest_key(),
            largest=index.largest_key(),
            index=index,
            filter=flt,
            bytes_written=self._offset - self._start_offset,
        )
