"""Building fresh SSTables (flush and Table Compaction outputs).

The builder consumes entries in internal-key order, cuts data blocks at the
configured block size — never splitting one user key's versions across two
blocks, so index entries give exact user-key coverage — and finishes the
file with a filter blob, the extended index block, and the section-0 footer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..encoding import decode_fixed64
from ..keys import user_key_of
from ..options import FILTER_BLOCK, FILTER_NONE, FILTER_TABLE, Options
from ..storage.fs import FileSystem
from ..storage.io_stats import CAT_FLUSH
from .block_builder import BlockBuilder
from .filter_block import (
    Filter,
    build_block_filters,
    build_table_filter,
)
from .format import BLOCK_TRAILER_SIZE, BlockHandle, Footer, wrap_block
from .index import IndexBlock, IndexEntry


@dataclass
class TableInfo:
    """Result of building or appending to a table file."""

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


def _trailer(internal_key: bytes) -> int:
    """The packed ``(sequence << 8) | type`` of an internal key."""
    return decode_fixed64(internal_key, len(internal_key) - 8)


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
        self._options = options
        self._level = level
        self._block_size = options.block_size
        self._compression = options.compression_type()
        self._file = fs.create_file(name, category=category)
        self._offset = 0
        self._block = BlockBuilder(options.block_restart_interval)
        self._entries: list[IndexEntry] = []
        #: User keys of the pending block, then per finished block by offset.
        self._block_user_keys: list[bytes] = []
        self._keys_per_block: dict[int, list[bytes]] = {}
        self._num_entries = 0
        self._smallest: bytes | None = None
        self._largest: bytes | None = None
        #: User key of ``_largest`` (None before the first entry).
        self.last_user_key: bytes | None = None
        self._finished = False

    @property
    def name(self) -> str:
        return self._file.name

    def add(self, internal_key: bytes, value: bytes) -> None:
        """Append one entry; keys must arrive in increasing internal order."""
        user_key = user_key_of(internal_key)
        last_user_key = self.last_user_key
        if last_user_key is None:
            self._smallest = internal_key
        elif user_key > last_user_key:
            # Cut the block when full, but never between two versions of the
            # same user key: index entries must bound user-key ranges exactly.
            if self._block.size_estimate >= self._block_size:
                self._flush_block()
        elif user_key < last_user_key or _trailer(internal_key) >= _trailer(self._largest):
            # Same user key: versions must arrive newest (largest trailer) first.
            raise ValueError("table entries must be added in increasing internal-key order")
        self._block.add(internal_key, value)
        self._block_user_keys.append(user_key)
        self._num_entries += 1
        self._largest = internal_key
        self.last_user_key = user_key

    def _flush_block(self) -> None:
        if self._block.empty():
            return
        payload = self._block.finish()
        raw = wrap_block(payload, self._compression)
        entry = IndexEntry(
            smallest=self._block.first_key,
            largest=self._block.last_key,
            offset=self._offset,
            # index records the STORED size (compressed when it shrank)
            size=len(raw) - BLOCK_TRAILER_SIZE,
            num_entries=self._block.num_entries,
        )
        self._file.append(raw)
        self._offset += len(raw)
        self._entries.append(entry)
        self._keys_per_block[entry.offset] = self._block_user_keys
        self._block_user_keys = []
        self._block.reset()

    def estimated_file_size(self) -> int:
        """Current file bytes plus the pending block — the compaction loop's
        output-rotation signal."""
        return self._offset + self._block.size_estimate

    def num_entries(self) -> int:
        return self._num_entries

    def empty(self) -> bool:
        return self._num_entries == 0

    def _build_filter(self) -> Filter | None:
        policy = self._options.filter_policy
        if policy == FILTER_NONE or self._options.bloom_bits_per_key <= 0:
            return None
        if policy == FILTER_TABLE:
            return build_table_filter(
                [key for keys in self._keys_per_block.values() for key in keys],
                self._options.bloom_bits_per_key,
                self._options.bloom_reserved_fraction(self._level),
            )
        if policy == FILTER_BLOCK:
            return build_block_filters(self._keys_per_block, self._options.bloom_bits_per_key)
        raise AssertionError(f"unreachable filter policy {policy!r}")

    def finish(self) -> TableInfo:
        """Flush pending data, write filter + index + footer, return metadata."""
        if self._finished:
            raise RuntimeError("table already finished")
        self._finished = True
        self._flush_block()

        flt = self._build_filter()
        if flt is not None:
            filter_payload = flt.serialize()
            raw = wrap_block(filter_payload)
            filter_handle = BlockHandle(self._offset, len(filter_payload))
            self._file.append(raw)
            self._offset += len(raw)
        else:
            filter_handle = BlockHandle(0, 0)

        index = IndexBlock(self._entries)
        index_payload = index.serialize()
        raw = wrap_block(index_payload)
        index_handle = BlockHandle(self._offset, len(index_payload))
        self._file.append(raw)
        self._offset += len(raw)

        valid_bytes = index.total_valid_bytes()
        footer = Footer(
            index_handle=index_handle,
            filter_handle=filter_handle,
            num_entries=self._num_entries,
            valid_data_bytes=valid_bytes,
            section=0,
        )
        footer_bytes = footer.serialize()
        self._file.append(footer_bytes)
        self._offset += len(footer_bytes)
        # Durability point: the table must be on disk before the manifest
        # edit that makes it live can reference it.
        self._file.sync()
        self._file.close()

        return TableInfo(
            file_name=self._file.name,
            file_size=self._offset,
            valid_bytes=valid_bytes,
            num_entries=self._num_entries,
            smallest=self._smallest,
            largest=self._largest,
            index=index,
            filter=flt,
            bytes_written=self._offset,
        )

    def abandon(self) -> None:
        """Discard the partially built file."""
        self._finished = True
        self._file.close()
        if self._fs.exists(self._file.name):
            self._fs.delete_file(self._file.name)
