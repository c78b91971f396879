"""SSTable substrate: block format, extended index, builders, readers, appenders."""

from .block import DataBlock
from .block_builder import BlockCutter
from .filter_block import (
    BlockFilters,
    Filter,
    TableFilter,
    build_block_filters,
    build_table_filter,
    deserialize_filter,
)
from .format import (
    BLOCK_TRAILER_SIZE,
    FOOTER_SIZE,
    TABLE_MAGIC,
    BlockHandle,
    Footer,
    unwrap_block,
    wrap_block,
)
from .index import IndexBlock, IndexEntry
from .section_writer import TableInfo
from .table_appender import AppendSession
from .table_builder import TableBuilder
from .table_reader import TableReader

__all__ = [
    "DataBlock",
    "BlockCutter",
    "BlockFilters",
    "Filter",
    "TableFilter",
    "build_block_filters",
    "build_table_filter",
    "deserialize_filter",
    "BlockHandle",
    "Footer",
    "BLOCK_TRAILER_SIZE",
    "FOOTER_SIZE",
    "TABLE_MAGIC",
    "unwrap_block",
    "wrap_block",
    "IndexBlock",
    "IndexEntry",
    "AppendSession",
    "TableBuilder",
    "TableInfo",
    "TableReader",
]
