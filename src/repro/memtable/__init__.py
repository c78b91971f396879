"""Memtable substrate: sorted write buffer, write-ahead log."""

from .memtable import MemTable
from .wal import WalWriter, read_wal

__all__ = ["MemTable", "WalWriter", "read_wal"]
