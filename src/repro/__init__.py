"""BlockDB — an LSM-tree key-value store with block-grained compaction.

A from-scratch Python reproduction of *"Reducing Write Amplification of
LSM-Tree with Block-Grained Compaction"* (Wang, Jin, Hua, Long, Huang —
ICDE 2022).  See README.md for a tour and DESIGN.md for the system
inventory.

Quickstart::

    from repro import DB, blockdb

    db = DB(options=blockdb(sstable_size=128 * 1024))
    db.put(b"hello", b"world")
    assert db.get(b"hello") == b"world"
    print(db.stats.write_amplification())
"""

from .baselines import L2SMDB, blockdb, l2sm_options, leveldb_like, rocksdb_like
from .core import DB, DBIterator, Snapshot, WriteBatch
from .errors import (
    CorruptionError,
    DBClosedError,
    FileSystemError,
    InvalidArgumentError,
    NotFoundError,
    ReproError,
    WouldBlock,
    WriteStallError,
)
from .options import (
    COMPACTION_BLOCK,
    COMPACTION_SELECTIVE,
    COMPACTION_TABLE,
    FILTER_BLOCK,
    FILTER_NONE,
    FILTER_TABLE,
    Options,
    SelectiveThresholds,
)
from .storage import DeviceModel, IOStats, LocalFS, SimulatedFS

__version__ = "1.0.0"

__all__ = [
    "DB",
    "DBIterator",
    "Snapshot",
    "WriteBatch",
    "Options",
    "SelectiveThresholds",
    "COMPACTION_TABLE",
    "COMPACTION_BLOCK",
    "COMPACTION_SELECTIVE",
    "FILTER_NONE",
    "FILTER_BLOCK",
    "FILTER_TABLE",
    "L2SMDB",
    "blockdb",
    "leveldb_like",
    "rocksdb_like",
    "l2sm_options",
    "SimulatedFS",
    "LocalFS",
    "DeviceModel",
    "IOStats",
    "ReproError",
    "NotFoundError",
    "CorruptionError",
    "InvalidArgumentError",
    "DBClosedError",
    "FileSystemError",
    "WriteStallError",
    "WouldBlock",
    "__version__",
]
