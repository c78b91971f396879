"""Core engine: DB facade, versions, manifest, flush, iterators, batches.

``DB`` is exposed lazily (PEP 562): the compaction subpackage imports
``repro.core.version`` while ``repro.core.db`` imports the compaction
subpackage, so eagerly importing ``.db`` here would create an import cycle
for any entry point that touches compaction first.
"""

from .iterator import DBIterator
from .merge import merge_entries, merge_visible
from .snapshot import Snapshot, SnapshotRegistry, VersionKeeper
from .version import FileMetadata, Version, VersionEdit, new_file_metadata
from .write_batch import WriteBatch

__all__ = [
    "DB",
    "DBIterator",
    "Snapshot",
    "SnapshotRegistry",
    "VersionKeeper",
    "merge_entries",
    "merge_visible",
    "FileMetadata",
    "Version",
    "VersionEdit",
    "new_file_metadata",
    "WriteBatch",
]


def __getattr__(name: str):
    if name == "DB":
        from .db import DB

        return DB
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
