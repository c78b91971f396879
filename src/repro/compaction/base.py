"""Shared compaction infrastructure.

Compaction implementations are module-level functions over a narrow
:class:`CompactionEnv` protocol (implemented by the DB), so the schemes —
Table, Block, Selective — are independently testable and the DB stays a thin
coordinator.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol

from ..cache.block_cache import BlockCache
from ..cache.table_cache import TableCache
from ..keys import ComparableKey
from ..core.merge import merge_entries
from ..core.snapshot import VersionKeeper
from ..metrics.stats import DBStats
from ..options import Options
from ..storage.fs import FileSystem
from ..storage.io_stats import CAT_COMPACTION
from ..core.version import FileMetadata, Version, VersionEdit

_INVERT = (1 << 64) - 1


class CompactionEnv(Protocol):
    """What a compaction needs from the engine."""

    fs: FileSystem
    options: Options
    table_cache: TableCache
    block_cache: BlockCache
    version: Version
    stats: DBStats

    def new_file_number(self) -> int: ...

    def snapshot_boundaries(self) -> list[int]: ...


@dataclass
class CompactionTask:
    """A unit of compaction work: parent inputs against child inputs."""

    parent_level: int
    parent_files: list[FileMetadata]
    child_files: list[FileMetadata]
    reason: str = "size"  # 'size' | 'seek' | 'manual'

    @property
    def child_level(self) -> int:
        return self.parent_level + 1


@dataclass
class CompactionResult:
    """Outcome applied by the DB: a version edit plus files to retire."""

    edit: VersionEdit = field(default_factory=VersionEdit)
    obsolete_files: list[FileMetadata] = field(default_factory=list)
    bytes_read: int = 0
    bytes_written: int = 0
    output_files: int = 0
    kind: str = "table"
    #: Sub-task mix for selective compactions.
    table_subtasks: int = 0
    block_subtasks: int = 0
    #: Guards result mutation when sub-tasks execute on the
    #: :class:`~repro.compaction.parallel.SubtaskExecutor`'s thread pool;
    #: uncontended — and therefore free — on its deterministic inline path.
    apply_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )


@contextmanager
def pinned_entry_streams(
    env: CompactionEnv, files: list[FileMetadata]
) -> Iterator[list[Iterator[tuple[ComparableKey, bytes]]]]:
    """Full sequential scans of ``files`` for one merge, each reader pinned
    until the ``with`` body exits.

    A merge opens every input before it reads any of them: with more inputs
    than ``table_cache_capacity`` the cache would otherwise evict — and
    close — a reader the merge has not reached yet.  The streams are the
    readers' own (no per-entry wrapper), and they bypass the block cache so
    compaction reads do not pollute it, matching LevelDB."""
    readers = []
    try:
        for meta in files:
            reader = env.table_cache.get(meta.file_number, meta.file_name())
            reader.acquire()
            readers.append(reader)
        yield [r.entries_from(category=CAT_COMPACTION, sequential=True) for r in readers]
    finally:
        for reader in readers:
            reader.release()


@dataclass(frozen=True)
class TombstoneRule:
    """Whether a compaction writing into ``level`` may drop a tombstone: true
    iff no deeper level can hold its user key.

    Built once per compaction from the version, over the input key range
    (:meth:`below`), and picklable, so an offload worker applies exactly the
    rule the in-process merge does.  For every key in that range
    :meth:`may_drop` answers what a per-key ``Version.file_for_key`` probe
    of each deeper level would."""

    #: Per deeper level that overlaps the range: the overlapping files'
    #: smallest and largest user keys, in key order.  Empty when no deeper
    #: level overlaps (every tombstone may go).
    spans: tuple[tuple[tuple[bytes, ...], tuple[bytes, ...]], ...] = ()

    @classmethod
    def below(cls, version: Version, level: int, lo: bytes, hi: bytes) -> "TombstoneRule":
        """The rule for a compaction writing into ``level`` whose inputs
        span user keys ``[lo, hi]``."""
        if version.is_key_range_absent_below(level, lo, hi):
            return cls()
        spans = []
        for deeper in range(level + 1, version.num_levels):
            files = version.overlapping_files(deeper, lo, hi)
            if files:
                spans.append(
                    (
                        tuple(f.smallest_user_key for f in files),
                        tuple(f.largest_user_key for f in files),
                    )
                )
        return cls(tuple(spans))

    def may_drop(self, user_key: bytes) -> bool:
        for smallest, largest in self.spans:
            idx = bisect_left(largest, user_key)
            if idx < len(largest) and smallest[idx] <= user_key:
                return False
        return True


def drop_observer(env: CompactionEnv) -> Callable[[bytes], None] | None:
    """The value-log dead-byte observation hook for ``env``, when the
    engine carries a vlog manager (DESIGN.md §13).  None — the common,
    non-separated case — leaves the merge loops' fast paths untouched."""
    vlog = getattr(env, "vlog", None)
    return vlog.observe_drop if vlog is not None else None


def merge_keep_newest(
    sources: list[Iterator[tuple[ComparableKey, bytes]]],
    boundaries: list[int] | None = None,
    on_drop: Callable[[bytes], None] | None = None,
) -> Iterator[tuple[ComparableKey, bytes]]:
    """Merge sorted streams keeping the newest version per user key — per
    snapshot stratum, tombstones included.

    This is the parent-side preparation for Block Compaction: tombstones
    must survive this stage because they may shadow entries living in the
    child SSTable's data blocks (dropping them early would resurrect those
    values).

    ``on_drop`` (when given) observes each dropped entry's stored value —
    the value-log garbage ledger's hook (DESIGN.md §13).

    With no live snapshots (``boundaries`` empty — the overwhelmingly common
    case) retention degenerates to "newest version per user key", which
    needs no :class:`VersionKeeper` at all: the loop is a merge plus one
    bytes compare per entry.
    """
    last_user_key: bytes | None = None
    if not boundaries:
        for entry in merge_entries(sources):
            user_key = entry[0][0]
            if user_key != last_user_key:
                last_user_key = user_key
                yield entry
            elif on_drop is not None:
                on_drop(entry[1])
        return
    keeper = VersionKeeper(boundaries)
    new_key = keeper.new_key
    keep = keeper.keep
    invert = _INVERT
    for entry in merge_entries(sources):
        user_key, inv = entry[0]
        if user_key != last_user_key:
            new_key()
            last_user_key = user_key
        if keep((invert - inv) >> 8):
            yield entry
        elif on_drop is not None:
            on_drop(entry[1])


def merge_live(
    sources: list[Iterator[tuple[ComparableKey, bytes]]],
    can_drop_tombstone: Callable[[bytes], bool],
    boundaries: list[int] | None = None,
    on_drop: Callable[[bytes], None] | None = None,
) -> Iterator[tuple[ComparableKey, bytes]]:
    """Merge sorted streams keeping, per user key, the newest version of
    every snapshot stratum (see :class:`~repro.core.snapshot.VersionKeeper`).

    Yields ``(comparable_key, value)`` — the form the merge reads and the
    table writers' run loop encodes, so a kept value's entry passes through
    as the merge produced it.  A tombstone is dropped only when no live
    snapshot can see beneath it *and* no deeper level may hold the key;
    otherwise it passes through, with an empty value, and keeps shadowing.

    The per-entry sequence/type split is inlined integer arithmetic on the
    inverted trailer (``_INVERT`` is all-ones so the low byte is
    ``0xFF - type``).  With no live snapshots (``boundaries`` empty) the
    stratum logic degenerates to "newest per user key" and the
    :class:`VersionKeeper` is skipped entirely.
    """
    invert = _INVERT
    last_user_key: bytes | None = None
    if not boundaries:
        for entry in merge_entries(sources):
            (user_key, inv), value = entry
            if user_key == last_user_key:
                if on_drop is not None:
                    on_drop(value)
                continue  # an older, shadowed version
            last_user_key = user_key
            if inv & 0xFF == 0xFF:  # TYPE_DELETION
                if can_drop_tombstone(user_key):
                    continue
                yield entry[0], b""
            else:
                yield entry
        return
    keeper = VersionKeeper(boundaries)
    new_key = keeper.new_key
    keep = keeper.keep
    for entry in merge_entries(sources):
        (user_key, inv), value = entry
        if user_key != last_user_key:
            new_key()
            last_user_key = user_key
        sequence = (invert - inv) >> 8
        if not keep(sequence):
            if on_drop is not None:
                on_drop(value)
            continue  # shadowed within its stratum
        if inv & 0xFF == 0xFF:  # TYPE_DELETION
            if keeper.tombstone_unprotected(sequence) and can_drop_tombstone(user_key):
                continue
            yield entry[0], b""
        else:
            yield entry
