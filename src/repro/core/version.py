"""Level metadata: files, versions, and version edits.

A :class:`Version` is the engine's view of which SSTables live at which
level.  Level 0 files may overlap each other (they are flushed memtables)
and are ordered newest-first for reads; deeper levels hold disjoint key
ranges sorted by smallest key.

Mutations are expressed as :class:`VersionEdit` records (add/delete/update
file) applied under the DB lock and appended to the manifest for recovery.
``update_file`` is this system's extension beyond LevelDB: Block Compaction
changes a file *in place* (size, valid bytes, entry count, bounds), which
conventional LSM engines never do.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from operator import attrgetter

from ..errors import InvalidArgumentError
from ..keys import comparable_from_internal, user_key_of


@dataclass
class FileMetadata:
    """Catalog entry for one SSTable."""

    file_number: int
    file_size: int
    #: Live data-block payload bytes (== file data bytes for freshly built
    #: tables; shrinks relative to file_size as Block Compactions append).
    valid_bytes: int
    num_entries: int
    smallest: bytes  # internal key
    largest: bytes  # internal key
    #: Seek-compaction budget (LevelDB: file_size / 16 KiB, min 100).
    allowed_seeks: int = 100
    #: Number of Block Compactions applied to this file since creation.
    append_count: int = 0

    @property
    def smallest_user_key(self) -> bytes:
        return user_key_of(self.smallest)

    @property
    def largest_user_key(self) -> bytes:
        return user_key_of(self.largest)

    def overlaps_user_range(self, lo: bytes | None, hi: bytes | None) -> bool:
        """Whether the file's key range intersects ``[lo, hi]`` (None = open)."""
        if hi is not None and self.smallest_user_key > hi:
            return False
        if lo is not None and self.largest_user_key < lo:
            return False
        return True

    @property
    def obsolete_bytes(self) -> int:
        """File bytes no longer live: superseded data blocks plus superseded
        metadata sections (space-amplification numerator)."""
        return max(0, self.file_size - self.valid_bytes)

    def file_name(self) -> str:
        return f"{self.file_number:06d}.sst"


def new_file_metadata(
    file_number: int,
    info,
    *,
    allowed_seeks_divisor: int = 16 * 1024,
    min_allowed_seeks: int = 100,
) -> FileMetadata:
    """Build metadata from a :class:`~repro.sstable.table_builder.TableInfo`."""
    return FileMetadata(
        file_number=file_number,
        file_size=info.file_size,
        valid_bytes=info.valid_bytes,
        num_entries=info.num_entries,
        smallest=info.smallest,
        largest=info.largest,
        allowed_seeks=max(min_allowed_seeks, info.file_size // max(1, allowed_seeks_divisor)),
    )


@dataclass
class VersionEdit:
    """One atomic metadata change, also the manifest record format."""

    log_number: int | None = None
    next_file_number: int | None = None
    last_sequence: int | None = None
    compact_pointers: list[tuple[int, bytes]] = field(default_factory=list)
    deleted_files: list[tuple[int, int]] = field(default_factory=list)  # (level, number)
    new_files: list[tuple[int, FileMetadata]] = field(default_factory=list)
    #: In-place metadata updates from Block Compaction: (level, metadata).
    updated_files: list[tuple[int, FileMetadata]] = field(default_factory=list)
    #: Value-log garbage ledger (DESIGN.md §13): registered vlog files,
    #: compaction-observed dead-byte deltas ``(file_number, bytes)``, and
    #: GC-deleted vlog files.
    new_vlog_files: list[int] = field(default_factory=list)
    vlog_dead: list[tuple[int, int]] = field(default_factory=list)
    deleted_vlog_files: list[int] = field(default_factory=list)


class Version:
    """Mutable catalog of live files per level.

    The engine serializes all mutations, so a single mutable version (rather
    than LevelDB's immutable version chain) is sufficient; iterators pin the
    file *lists* they capture at creation and the DB defers physical file
    deletion while iterators are live.
    """

    def __init__(self, num_levels: int):
        if num_levels < 2:
            raise InvalidArgumentError("need at least 2 levels")
        self.levels: list[list[FileMetadata]] = [[] for _ in range(num_levels)]
        #: Value-log garbage ledger: live vlog file number -> dead bytes
        #: (manifest-journaled; live bytes are the physical file size minus
        #: this, since vlog files are append-only).
        self.vlog: dict[int, int] = {}

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    # -- queries ------------------------------------------------------------

    def files_at(self, level: int) -> list[FileMetadata]:
        return self.levels[level]

    def level_valid_bytes(self, level: int) -> int:
        return sum(f.valid_bytes for f in self.levels[level])

    def level_file_bytes(self, level: int) -> int:
        return sum(f.file_size for f in self.levels[level])

    def level_obsolete_bytes(self, level: int) -> int:
        return sum(f.obsolete_bytes for f in self.levels[level])

    def total_file_bytes(self) -> int:
        return sum(self.level_file_bytes(lv) for lv in range(self.num_levels))

    def num_files(self) -> int:
        return sum(len(files) for files in self.levels)

    def all_files(self) -> list[tuple[int, FileMetadata]]:
        return [(lv, f) for lv in range(self.num_levels) for f in self.levels[lv]]

    def live_file_numbers(self) -> set[int]:
        return {f.file_number for _, f in self.all_files()}

    def deepest_nonempty_level(self) -> int:
        deepest = 0
        for level in range(self.num_levels):
            if self.levels[level]:
                deepest = level
        return deepest

    def level_span(self, level: int) -> tuple[bytes, bytes] | None:
        """User-key span covered by ``level`` (None when empty).  For
        sorted levels (>= 1) this reads the edge files; L0 scans, since
        its files overlap arbitrarily."""
        files = self.levels[level]
        if not files:
            return None
        if level > 0:
            return files[0].smallest_user_key, files[-1].largest_user_key
        return (
            min(f.smallest_user_key for f in files),
            max(f.largest_user_key for f in files),
        )

    def overlapping_files(
        self, level: int, lo: bytes | None, hi: bytes | None
    ) -> list[FileMetadata]:
        """Files at ``level`` intersecting user-key range ``[lo, hi]``."""
        return [f for f in self.levels[level] if f.overlaps_user_range(lo, hi)]

    def file_for_key(self, level: int, user_key: bytes) -> FileMetadata | None:
        """The unique file at a sorted level (>=1) that may hold ``user_key``."""
        files = self.levels[level]
        if not files:
            return None
        idx = bisect.bisect_left(files, user_key, key=attrgetter("largest_user_key"))
        if idx >= len(files):
            return None
        f = files[idx]
        if f.smallest_user_key <= user_key:
            return f
        return None

    def is_key_range_absent_below(self, level: int, lo: bytes, hi: bytes) -> bool:
        """True when no level deeper than ``level`` overlaps ``[lo, hi]`` —
        the test that lets compaction drop tombstones."""
        for deeper in range(level + 1, self.num_levels):
            if self.overlapping_files(deeper, lo, hi):
                return False
        return True

    # -- mutation -----------------------------------------------------------

    def apply(self, edit: VersionEdit) -> None:
        """Apply an edit in place (deletes, then updates, then adds)."""
        if edit.deleted_files:
            doomed = set(edit.deleted_files)
            for level in {lv for lv, _ in doomed}:
                self.levels[level] = [
                    f for f in self.levels[level] if (level, f.file_number) not in doomed
                ]
        for level, meta in edit.updated_files:
            files = self.levels[level]
            for i, f in enumerate(files):
                if f.file_number == meta.file_number:
                    files[i] = meta
                    break
            else:
                raise InvalidArgumentError(
                    f"update for unknown file {meta.file_number} at level {level}"
                )
            self._resort(level)
        for level, meta in edit.new_files:
            self.levels[level].append(meta)
            self._resort(level)
        for number in edit.new_vlog_files:
            self.vlog.setdefault(number, 0)
        for number, dead_bytes in edit.vlog_dead:
            if number in self.vlog:
                self.vlog[number] += dead_bytes
        for number in edit.deleted_vlog_files:
            self.vlog.pop(number, None)

    def _resort(self, level: int) -> None:
        if level == 0:
            self.levels[0].sort(key=lambda f: f.file_number)
        else:
            self.levels[level].sort(key=lambda f: comparable_from_internal(f.smallest))
            self._check_disjoint(level)

    def _check_disjoint(self, level: int) -> None:
        files = self.levels[level]
        for a, b in zip(files, files[1:]):
            if a.largest_user_key >= b.smallest_user_key:
                raise InvalidArgumentError(
                    f"level {level} files {a.file_number} and {b.file_number} overlap: "
                    f"{a.largest_user_key!r} >= {b.smallest_user_key!r}"
                )

    def clone_file_lists(self) -> list[list[FileMetadata]]:
        """Shallow snapshot of file lists (iterator pinning)."""
        return [list(files) for files in self.levels]


def clone_metadata(meta: FileMetadata, **overrides) -> FileMetadata:
    """Copy ``meta`` with field overrides (used by trivial moves/updates)."""
    return replace(meta, **overrides)
