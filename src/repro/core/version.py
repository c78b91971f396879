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
from ..keys import user_key_of

#: Bisect keys over a sorted level's file list (``bisect(..., key=...)``).
SMALLEST_USER_KEY = attrgetter("smallest_user_key")
LARGEST_USER_KEY = attrgetter("largest_user_key")
_FILE_NUMBER = attrgetter("file_number")


def table_file_name(number: int) -> str:
    """The one place an SSTable's file name is formatted."""
    return f"{number:06d}.sst"


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
    #: User-key bounds, derived once: every catalog query compares them.
    #: ``smallest`` / ``largest`` are never assigned after construction
    #: (an in-place update installs a fresh entry).
    smallest_user_key: bytes = field(init=False, repr=False, compare=False)
    largest_user_key: bytes = field(init=False, repr=False, compare=False)
    #: The section writer's ``TableInfo`` for a table built in this process,
    #: riding along until the eager open that follows takes it (and clears
    #: this, so the catalog does not keep an index and filter alive).  Not
    #: journaled, not compared.
    built: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.smallest_user_key = user_key_of(self.smallest)
        self.largest_user_key = user_key_of(self.largest)

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
        return table_file_name(self.file_number)


#: LevelDB charges one allowed seek per this many bytes of file size.
SEEK_COMPACTION_BYTES_PER_SEEK = 16 * 1024


def seek_budget(file_size: int, min_seeks: int) -> int:
    """A file's allowed seeks: one per ``SEEK_COMPACTION_BYTES_PER_SEEK``
    bytes, never fewer than ``min_seeks``."""
    return max(min_seeks, file_size // SEEK_COMPACTION_BYTES_PER_SEEK)


def new_file_metadata(file_number: int, info, *, min_allowed_seeks: int = 100) -> FileMetadata:
    """Build metadata from a :class:`~repro.sstable.section_writer.TableInfo`."""
    return FileMetadata(
        file_number=file_number,
        file_size=info.file_size,
        valid_bytes=info.valid_bytes,
        num_entries=info.num_entries,
        smallest=info.smallest,
        largest=info.largest,
        allowed_seeks=seek_budget(info.file_size, min_allowed_seeks),
    )


def built_file_metadata(file_number: int, info, options) -> FileMetadata:
    """Metadata for a table this process just wrote, with the engine's
    seek-budget floor; carries ``info`` (the writer's ``TableInfo``) to
    the eager open that follows (:attr:`FileMetadata.built`)."""
    meta = new_file_metadata(
        file_number, info, min_allowed_seeks=options.seek_compaction_min_seeks
    )
    meta.built = info
    return meta


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

    Invariants, all maintained by :meth:`apply` — the only mutator — at
    O(log files) key comparisons per file touched (DESIGN.md, "Catalog
    invariants and their cost"): level 0 is ordered by file number, every
    deeper level by smallest user key with pairwise-disjoint user-key
    ranges, and the per-level byte totals equal the sums over the level's
    files (a file's sizes never change in place).
    """

    def __init__(self, num_levels: int):
        if num_levels < 2:
            raise InvalidArgumentError("need at least 2 levels")
        self.levels: list[list[FileMetadata]] = [[] for _ in range(num_levels)]
        #: ``(level, file_number)`` -> live entry: how a delete or an
        #: in-place update finds the file it names without scanning.
        self._files: dict[tuple[int, int], FileMetadata] = {}
        self._file_bytes = [0] * num_levels
        self._valid_bytes = [0] * num_levels
        self._obsolete_bytes = [0] * num_levels
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
        return self._valid_bytes[level]

    def level_file_bytes(self, level: int) -> int:
        return self._file_bytes[level]

    def level_obsolete_bytes(self, level: int) -> int:
        return self._obsolete_bytes[level]

    def total_file_bytes(self) -> int:
        return sum(self._file_bytes)

    def num_files(self) -> int:
        return len(self._files)

    def all_files(self) -> list[tuple[int, FileMetadata]]:
        return [(lv, f) for lv in range(self.num_levels) for f in self.levels[lv]]

    def live_file_numbers(self) -> set[int]:
        return {number for _, number in self._files}

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
        files = self.levels[level]
        if level == 0:
            return [f for f in files if f.overlaps_user_range(lo, hi)]
        # Sorted and disjoint: both bounds ascend together, so the answer
        # is the window from the first file ending at or after ``lo`` to
        # the last one starting at or before ``hi``.
        start = 0 if lo is None else bisect.bisect_left(files, lo, key=LARGEST_USER_KEY)
        end = (
            len(files)
            if hi is None
            else bisect.bisect_right(files, hi, key=SMALLEST_USER_KEY)
        )
        return files[start:end]

    def file_for_key(self, level: int, user_key: bytes) -> FileMetadata | None:
        """The unique file at a sorted level (>=1) that may hold ``user_key``."""
        files = self.levels[level]
        idx = bisect.bisect_left(files, user_key, key=LARGEST_USER_KEY)
        if idx < len(files) and files[idx].smallest_user_key <= user_key:
            return files[idx]
        return None

    def is_key_range_absent_below(self, level: int, lo: bytes, hi: bytes) -> bool:
        """True when no level deeper than ``level`` overlaps ``[lo, hi]`` —
        the test that lets compaction drop tombstones."""
        for deeper in range(level + 1, self.num_levels):
            files = self.levels[deeper]
            idx = bisect.bisect_left(files, lo, key=LARGEST_USER_KEY)
            if idx < len(files) and files[idx].smallest_user_key <= hi:
                return False
        return True

    # -- mutation -----------------------------------------------------------

    def apply(self, edit: VersionEdit) -> None:
        """Apply an edit in place (deletes, then updates, then adds).

        A file that would overlap a neighbour at a sorted level, or an
        update naming no live file, raises :class:`InvalidArgumentError`
        and leaves that file as it was (earlier parts of the edit stay)."""
        for key in edit.deleted_files:
            old = self._files.get(key)
            if old is not None:
                self._remove(key[0], old)
        for level, meta in edit.updated_files:
            old = self._files.get((level, meta.file_number))
            if old is None:
                raise InvalidArgumentError(
                    f"update for unknown file {meta.file_number} at level {level}"
                )
            # Block Compaction may move either bound, so the entry is
            # re-placed rather than overwritten where it stood.
            self._remove(level, old)
            try:
                self._place(level, meta)
            except InvalidArgumentError:
                self._place(level, old)
                raise
        for level, meta in edit.new_files:
            self._place(level, meta)
        for number in edit.new_vlog_files:
            self.vlog.setdefault(number, 0)
        for number, dead_bytes in edit.vlog_dead:
            if number in self.vlog:
                self.vlog[number] += dead_bytes
        for number in edit.deleted_vlog_files:
            self.vlog.pop(number, None)

    def _place(self, level: int, meta: FileMetadata) -> None:
        """Insert ``meta`` at its sorted position.  At a sorted level the
        rest of the list is already disjoint, so the two files it lands
        between are the only pairs the insertion can break."""
        files = self.levels[level]
        if level == 0:
            idx = bisect.bisect_right(files, meta.file_number, key=_FILE_NUMBER)
        else:
            idx = bisect.bisect_left(files, meta.smallest_user_key, key=SMALLEST_USER_KEY)
            if idx > 0:
                self._check_disjoint(level, files[idx - 1], meta)
            if idx < len(files):
                self._check_disjoint(level, meta, files[idx])
        files.insert(idx, meta)
        self._files[level, meta.file_number] = meta
        self._account(level, meta, 1)

    def _remove(self, level: int, meta: FileMetadata) -> None:
        """Take the live entry ``meta`` out of its level."""
        files = self.levels[level]
        if level == 0:
            idx = bisect.bisect_left(files, meta.file_number, key=_FILE_NUMBER)
        else:
            idx = bisect.bisect_left(files, meta.smallest_user_key, key=SMALLEST_USER_KEY)
        assert files[idx] is meta, "catalog index out of step with its level list"
        del files[idx]
        del self._files[level, meta.file_number]
        self._account(level, meta, -1)

    @staticmethod
    def _check_disjoint(level: int, a: FileMetadata, b: FileMetadata) -> None:
        if a.largest_user_key >= b.smallest_user_key:
            raise InvalidArgumentError(
                f"level {level} files {a.file_number} and {b.file_number} overlap: "
                f"{a.largest_user_key!r} >= {b.smallest_user_key!r}"
            )

    def _account(self, level: int, meta: FileMetadata, sign: int) -> None:
        self._file_bytes[level] += sign * meta.file_size
        self._valid_bytes[level] += sign * meta.valid_bytes
        self._obsolete_bytes[level] += sign * meta.obsolete_bytes

    def clone_file_lists(self) -> list[list[FileMetadata]]:
        """Shallow snapshot of file lists (iterator pinning)."""
        return [list(files) for files in self.levels]


def clone_metadata(meta: FileMetadata, **overrides) -> FileMetadata:
    """Copy ``meta`` with field overrides (used by trivial moves/updates)."""
    return replace(meta, **overrides)
