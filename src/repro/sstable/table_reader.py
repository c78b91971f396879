"""Reading SSTables.

A :class:`TableReader` opens a table file, loads the *latest* footer, index
block, and filter blob (earlier sections' metadata is obsolete), and serves
point lookups, scans, and the compaction primitives (block fetches, possibly
concurrent).

Who decodes the metadata: the reader, always — except on the eager open (or
reload) that follows a build or append in this process, where the caller
passes the section writer's :class:`~repro.sstable.section_writer.TableInfo`.
The reader then issues the same three reads, checks the footer it read
against the bytes the writer wrote and both block checksums, and keeps the
writer's index and filter objects instead of decoding their bytes again.
Anything else about the file — a recovery, a re-open after a cache
eviction, an offline tool, a footer that does not match — is a full parse.

The read path for a point lookup follows Section V-A of the paper: bloom
filter first, then the extended index block (which can reject keys falling
between blocks without I/O), then exactly one data block.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import CorruptionError
from ..keys import ComparableKey
from ..storage.fs import FileSystem
from ..storage.io_stats import CAT_GET, CAT_OPEN, CAT_SCAN
from .block import ParsedBlock, parse_block_raw
from .filter_block import MODE_BLOCK, Filter, deserialize_filter
from .format import (
    BLOCK_TRAILER_SIZE,
    FOOTER_SIZE,
    Footer,
    check_block_trailer,
    unwrap_block,
)
from .index import IndexBlock, IndexEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..cache.block_cache import BlockCache
    from .section_writer import TableInfo

#: Concurrent dirty-block reads when several blocks are fetched at once
#: (Algorithm 3's "read these dirty blocks concurrently using
#: multi-threads"): the issuers the device's parallel-read makespan sees.
DIRTY_BLOCK_READ_PARALLELISM = 8


@dataclass(frozen=True)
class TableMeta:
    """One consistent generation of a table's metadata.

    Block Compaction appends a new section in place and then republishes
    the footer/index/filter as a unit: bundling them in one frozen object
    swapped by a single attribute store keeps lock-free readers from ever
    seeing a new index paired with an old filter (or vice versa) mid-
    :meth:`TableReader.reload`.  A reader that grabbed the old meta keeps
    working — the old blocks are still physically present in the file.
    """

    footer: Footer
    index: IndexBlock
    filter: Filter | None
    file_size: int


class TableReader:
    """Open handle on one SSTable file."""

    def __init__(
        self,
        fs: FileSystem,
        name: str,
        file_number: int,
        load_category: str = CAT_OPEN,
        built: "TableInfo | None" = None,
    ):
        self._fs = fs
        self.name = name
        self.file_number = file_number
        #: Where metadata-load I/O is charged.  Tables opened eagerly right
        #: after a compaction/flush built them (LevelDB's usability check)
        #: charge that background category; lazily opened tables charge the
        #: foreground ``open`` category.
        self._load_category = load_category
        self._handle = fs.open_random(name, category=load_category)
        # Pin count guarded by its own lock: superversions and iterators on
        # the lock-free read path acquire/release from reader threads while
        # the table cache may evict from the background worker.
        self._ref_lock = threading.Lock()
        self._refs = 0
        self._close_pending = False
        self._meta = self._load_metadata(built)

    def _load_metadata(self, built: "TableInfo | None" = None) -> TableMeta:
        """Load the latest footer, index, and filter as one generation.

        ``built`` is what the section writer returned for the section it
        just finished in this file (module docstring).  The footer, index
        and filter reads are issued and charged the same with or without
        it; when the footer read back is the writer's, byte for byte, the
        two blocks are checksummed and the writer's objects adopted in
        place of a decode.  They are never mutated afterwards — an append
        that absorbs keys works on a copy of the filter.
        """
        cat = self._load_category
        size = self._handle.size()
        if size < FOOTER_SIZE:
            raise CorruptionError(f"table {self.name!r} shorter than a footer")
        footer_raw = self._handle.read(size - FOOTER_SIZE, FOOTER_SIZE, category=cat)
        footer = Footer.deserialize(footer_raw)
        adopt = built is not None and footer_raw == built.footer_bytes

        idx = footer.index_handle
        raw = self._handle.read(idx.offset, idx.size + BLOCK_TRAILER_SIZE, category=cat)
        if adopt:
            check_block_trailer(raw)
            index = built.index
        else:
            index = IndexBlock.deserialize(unwrap_block(raw))

        filter_: Filter | None = None
        flt = footer.filter_handle
        if not flt.is_null():
            raw = self._handle.read(flt.offset, flt.size + BLOCK_TRAILER_SIZE, category=cat)
            if adopt:
                check_block_trailer(raw)
                filter_ = built.filter
            else:
                filter_ = deserialize_filter(unwrap_block(raw))
        return TableMeta(footer=footer, index=index, filter=filter_, file_size=size)

    def reload(self, built: "TableInfo | None" = None) -> None:
        """Re-read metadata after an in-place append (Block Compaction);
        ``built`` as for :meth:`_load_metadata`.

        The new generation is built fully before the single ``_meta`` store
        publishes it, so concurrent readers see either the old or the new
        footer/index/filter set — never a mix.
        """
        self._meta = self._load_metadata(built)

    # -- basic accessors -----------------------------------------------------

    @property
    def meta(self) -> TableMeta:
        """The current metadata generation; grab once per lookup for a
        self-consistent footer/index/filter view."""
        return self._meta

    @property
    def footer(self) -> Footer:
        return self._meta.footer

    @property
    def index(self) -> IndexBlock:
        return self._meta.index

    @property
    def filter(self) -> Filter | None:
        return self._meta.filter

    @property
    def file_size(self) -> int:
        return self._meta.file_size

    @property
    def num_entries(self) -> int:
        return self._meta.footer.num_entries

    @property
    def valid_bytes(self) -> int:
        return self._meta.footer.valid_data_bytes

    def smallest_key(self) -> bytes | None:
        return self._meta.index.smallest_key()

    def largest_key(self) -> bytes | None:
        return self._meta.index.largest_key()

    def metadata_memory_bytes(self) -> tuple[int, int]:
        """(index bytes, filter bytes) resident while this table is open —
        the table-cache memory the paper measures in Fig 15."""
        meta = self._meta
        index_bytes = meta.index.memory_bytes()
        filter_bytes = meta.filter.memory_bytes() if meta.filter is not None else 0
        return index_bytes, filter_bytes

    # -- block access ----------------------------------------------------------

    def read_block(
        self,
        entry: IndexEntry,
        category: str,
        block_cache: "BlockCache | None" = None,
        sequential: bool = False,
        lazy: bool = True,
        after: IndexEntry | None = None,
    ) -> ParsedBlock:
        """Fetch one data block, through the block cache when given.

        A miss is charged by *physical contiguity*.  ``after`` is the block
        the caller's stream fetched just before this one: a block that
        starts where that one ended continues a sequential read (freshly
        table-compacted files are fully contiguous), while a jump — a
        stream's first block, or a block scattered by earlier Block
        Compactions — pays a random read.  This is exactly the range-scan
        penalty of block reuse the paper discusses (Section IV).
        ``sequential`` declares the read sequential outright (a
        compaction's whole-file pass).

        ``lazy`` picks the form a miss caches.  A point lookup takes the
        default, a ``DeferredBlock``: the checksummed raw bytes, which the
        lookup walks to its one key and whose next touch decodes them and
        swaps the result into the cache entry given as ``home``.  A caller
        about to drain every entry — a scan, :meth:`entry_blocks` — asks
        for the eager ``DataBlock``.  A hit returns whichever form the
        cache holds, unchecked; both charge the payload size.
        """
        if block_cache is not None:
            cached = block_cache.get(self.file_number, entry.offset)
            if cached is not None:
                return cached
        raw = self._handle.read(
            entry.offset,
            entry.size + BLOCK_TRAILER_SIZE,
            category=category,
            sequential=sequential
            or (
                after is not None
                and entry.offset == after.offset + after.size + BLOCK_TRAILER_SIZE
            ),
        )
        block = parse_block_raw(raw, lazy=lazy)
        if block_cache is not None:
            if lazy:
                block.home = (block_cache.promote, self.file_number, entry.offset)
            block_cache.insert(self.file_number, entry.offset, block)
        return block

    def read_user_keys(self, entries: list[IndexEntry], *, category: str) -> list[bytes]:
        """The user keys of several blocks, in order — a filter rebuild's
        input.  Fetched and charged as :meth:`read_blocks_raw`, then
        checksummed; the values are never decoded."""
        raws = self.read_blocks_raw(entries, category=category)
        keys: list[bytes] = []
        for raw in raws:
            keys += parse_block_raw(raw, lazy=True).user_keys()
        return keys

    def read_blocks_raw(self, entries: list[IndexEntry], *, category: str) -> list[bytes]:
        """Fetch several blocks' *raw stored bytes* (payload + trailer) as
        overlapping random reads — Algorithm 3's multi-threaded dirty-block
        fetch, charged with the device's internal-parallelism makespan.

        Block Compaction's I/O step: the raw bytes go into a merge job,
        walked in-process or shipped to an offload worker, and the walk
        verifies and decodes them.  Checksums are therefore deliberately
        *not* verified here."""
        spans = [(e.offset, e.size + BLOCK_TRAILER_SIZE) for e in entries]
        return self._handle.read_many(
            spans, category=category, concurrency=DIRTY_BLOCK_READ_PARALLELISM
        )

    # -- point lookup ------------------------------------------------------------

    def lookup(
        self,
        user_key: bytes,
        snapshot_sequence: int,
        *,
        block_cache: "BlockCache | None" = None,
        category: str = CAT_GET,
        key_hash: tuple[int, int] | None = None,
    ) -> tuple[bool, bytes | None, bool]:
        """Point lookup that also reports whether a data block was fetched
        (``touched``), the signal LevelDB's seek-compaction accounting needs:
        fruitless lookups that cost real block I/O drain the file's seek
        budget; lookups pruned by the filter or index do not.

        ``key_hash`` is the bloom hash pair of ``user_key`` when the caller
        has it — a level walk asks several tables about one key and hashes
        it once; the filter derives it when absent."""
        # One meta generation for the whole lookup: a concurrent reload()
        # must not hand us a new index with an old filter's block offsets.
        meta = self._meta
        filter_ = meta.filter
        if filter_ is not None and not filter_.may_contain(user_key, key_hash):
            return False, None, False
        entry = meta.index.find_candidate(user_key)
        if entry is None:
            return False, None, False
        # Only a block-based filter has anything to say about one block.
        if (
            filter_ is not None
            and filter_.mode == MODE_BLOCK
            and not filter_.may_contain_in_block(entry.offset, user_key, key_hash)
        ):
            return False, None, False
        block = self.read_block(entry, category, block_cache)
        found, value = block.get(user_key, snapshot_sequence)
        return found, value, True

    # -- scans ----------------------------------------------------------------------

    def entry_blocks(
        self,
        seek: ComparableKey | None = None,
        *,
        category: str = CAT_SCAN,
        block_cache: "BlockCache | None" = None,
        sequential: bool = False,
    ) -> Iterator[Iterable[tuple[ComparableKey, bytes]]]:
        """Yield one ready-to-drain entry iterator per data block.

        This is the block-granular form of :meth:`entries_from`: each yield
        is a C-level iterator (a ``zip`` over the decoded entry lists) for
        one block, produced lazily so blocks are only read when the consumer
        reaches them.  Pipelines flatten these with
        ``itertools.chain.from_iterable`` and then pay no Python-frame
        resume per row — only one per block.

        Follows the index order (the logical sort), reading each valid block
        as needed, eagerly decoded; reads are charged as :meth:`read_block`
        describes.  (A ``DB`` scan does not come through here: its stream
        spans the files of a level,
        :meth:`repro.core.superversion.SuperVersion.level_blocks`.)
        """
        index = self._meta.index
        start = 0
        if seek is not None:
            start = index.first_overlapping(seek[0])
        entries = index.entries
        previous: IndexEntry | None = None
        for i in range(start, len(entries)):
            entry = entries[i]
            block = self.read_block(entry, category, block_cache, sequential, False, previous)
            previous = entry
            if seek is not None and i == start:
                yield block.entries_from(seek)
            else:
                yield block.entries()

    def entries_from(
        self,
        seek: ComparableKey | None = None,
        *,
        category: str = CAT_SCAN,
        block_cache: "BlockCache | None" = None,
        sequential: bool = False,
    ) -> Iterator[tuple[ComparableKey, bytes]]:
        """Iterate entries in internal-key order starting at ``seek``.

        A flattened view over :meth:`entry_blocks`; see there for read
        charging.  The chain keeps per-entry iteration at C level.
        """
        return chain.from_iterable(
            self.entry_blocks(
                seek, category=category, block_cache=block_cache, sequential=sequential
            )
        )

    # -- lifetime ---------------------------------------------------------------

    def acquire(self) -> None:
        """Pin this reader open (long-lived iterators and superversions hold
        a pin so a table cache eviction cannot close the file under them)."""
        with self._ref_lock:
            self._refs += 1

    def release(self) -> None:
        """Drop a pin; performs any close deferred while pinned."""
        with self._ref_lock:
            if self._refs <= 0:
                raise RuntimeError("release without matching acquire")
            self._refs -= 1
            do_close = self._refs == 0 and self._close_pending
        if do_close:
            self._handle.close()

    def close(self) -> None:
        with self._ref_lock:
            if self._refs > 0:
                self._close_pending = True
                return
        self._handle.close()
