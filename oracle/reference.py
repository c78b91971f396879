"""Frozen reference implementations of the engine's hot paths.

These are verbatim copies of the straightforward (pre-optimization)
implementations of the varint codec, the data-block codec, the per-entry
table build, output rotation and filter insert, the stored-block and
index-block writers, the merge/visibility stack, the LPT scheduler, the
version catalog, the scan path (linear level seek, a generator per file, a
per-entry drain), the point-read path (a skiplist seek per memtable
miss, a key hash per filter, a closure per level walk, a list of pending
keys per batch), and the ``bytearray`` file store.  They exist for two reasons:

* **Property tests** (``tests/test_property_hotpaths.py``) cross-check every
  optimized fast path against these on random inputs — including the
  corruption-raising paths — so the fast paths can never silently drift
  from the spec.
* **The perf harness** (``benchmarks/perf/``) benchmarks the optimized
  paths *against* these on the same machine in the same process, which is
  what makes the speedup numbers in ``BENCH_hotpaths.json`` reproducible
  anywhere rather than tied to one historical checkout.

It is test/benchmark collateral, so it lives in ``oracle/`` beside the
crash and chaos checkers, outside the engine package; nothing under
``src/`` may import it.  Do not "optimize" these copies — their slowness
is the point.
"""

from __future__ import annotations

import heapq
import itertools
import time
import zlib
from typing import Callable, Iterable, Iterator

from repro.errors import CorruptionError, FileSystemError, InvalidArgumentError
from repro.core.iterator import DBIterator
from repro.keys import (
    TYPE_DELETION,
    ComparableKey,
    comparable_from_internal,
    comparable_parts,
    comparable_to_internal,
    seek_comparable,
    user_key_of,
)
from repro.storage.fs import FileSystem
from repro.sstable.filter_block import MODE_TABLE
from repro.storage.io_stats import CAT_GET, CAT_SCAN

# --------------------------------------------------------------------- varints


def encode_varint(value: int) -> bytes:
    """Reference LEB128 encoder: the plain shift loop."""
    if value < 0:
        raise ValueError(f"varints encode non-negative integers, got {value}")
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def decode_varint(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Reference LEB128 decoder: one byte per loop iteration."""
    result = 0
    shift = 0
    pos = offset
    end = len(buf)
    while pos < end:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CorruptionError("varint too long (more than 64 bits)")
    raise CorruptionError("truncated varint")


def shared_prefix_len(a: bytes, b: bytes) -> int:
    """Reference common-prefix scan: byte-at-a-time."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i


# ----------------------------------------------------------------- data blocks


def decode_fixed32(buf: bytes, offset: int = 0) -> int:
    """Little-endian fixed32 decode (shared with the live implementation)."""
    import struct

    return struct.unpack_from("<I", buf, offset)[0]


def parse_block(payload: bytes) -> tuple[list[ComparableKey], list[bytes]]:
    """Reference data-block decode: per-entry ``decode_varint`` calls and
    ``bytes`` concatenation for every prefix-compressed key.

    Returns the parallel ``(keys, values)`` lists that
    :class:`repro.sstable.block.DataBlock` stores.
    """
    if len(payload) < 4:
        raise CorruptionError("data block too short")
    num_restarts = decode_fixed32(payload, len(payload) - 4)
    data_end = len(payload) - 4 - 4 * num_restarts
    if data_end < 0:
        raise CorruptionError("data block restart array overruns payload")
    keys: list[ComparableKey] = []
    values: list[bytes] = []
    offset = 0
    prev_key = b""
    while offset < data_end:
        shared, offset = decode_varint(payload, offset)
        non_shared, offset = decode_varint(payload, offset)
        value_len, offset = decode_varint(payload, offset)
        if shared > len(prev_key):
            raise CorruptionError("prefix-compressed key shares more than previous key")
        key_end = offset + non_shared
        value_end = key_end + value_len
        if value_end > data_end:
            raise CorruptionError("data block entry overruns payload")
        key = prev_key[:shared] + payload[offset:key_end]
        keys.append(comparable_from_internal(key))
        values.append(payload[key_end:value_end])
        prev_key = key
        offset = value_end
    return keys, values


class ReferenceBlockBuilder:
    """Reference block encoder: per-field ``encode_varint`` concatenation."""

    def __init__(self, restart_interval: int = 16):
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self._restart_interval = restart_interval
        self.reset()

    def reset(self) -> None:
        self._buf = bytearray()
        self._restarts: list[int] = [0]
        self._count_since_restart = 0
        self._last_key = b""
        self.num_entries = 0

    def add(self, key: bytes, value: bytes) -> None:
        """Append one entry, prefix-compressing against the previous key."""
        if self.num_entries > 0 and key == self._last_key:
            raise ValueError("duplicate key added to block")
        if self._count_since_restart >= self._restart_interval:
            self._restarts.append(len(self._buf))
            self._count_since_restart = 0
            shared = 0
        else:
            shared = shared_prefix_len(self._last_key, key)
        non_shared = key[shared:]
        self._buf += encode_varint(shared)
        self._buf += encode_varint(len(non_shared))
        self._buf += encode_varint(len(value))
        self._buf += non_shared
        self._buf += value
        self._last_key = key
        self._count_since_restart += 1
        self.num_entries += 1

    def current_size_estimate(self) -> int:
        return len(self._buf) + 4 * len(self._restarts) + 4

    def finish(self) -> bytes:
        import struct

        out = bytearray(self._buf)
        for offset in self._restarts:
            out += struct.pack("<I", offset)
        out += struct.pack("<I", len(self._restarts))
        return bytes(out)


def stored_block(payload: bytes) -> bytes:
    """Reference stored form of an uncompressed block: the payload, copied,
    then its type byte and the masked CRC of the whole payload — what
    ``BlockCutter.cut`` produced as ``wrap_block(BlockBuilder.finish())``
    before it assembled the block with one join and a running CRC."""
    import struct
    import zlib

    crc = zlib.crc32(payload) & 0xFFFFFFFF
    masked = (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF
    return payload + bytes([0]) + struct.pack("<I", masked)


def index_block_serialize(entries) -> bytes:
    """Reference ``IndexBlock.serialize``: the ``BufferWriter`` version,
    seven writer calls per entry (paper Fig 3 field order)."""
    from repro.encoding import BufferWriter

    writer = BufferWriter()
    writer.varint(len(entries))
    for e in entries:
        shared = shared_prefix_len(e.smallest, e.largest)
        non_shared = e.smallest[shared:]
        writer.length_prefixed(e.largest)
        writer.varint(shared)
        writer.length_prefixed(non_shared)
        writer.varint(e.size)
        writer.varint(e.offset)
        writer.varint(e.num_entries)
    return writer.getvalue()


# ------------------------------------------------------ filters and table build


def bloom_add(flt, key: bytes) -> None:
    """Reference single-key filter insert (``BloomFilter.add`` before the
    bulk path): a capacity check, two salted CRCs and ``k`` probe writes
    per key, on ``flt``'s own bit array."""
    import zlib

    if flt.num_keys >= flt.capacity:
        raise OverflowError(
            f"bloom filter at capacity ({flt.capacity} keys); rebuild required"
        )
    h1 = zlib.crc32(key) & 0xFFFFFFFF
    h2 = zlib.crc32(b"\x9e\x37\x79\xb9" + key + b"\x85\xeb\xca\x6b") & 0xFFFFFFFF
    if h2 == 0:
        h2 = 0x5BD1E995
    for _ in range(flt.num_probes):
        pos = h1 % flt.num_bits
        flt._bits[pos >> 3] |= 1 << (pos & 7)
        h1 = (h1 + h2) & 0xFFFFFFFF
    flt.num_keys += 1


def build_table_bytes(
    entries: list[tuple[bytes, bytes]],
    *,
    block_size: int,
    restart_interval: int,
    bits_per_key: int,
    reserved_fraction: float,
) -> bytes:
    """Reference table build: the file ``TableBuilder`` must write for
    ``entries`` (internal key, value) under the table-filter policy.

    The per-entry path is the pre-optimization one — a full comparable-key
    order check, the block-cut rule re-deriving both user keys and the
    block's size per entry, a :class:`ReferenceBlockBuilder`, per-key
    filter inserts — over the live (unchanged) block trailer, index, filter
    blob and footer encoders.
    """
    from repro.bloom import BloomFilter, ReservedBloomFilter
    from repro.sstable.filter_block import TableFilter
    from repro.sstable.format import BLOCK_TRAILER_SIZE, BlockHandle, Footer, wrap_block
    from repro.sstable.index import IndexBlock, IndexEntry

    out = bytearray()
    index_entries: list = []
    user_keys: list[bytes] = []
    block = ReferenceBlockBuilder(restart_interval)
    first_key = last_key = None
    last_comparable = None

    def flush_block() -> None:
        """Cut the pending block: trailer, index entry, file bytes."""
        raw = wrap_block(block.finish())
        index_entries.append(
            IndexEntry(
                smallest=first_key,
                largest=last_key,
                offset=len(out),
                size=len(raw) - BLOCK_TRAILER_SIZE,
                num_entries=block.num_entries,
            )
        )
        out.extend(raw)
        block.reset()

    for internal_key, value in entries:
        comparable = comparable_from_internal(internal_key)
        if last_comparable is not None and comparable <= last_comparable:
            raise ValueError("table entries must be added in increasing internal-key order")
        user_key = user_key_of(internal_key)
        if (
            block.num_entries > 0
            and block.current_size_estimate() >= block_size
            and user_key != user_key_of(last_key)
        ):
            flush_block()
        if block.num_entries == 0:
            first_key = internal_key
        block.add(internal_key, value)
        last_key = internal_key
        user_keys.append(user_key)
        last_comparable = comparable
    if block.num_entries > 0:
        flush_block()

    filter_handle = BlockHandle(0, 0)
    if bits_per_key > 0:
        if reserved_fraction > 0:
            bloom = ReservedBloomFilter(len(user_keys), bits_per_key, reserved_fraction)
        else:
            bloom = BloomFilter(len(user_keys), bits_per_key)
        for key in user_keys:
            bloom_add(bloom, key)
        payload = TableFilter(bloom).serialize()
        filter_handle = BlockHandle(len(out), len(payload))
        out.extend(wrap_block(payload))
    index = IndexBlock(index_entries)
    payload = index.serialize()
    index_handle = BlockHandle(len(out), len(payload))
    out.extend(wrap_block(payload))
    out.extend(
        Footer(
            index_handle=index_handle,
            filter_handle=filter_handle,
            num_entries=len(entries),
            valid_data_bytes=index.total_valid_bytes(),
            section=0,
        ).serialize()
    )
    return bytes(out)


def build_output_tables_bytes(
    entries: list[tuple[bytes, bytes]],
    *,
    sstable_size: int,
    block_size: int,
    restart_interval: int,
    bits_per_key: int,
    reserved_fraction: float,
) -> list[bytes]:
    """Reference output rotation: the files a compaction must write for the
    merged ``entries`` (internal key, value), each :func:`build_table_bytes`
    of its slice.

    Entry by entry, as the per-entry compaction loop did: before an entry
    that starts a new user key, the file ends once its size estimate — the
    stored blocks so far plus the pending block's size estimate — reaches
    ``sstable_size``; otherwise the block is cut once it reaches
    ``block_size``.
    """
    from repro.sstable.format import wrap_block

    slices: list[list[tuple[bytes, bytes]]] = []
    start = 0
    offset = 0
    block = ReferenceBlockBuilder(restart_interval)
    last_user_key = None
    for i, (internal_key, value) in enumerate(entries):
        user_key = user_key_of(internal_key)
        if last_user_key is not None and user_key != last_user_key:
            if offset + block.current_size_estimate() >= sstable_size:
                slices.append(entries[start:i])
                start = i
                offset = 0
                block.reset()
            elif block.current_size_estimate() >= block_size:
                offset += len(wrap_block(block.finish()))
                block.reset()
        block.add(internal_key, value)
        last_user_key = user_key
    if start < len(entries):
        slices.append(entries[start:])
    return [
        build_table_bytes(
            slice_,
            block_size=block_size,
            restart_interval=restart_interval,
            bits_per_key=bits_per_key,
            reserved_fraction=reserved_fraction,
        )
        for slice_ in slices
    ]


# ----------------------------------------------------------------- merge stack

EntryStream = Iterable[tuple[ComparableKey, bytes]]


def merge_sorted(sources: list[EntryStream]) -> Iterator[tuple[ComparableKey, bytes]]:
    """Reference merge: :func:`heapq.merge` over the sources."""
    if len(sources) == 1:
        return iter(sources[0])
    return heapq.merge(*sources)


def visible_entries(
    merged: EntryStream, snapshot_sequence: int
) -> Iterator[tuple[bytes, bytes]]:
    """Reference visibility pass layered over an already-merged stream."""
    last_user_key: bytes | None = None
    for comparable, value in merged:
        user_key, sequence, value_type = comparable_parts(comparable)
        if sequence > snapshot_sequence:
            continue
        if user_key == last_user_key:
            continue
        last_user_key = user_key
        if value_type == TYPE_DELETION:
            continue
        yield user_key, value


def merge_visible(
    sources: list[EntryStream], snapshot_sequence: int, end: bytes | None = None
) -> Iterator[tuple[bytes, bytes]]:
    """Reference DB-iterator stack: ``heapq.merge`` + ``visible_entries`` +
    an end-bound check applied *after* visibility filtering (so invisible
    entries past the bound are still drained — the behaviour the fused merge
    improves on)."""
    for user_key, value in visible_entries(merge_sorted(sources), snapshot_sequence):
        if end is not None and user_key >= end:
            return
        yield user_key, value


def merge_keep_newest(
    sources: list[Iterator[tuple[ComparableKey, bytes]]],
    boundaries: list[int] | None = None,
) -> Iterator[tuple[ComparableKey, bytes]]:
    """Reference parent-side compaction merge (tombstones preserved)."""
    from repro.core.snapshot import VersionKeeper

    keeper = VersionKeeper(boundaries or [])
    merged = heapq.merge(*sources) if len(sources) != 1 else iter(sources[0])
    last_user_key: bytes | None = None
    for comparable, value in merged:
        user_key, sequence, _value_type = comparable_parts(comparable)
        if user_key != last_user_key:
            keeper.new_key()
            last_user_key = user_key
        if keeper.keep(sequence):
            yield comparable, value


def merge_live(
    sources: list[Iterator[tuple[ComparableKey, bytes]]],
    can_drop_tombstone: Callable[[bytes], bool],
    boundaries: list[int] | None = None,
) -> Iterator[tuple[bytes, bytes, bool]]:
    """Reference compaction merge: newest version per snapshot stratum."""
    from repro.core.snapshot import VersionKeeper

    keeper = VersionKeeper(boundaries or [])
    merged = heapq.merge(*sources) if len(sources) != 1 else iter(sources[0])
    last_user_key: bytes | None = None
    for comparable, value in merged:
        user_key, sequence, value_type = comparable_parts(comparable)
        if user_key != last_user_key:
            keeper.new_key()
            last_user_key = user_key
        if not keeper.keep(sequence):
            continue
        if value_type == TYPE_DELETION:
            if keeper.tombstone_unprotected(sequence) and can_drop_tombstone(user_key):
                continue
            yield comparable_to_internal(comparable), b"", True
        else:
            yield comparable_to_internal(comparable), value, False


# ------------------------------------------------------------------- scheduler


def lpt_makespan(durations: list[float], workers: int) -> float:
    """Reference LPT schedule: O(workers) linear scan per task."""
    if not durations:
        return 0.0
    if workers <= 1:
        return sum(durations)
    loads = [0.0] * workers
    for duration in sorted(durations, reverse=True):
        loads[loads.index(min(loads))] += duration
    return max(loads)


# --------------------------------------------------------------------- catalog


class ReferenceVersion:
    """Reference level catalog: the ``Version`` of PRs 1-17.

    ``apply`` re-sorts the whole level and re-checks every neighbour pair
    once per added or updated file, ``overlapping_files`` scans the level,
    the byte totals are sums over it — and every user-key bound is derived
    from the internal key on each read, as ``FileMetadata``'s properties
    did then (the catalog now caches them at construction).  Takes the
    live ``VersionEdit`` / ``FileMetadata`` objects.
    """

    def __init__(self, num_levels: int):
        if num_levels < 2:
            raise InvalidArgumentError("need at least 2 levels")
        self.levels: list[list] = [[] for _ in range(num_levels)]
        self.vlog: dict[int, int] = {}

    def level_valid_bytes(self, level: int) -> int:
        return sum(f.valid_bytes for f in self.levels[level])

    def level_file_bytes(self, level: int) -> int:
        return sum(f.file_size for f in self.levels[level])

    def level_obsolete_bytes(self, level: int) -> int:
        return sum(f.obsolete_bytes for f in self.levels[level])

    def overlapping_files(self, level: int, lo: bytes | None, hi: bytes | None) -> list:
        """Files at ``level`` intersecting user-key range ``[lo, hi]``."""
        return [f for f in self.levels[level] if self._overlaps_user_range(f, lo, hi)]

    @staticmethod
    def _overlaps_user_range(f, lo: bytes | None, hi: bytes | None) -> bool:
        if hi is not None and user_key_of(f.smallest) > hi:
            return False
        if lo is not None and user_key_of(f.largest) < lo:
            return False
        return True

    def apply(self, edit) -> None:
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
            if user_key_of(a.largest) >= user_key_of(b.smallest):
                raise InvalidArgumentError(
                    f"level {level} files {a.file_number} and {b.file_number} overlap: "
                    f"{user_key_of(a.largest)!r} >= {user_key_of(b.smallest)!r}"
                )


# ------------------------------------------------------------------- scan path


def level_seek_linear(files: list, user_key: bytes) -> int:
    """Reference seek into a sorted level: walk the files until one ends
    at or after ``user_key`` (``len(files)`` when none does) — what
    ``SuperVersion.seek_index`` bisects for."""
    start = 0
    while start < len(files) and files[start].largest_user_key < user_key:
        start += 1
    return start


def _file_blocks(db, level: int, meta, seek: ComparableKey | None):
    """One file's blocks for a scan, through ``TableReader.entry_blocks``:
    the reader pinned for the generator's lifetime, the file's seek charged
    on the first entry it produces."""
    reader = db.table_cache.get(meta.file_number, meta.file_name())
    reader.acquire()
    try:
        blocks = reader.entry_blocks(seek, category=CAT_SCAN, block_cache=db.block_cache)
        for block_iter in blocks:
            head = next(iter(block_iter), None)
            if head is None:
                continue
            db._charge_scan_seek(level, meta)
            yield itertools.chain((head,), block_iter)
            break
        yield from blocks
    finally:
        reader.release()


def _level_blocks(db, level: int, files: list, seek: ComparableKey | None, end: bytes | None):
    """One sorted level's blocks: the linear seek, then a generator per
    file nested in this one."""
    start = level_seek_linear(files, seek[0]) if seek is not None else 0
    for i in range(start, len(files)):
        meta = files[i]
        if end is not None and meta.smallest_user_key >= end:
            return
        yield from _file_blocks(db, level, meta, seek if i == start else None)


def scan_linear(
    db,
    start: bytes | None = None,
    end: bytes | None = None,
    limit: int | None = None,
    snapshot=None,
) -> list[tuple[bytes, bytes]]:
    """Reference ``DB.scan`` — the scan path of PRs 1-21 run against a live
    engine: the linear level seek, three nested generators per block
    (level, file, ``entry_blocks``) and a per-entry Python loop over the
    iterator.  It reads, pins, charges seeks and counts exactly as
    ``DB.scan`` does, so a differential test may demand equal results *and*
    equal ``IOStats``, ``allowed_seeks``, seek candidates and cache
    counters.  Latency histograms and the tuner are not fed."""
    flatten = itertools.chain.from_iterable
    with db._lock:
        sequence = db._resolve_snapshot(snapshot, db._sequence)
        seek = seek_comparable(start, sequence) if start is not None else None
        sv = db._superversion.ref()
        db.snapshots.pin(sequence)
        sources: list[EntryStream] = [
            sv.memtable.entries_from(seek) if seek is not None else sv.memtable.entries()
        ]
        if sv.immutable is not None:
            sources.append(
                sv.immutable.entries_from(seek) if seek is not None else sv.immutable.entries()
            )
        sources.extend(db._extra_entry_sources(seek, CAT_SCAN))
        for meta in sv.level0_newest_first:
            if end is not None and meta.smallest_user_key >= end:
                continue
            sources.append(flatten(_file_blocks(db, 0, meta, seek)))
        for level in range(1, sv.num_levels):
            if sv.file_lists[level]:
                sources.append(flatten(_level_blocks(db, level, sv.file_lists[level], seek, end)))
        db.deletion_manager.pin()
        db.stats.scans += 1
        iterator = DBIterator(
            sources,
            sequence,
            end=end,
            on_close=lambda: db._release_iterator(sv, sequence),
            resolve=db.vlog.resolve if db.vlog is not None else None,
        )
    results: list[tuple[bytes, bytes]] = []
    with iterator:
        if limit != 0:
            for key, value in iterator:
                results.append((key, value))
                if limit is not None and len(results) >= limit:
                    break
    db.stats.count_scan_entries(len(results))
    return results


# ------------------------------------------------------------- point-read path


def memtable_get_seek(memtable, user_key: bytes, snapshot_sequence: int):
    """Reference ``MemTable.get``: always a skiplist seek, also for a key
    the memtable never held (no user-key set)."""
    seek = seek_comparable(user_key, snapshot_sequence)
    for key, value in memtable._table.items_from(seek):
        found_user_key, _seq, value_type = comparable_parts(key)
        if found_user_key != user_key:
            break
        if value_type == TYPE_DELETION:
            return True, None
        return True, value
    return False, None


def bloom_may_contain(flt, key: bytes) -> bool:
    """Reference ``BloomFilter.may_contain``: the key hashed here, on every
    check (two salted CRCs), and a running masked sum per probe."""
    h1 = zlib.crc32(key) & 0xFFFFFFFF
    h2 = zlib.crc32(b"\x9e\x37\x79\xb9" + key + b"\x85\xeb\xca\x6b") & 0xFFFFFFFF
    if h2 == 0:
        h2 = 0x5BD1E995
    bits = flt._bits
    nbits = flt.num_bits
    for _ in range(flt.num_probes):
        pos = h1 % nbits
        if not bits[pos >> 3] & (1 << (pos & 7)):
            return False
        h1 = (h1 + h2) & 0xFFFFFFFF
    return True


def _filter_may_contain(filter_, user_key: bytes) -> bool:
    """``Filter.may_contain`` over :func:`bloom_may_contain`."""
    if filter_.mode == MODE_TABLE:
        return bloom_may_contain(filter_.bloom, user_key)
    return True


def _filter_may_contain_in_block(filter_, block_offset: int, user_key: bytes) -> bool:
    """``Filter.may_contain_in_block`` over :func:`bloom_may_contain`."""
    if filter_.mode == MODE_TABLE:
        return True
    bloom = filter_.per_block.get(block_offset)
    return bloom is None or bloom_may_contain(bloom, user_key)


def table_lookup(reader, user_key: bytes, snapshot_sequence: int, block_cache):
    """Reference ``TableReader.lookup``: each filter check hashes the key
    again."""
    meta = reader.meta
    if meta.filter is not None and not _filter_may_contain(meta.filter, user_key):
        return False, None, False
    entry = meta.index.find_candidate(user_key)
    if entry is None:
        return False, None, False
    if meta.filter is not None and not _filter_may_contain_in_block(
        meta.filter, entry.offset, user_key
    ):
        return False, None, False
    block = reader.read_block(entry, category=CAT_GET, block_cache=block_cache)
    found, value = block.get(user_key, snapshot_sequence)
    return found, value, True


def lookup_linear(db, sv, key: bytes, sequence: int):
    """Reference ``DB._lookup`` — the level walk of PRs 12-22: a skiplist
    seek per memtable, a ``visit`` closure per call, the reader resolved
    through ``reader_for`` and the key hashed by each filter.  Returns
    ``(value, charge)`` as ``DB._lookup`` does."""
    found, value = memtable_get_seek(sv.memtable, key, sequence)
    if not found and sv.immutable is not None:
        found, value = memtable_get_seek(sv.immutable, key, sequence)
    if found:
        return value, None

    first_miss = None
    charge = None
    table_cache = db.table_cache
    block_cache = db.block_cache

    def visit(level: int, meta):
        nonlocal first_miss, charge
        reader = sv.reader_for(meta, table_cache)
        hit, val, touched = table_lookup(reader, key, sequence, block_cache)
        if touched and not hit and first_miss is None:
            first_miss = (level, meta)
        elif (touched or hit) and first_miss is not None:
            charge = first_miss
        return hit, val

    for meta in sv.level0_newest_first:
        if meta.smallest_user_key <= key <= meta.largest_user_key:
            found, value = visit(0, meta)
            if found:
                return value, charge
    for level in range(1, sv.num_levels):
        meta = sv.file_for_key(level, key)
        if meta is not None:
            found, value = visit(level, meta)
            if found:
                return value, charge
        if db._has_extra_read_hook:
            with db._lock:
                extra = db._extra_get_after_level(level, key, sequence)
            if extra is not None and extra[0]:
                return extra[1], charge
    return None, charge


def get_linear(db, key: bytes, default: bytes | None = None, snapshot=None):
    """Reference ``DB.get``: the same shell (superversion reference,
    snapshot, value-log resolve, get counters, seek charge, latency
    histogram, tuner) around :func:`lookup_linear`.  It reads, pins,
    charges and counts exactly as ``DB.get`` does, so a differential test
    may demand equal values *and* equal ``IOStats``, ``allowed_seeks``,
    seek candidates and cache counters."""
    db._check_open()
    if not isinstance(key, (bytes, bytearray)):
        raise InvalidArgumentError("keys must be bytes")
    key = bytes(key)
    start = time.perf_counter() if db.latency is not None else 0.0
    try:
        sv, sequence = db._acquire_read()
        try:
            sequence = db._resolve_snapshot(snapshot, sequence)
            value, charge = lookup_linear(db, sv, key, sequence)
            if value is not None and db.vlog is not None:
                value = db.vlog.resolve(value)
        finally:
            sv.unref()
        db.stats.count_gets(1, 0 if value is None else 1)
        if charge is not None:
            db._charge_seeks((charge,))
        return default if value is None else value
    finally:
        if db.latency is not None:
            db._hist_get.record(time.perf_counter() - start)
        if db._tuner is not None:
            db._tuner.record_op()


def multi_get_linear(db, keys: list[bytes], snapshot=None) -> dict[bytes, bytes | None]:
    """Reference ``DB.multi_get`` — the batch walk of PRs 12-22: ``pending``
    a list (``key in pending`` and ``pending.remove`` scan it, so a batch of
    absent keys is quadratic), a ``probe`` closure and a dict of
    ``[first_miss, charged]`` lists, every sorted level asked.  Same
    contract as :func:`get_linear`."""
    db._check_open()
    checked: list[bytes] = []
    for key in keys:
        if not isinstance(key, (bytes, bytearray)):
            raise InvalidArgumentError("keys must be bytes")
        checked.append(bytes(key))
    start = time.perf_counter() if db.latency is not None else 0.0
    try:
        return _multi_get_linear(db, checked, snapshot)
    finally:
        if db.latency is not None:
            db._hist_multi_get.record(time.perf_counter() - start)
        if db._tuner is not None:
            db._tuner.record_op()


def _multi_get_linear(db, keys: list[bytes], snapshot) -> dict[bytes, bytes | None]:
    sv, sequence = db._acquire_read()
    resolved: dict[bytes, bytes | None] = {}
    charges: list = []
    try:
        sequence = db._resolve_snapshot(snapshot, sequence)
        pending: list[bytes] = []
        for key in keys:
            if key in resolved or key in pending:
                continue
            found, value = memtable_get_seek(sv.memtable, key, sequence)
            if not found and sv.immutable is not None:
                found, value = memtable_get_seek(sv.immutable, key, sequence)
            if found:
                resolved[key] = value
            else:
                pending.append(key)

        if pending:
            trackers: dict[bytes, list] = {key: [None, False] for key in pending}
            table_cache = db.table_cache
            block_cache = db.block_cache

            def probe(level, meta, reader, key):
                found, value, touched = table_lookup(reader, key, sequence, block_cache)
                tracker = trackers[key]
                if touched and not found and tracker[0] is None:
                    tracker[0] = (level, meta)
                elif (touched or found) and tracker[0] is not None and not tracker[1]:
                    tracker[1] = True
                    charges.append(tracker[0])
                return found, value

            for meta in sv.level0_newest_first:
                if not pending:
                    break
                in_range = [
                    key
                    for key in pending
                    if meta.smallest_user_key <= key <= meta.largest_user_key
                ]
                if not in_range:
                    continue
                reader = sv.reader_for(meta, table_cache)
                for key in in_range:
                    found, value = probe(0, meta, reader, key)
                    if found:
                        resolved[key] = value
                        pending.remove(key)
            for level in range(1, sv.num_levels):
                if not pending:
                    break
                by_file: dict = {}
                for key in pending:
                    meta = sv.file_for_key(level, key)
                    if meta is not None:
                        by_file.setdefault(meta.file_number, (meta, []))[1].append(key)
                for meta, file_keys in by_file.values():
                    reader = sv.reader_for(meta, table_cache)
                    for key in file_keys:
                        found, value = probe(level, meta, reader, key)
                        if found:
                            resolved[key] = value
                            pending.remove(key)
                if db._has_extra_read_hook and pending:
                    with db._lock:
                        extras = [
                            (key, db._extra_get_after_level(level, key, sequence))
                            for key in pending
                        ]
                    for key, extra in extras:
                        if extra is not None and extra[0]:
                            resolved[key] = extra[1]
                            pending.remove(key)
        if db.vlog is not None:
            for key, value in resolved.items():
                if value is not None:
                    resolved[key] = db.vlog.resolve(value)
    finally:
        sv.unref()

    out: dict[bytes, bytes | None] = {}
    found_count = 0
    for key in keys:
        value = resolved.get(key)
        if value is not None:
            found_count += 1
        out[key] = value
    db.stats.count_gets(len(keys), found_count)
    db._charge_seeks(charges)
    return out


# ------------------------------------------------------------------ file store


class ReferenceFS(FileSystem):
    """Reference in-memory filesystem: ``name -> bytearray``, the
    ``SimulatedFS`` of PRs 1-20.  An append regrows the array, a read
    copies its span out of it twice.  The accounting above the backend
    operations is the shared base class's and never changed."""

    def __init__(self) -> None:
        super().__init__()
        self._files: dict[str, bytearray] = {}

    def _create(self, name: str) -> None:
        self._files[name] = bytearray()

    def _append(self, name: str, data: bytes) -> None:
        with self._lock:
            try:
                self._files[name] += data
            except KeyError:
                raise FileSystemError(f"append to missing file {name!r}") from None

    def _read(self, name: str, offset: int, nbytes: int) -> bytes:
        with self._lock:
            try:
                buf = self._files[name]
            except KeyError:
                raise FileSystemError(f"read from missing file {name!r}") from None
            if offset < 0 or offset + nbytes > len(buf):
                raise FileSystemError(
                    f"read [{offset}, {offset + nbytes}) out of bounds for "
                    f"{name!r} of size {len(buf)}"
                )
            return bytes(buf[offset : offset + nbytes])

    def _delete(self, name: str) -> None:
        try:
            del self._files[name]
        except KeyError:
            raise FileSystemError(f"delete of missing file {name!r}") from None

    def exists(self, name: str) -> bool:
        with self._lock:
            return name in self._files

    def list_dir(self) -> list[str]:
        with self._lock:
            return sorted(self._files)

    def file_size(self, name: str) -> int:
        with self._lock:
            try:
                return len(self._files[name])
            except KeyError:
                raise FileSystemError(f"size of missing file {name!r}") from None

    def rename(self, old: str, new: str) -> None:
        with self._lock:
            try:
                self._files[new] = self._files.pop(old)
            except KeyError:
                raise FileSystemError(f"rename of missing file {old!r}") from None

    def _truncate(self, name: str, size: int) -> None:
        try:
            del self._files[name][size:]
        except KeyError:
            raise FileSystemError(f"truncate of missing file {name!r}") from None
