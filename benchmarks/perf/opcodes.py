"""Deterministic CPU metric: the bytecodes one engine call executes, and
the Python frames it enters.

Wall-clock numbers on a shared host swing 2x between back-to-back runs;
the number of Python bytecodes a call executes does not move at all, nor
does the number of frames it enters.  This script counts both in one trace
(``sys.settrace`` with ``frame.f_trace_opcodes``: every ``opcode`` event is
a bytecode, every ``call`` event a frame, the row's own function and each
generator resumption included; the counts are per thread and exclude time
spent inside C) for the engine's default-path operations and for each
micro path beside its frozen reference, and prints one line per path, the
bytecodes and then the frames:

======================  ====================================================
put                     a lone ``db.put`` into a memtable with room
get_memtable            ``db.get`` of a key still in the memtable
get_cached              ``db.get`` answered from a cached block
get_cold                ``db.get`` that reads one block from the device
scan_20                 ``db.scan(start, None, 20)``, blocks cached
scan_seek_50            ``db.scan(start, None, 50)`` into the middle of a
                        sorted level of >= 256 files, blocks cached
scan_seek_50_linear     the same through ``oracle.reference.scan_linear``:
                        a linear level seek, a generator per file
multi_get_8             ``db.multi_get`` of 8 keys, blocks cached
get_absent              ``db.get`` of a key in the stored range that no
                        filter admits: the walk, one negative filter check
get_cached_tree         ``db.get`` answered from a cached block at the
                        deepest level of the load left uncompacted (memtable,
                        L0, two sorted levels), as the e2e reads pay it
get_cached_tree_linear  the same through ``oracle.reference.get_linear``
multi_get_8_linear      the same through ``oracle.reference.multi_get_linear``
multi_get_64            ``db.multi_get`` of 64 keys, blocks cached
table_build             one 64 KiB output table of 60 merged entries written
                        by ``build_output_tables``, simulated writes included
write_batch_8           a ``WriteBatch`` of 8 puts built and written by one
                        ``db.write`` into an empty store's memtable
varint                  1 000 varint encode + decode round trips
block_encode            200 entries cut into two blocks by the run loop
block_decode            ``DataBlock.parse`` of those two blocks
block_decode_raw        the zero-copy open of the two stored blocks
merge_visible           ``merge_visible`` over six sources of 300 entries
compaction_merge        ``merge_live`` over two sources of 900
catalog_apply           20 compaction commits and back on a 90-file level
section_finish_open     a section written, opened, appended to, reopened
memtable_fill           2 000 shuffled adds to an empty ``MemTable``
``*_reference``         each row above through its ``oracle.reference`` arm
                        on the same corpus
table_build_reference   ``table_build``'s entries through
                        ``oracle.reference.build_table_bytes``
get_sweep               50 gets on a compacted 400-key tree, blocks cached
get_sweep_traced        the same with tracing and latency histograms on
get_second_touch        ``db.get`` of a block that an earlier get (run
                        outside the count) read and left undecoded: the
                        whole-block decode the block's second use pays
load                    a 6 000-put shuffled load into an empty store,
                        every flush and compaction it triggers included
======================  ====================================================

Each path is called five times and the **third** call is the one counted:
the first two absorb one-time work (a table opened, a block cached, a
``struct`` format compiled); the last two run uncounted, so that the
stores later rows use are as they always were.  The
``load`` row is counted once, on a store of its own (a load from empty is
deterministic, and at ~40 M bytecodes one count takes seconds):
``measure(load=False)`` leaves it out.  The row pairs (``X`` and
``X_reference``, ``get_sweep`` and ``get_sweep_traced``) run on corpora
of their own, each counted in well under a second; the tier-1 tests bound
each ``X`` at a share of its ``X_reference``.  All the other rows
but the seeked scans run on a 3 000-key store in the end-to-end benchmark's
geometry (``options_for("BlockDB", ...)``: 64 KiB tables, 4 KiB blocks, 32 B
keys, 1 KiB values, cache = 10 % of the data), loaded in a seeded shuffle
and compacted into one level — the ``*_tree`` rows on a second copy of it
left as the load built it; the seeked scans on :func:`seek_store`.
Rows are added at the end, so that a row's count does not depend on which
rows exist (a get before a scan moves the scan's count by two).  Seek compaction is off in
both, so no call is the one that happens to pay for a reorganisation.

Counts compare two versions of this program under one interpreter (3.11
and 3.12 compile the same source to different bytecode); they say nothing
about waiting, C time or the GIL.  Frames are the second column because a
call costs far more wall time than a bytecode: on the put path, a change
that took 20 % of the bytecodes and half the frames took 16.5 % off the
median put latency of the end-to-end ``load_random`` workload.  A perf or
simplicity PR quotes this table, parent -> change, in its CHANGES.md line.

Usage::

    python benchmarks/perf/opcodes.py            # the table
    python benchmarks/perf/opcodes.py --json     # one JSON object: each row's
                                                 # bytecodes, and "frames"
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT, ROOT / "src"):  # the oracle package, the engine
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

STORE_KEYS = 3000
VALUE_SIZE = 1024
#: Merged entries in the ``table_build`` row's one output table.
TABLE_BUILD_ENTRIES = 60
#: Puts in the ``load`` row.
LOAD_PUTS = 6000
CALLS = 5
COUNTED_CALL = 2  # the third
#: Files the seeked-scan store must have on its one populated level.
SEEK_STORE_MIN_FILES = 256
#: Corpus sizes of the fast/reference row pairs.
VARINT_VALUES = 1000
BLOCK_ENTRIES = 200
ENTRIES_PER_BLOCK = 100  # ~ a 4 KiB block of 100-byte entries
MERGE_PER_SOURCE = 300
CATALOG_CHILDREN = 90
MEMTABLE_FILL_KEYS = 2000
SWEEP_KEYS = 400
SWEEP_GETS = 50


class Count(NamedTuple):
    """One row's counts: bytecodes executed and Python frames entered."""

    bytecodes: int
    frames: int


def count_opcodes(fn: Callable[[], object]) -> Count:
    """Bytecodes executed by ``fn()`` on this thread, and the Python frames
    it entered (``fn``'s own and every one it called: the ``call`` events
    of the same trace).  Any trace function already installed (a
    debugger, coverage) is put back afterwards.  The cyclic collector is
    paused while ``fn`` runs: a collection its allocations happened to
    trigger would run every ``gc.callbacks`` entry (hypothesis installs a
    Python one) on this thread, so the count would depend on the heap that
    earlier code left behind."""
    count = 0
    frames = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        nonlocal frames
        frames += 1
        frame.f_trace_opcodes = True
        return on_opcode

    previous = sys.gettrace()
    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return Count(count, frames)


# Python 3.12 reports no event to the first trace function a process
# installs: install one here, so that no count is the first.
count_opcodes(lambda: None)


def third_of_five(make_call: Callable[[int], Callable[[], object]]) -> Count:
    """Run ``make_call(i)()`` for ``i`` in 0..4 and count the third."""
    count = Count(0, 0)
    for i in range(CALLS):
        if i == COUNTED_CALL:
            count = count_opcodes(make_call(i))
        else:
            make_call(i)()
    return count


def _options():
    """The end-to-end benchmark's geometry, cache = 10 % of the store."""
    from repro.experiments.config import DEFAULT_SCALE, options_for

    return options_for(
        "BlockDB",
        DEFAULT_SCALE,
        STORE_KEYS * VALUE_SIZE // 10,
        enable_seek_compaction=False,
    )


def _benchmark_store(compacted: bool = True):
    """The warm store of the module docstring, and its keys in key order.
    ``compacted=False`` leaves the tree as the load built it: entries in the
    memtable, an L0 file, two or more sorted levels."""
    from repro import DB, SimulatedFS
    from repro.ycsb import make_key, make_value

    options = _options()
    db = DB(SimulatedFS(), options)
    keys = [make_key(ordinal, 32) for ordinal in range(STORE_KEYS)]
    order = list(range(STORE_KEYS))
    random.Random(20220509).shuffle(order)
    for ordinal in order:
        db.put(keys[ordinal], make_value(ordinal, 0, VALUE_SIZE))
    if compacted:
        db.compact_all()
    db.scan()  # every table open; the cache ends up holding the tail of the key space
    return db, keys


def seek_store():
    """``(db, keys)`` for seeked short scans: 10 000 keys (100 B values) in
    one sorted level of >= 256 files of 512 B blocks, so a ``limit=50`` scan
    crosses ~14 blocks and a file boundary or two, as the e2e
    ``scan_short_rh`` scans do.  The cache holds the whole store (a miss
    would only dilute a comparison of paths); seek compaction is off."""
    from repro.core.db import DB
    from repro.options import Options
    from repro.storage.fs import SimulatedFS

    options = Options(
        block_size=512,
        sstable_size=4096,
        memtable_size=4096,
        max_levels=4,
        block_cache_capacity=4 * 1024 * 1024,
        enable_seek_compaction=False,
    )
    db = DB(SimulatedFS(), options)
    keys = [b"user%019d" % i for i in range(10_000)]
    value = b"x" * 100
    for key in keys:
        db.put(key, value)
    db.compact_all()
    files = db.num_files_per_level()
    if max(files) < SEEK_STORE_MIN_FILES or sum(1 for n in files if n) != 1:
        raise AssertionError(
            f"seek store is not one level of >= {SEEK_STORE_MIN_FILES} files: {files}"
        )
    return db, keys


def _deepest_key(db, keys: list[bytes]) -> bytes:
    """The first key (in key order) that a get finds at the deepest
    populated level after asking a file at every populated level above it
    — the walk the end-to-end read workloads pay.  Every key was put once,
    so the level that holds it is the only place it is."""
    files = db.num_files_per_level()
    populated = [level for level in range(1, len(files)) if files[level]]
    if not files[0] or len(populated) < 2 or not len(db._memtable):
        raise AssertionError(f"tree store is not memtable + L0 + two sorted levels: {files}")
    sequence = db.last_sequence
    for key in keys:
        metas = [db.version.file_for_key(level, key) for level in populated]
        if not all(metas) or not any(
            f.smallest_user_key <= key <= f.largest_user_key for f in db.version.files_at(0)
        ):
            continue
        deepest = metas[-1]
        reader = db.table_cache.get(deepest.file_number, deepest.file_name())
        if reader.lookup(key, sequence)[0]:
            return key
    raise AssertionError("no key sits under a file of every level")


class _OutputEnv:
    """The slice of a compaction env ``build_output_tables`` uses: a device
    of its own and the e2e options."""

    def __init__(self):
        from repro import SimulatedFS

        self.fs = SimulatedFS()
        self.options = _options()
        self._numbers = iter(range(1, 1 << 30))

    def new_file_number(self) -> int:
        return next(self._numbers)


def table_build_entries() -> list[tuple[bytes, bytes]]:
    """The ``table_build`` row's entries as (internal key, value), in order:
    32 B keys, 1 KiB values, ~62 KiB in all."""
    from repro.keys import TYPE_VALUE, make_internal_key
    from repro.ycsb import make_key, make_value

    return [
        (make_internal_key(make_key(ordinal, 32), 1000 + ordinal, TYPE_VALUE),
         make_value(ordinal, 0, VALUE_SIZE))
        for ordinal in range(TABLE_BUILD_ENTRIES)
    ]


def _table_build_path() -> Callable[[int], Callable[[], object]]:
    """The ``table_build`` row: each call writes the merged entries through
    ``build_output_tables`` into a fresh device, and must get one table."""
    from repro.compaction.base import merge_live
    from repro.compaction.table_compaction import build_output_tables
    from repro.keys import comparable_from_internal

    source = [(comparable_from_internal(key), value) for key, value in table_build_entries()]
    merged = list(merge_live([iter(source)], lambda _k: False))
    envs = [_OutputEnv() for _ in range(CALLS)]

    def make_call(i: int) -> Callable[[], object]:
        def call():
            outputs = build_output_tables(envs[i], iter(merged), 1)
            if len(outputs) != 1:
                raise AssertionError(f"table_build wrote {len(outputs)} tables, not one")

        return call

    return make_call


def _write_batch_path(db) -> Callable[[int], Callable[[], object]]:
    """The ``write_batch_8`` row: each call builds a batch of 8 fresh puts
    and writes it to ``db``."""
    from repro import WriteBatch
    from repro.ycsb import make_key, make_value

    keys = [[make_key(8 * i + j, 32) for j in range(8)] for i in range(CALLS)]
    value = make_value(0, 0, VALUE_SIZE)

    def make_call(i: int) -> Callable[[], object]:
        def call():
            batch = WriteBatch()
            for key in keys[i]:
                batch.put(key, value)
            db.write(batch)

        return call

    return make_call


def _table_build_reference() -> Callable[[int], Callable[[], object]]:
    """The ``table_build_reference`` row: the same file, built from the same
    entries by ``oracle.reference.build_table_bytes``'s per-entry path."""
    from oracle import reference
    from repro.sstable.block_builder import RESTART_INTERVAL

    entries = table_build_entries()
    options = _options()
    return lambda i: lambda: reference.build_table_bytes(
        entries, block_size=options.block_size, restart_interval=RESTART_INTERVAL,
        bits_per_key=options.bloom_bits_per_key,
        reserved_fraction=options.bloom_reserved_fraction(1),
    )


# ------------------------------------------------- fast/reference row pairs
#
# Each pair runs one corpus through an engine path and through the frozen
# implementation it replaced (``oracle.reference``; the traced get's
# reference is the same get with tracing off).


def _pair(name: str, fast: Callable[[], object], reference: Callable[[], object]):
    """Rows ``name`` and ``name_reference``, whose every call is the same."""
    return {name: lambda i: fast, f"{name}_reference": lambda i: reference}


def _codec_pairs():
    """Varints mixed as the engine writes them (1-byte entry headers, 2-byte
    index geometry, the odd file size); blocks cut by hand every
    ``ENTRIES_PER_BLOCK`` entries, and opened without a payload copy."""
    from oracle import reference
    from repro import encoding
    from repro.keys import TYPE_VALUE, comparable_from_internal, make_internal_key
    from repro.sstable.block import DataBlock, parse_block_raw
    from repro.sstable.block_builder import RESTART_INTERVAL, BlockCutter
    from repro.sstable.format import BLOCK_TRAILER_SIZE, unwrap_block

    rng = random.Random(11)
    integers = (
        [rng.randrange(0, 0x80) for _ in range(7000)]
        + [rng.randrange(0x80, 0x4000) for _ in range(2500)]
        + [rng.randrange(0x4000, 1 << 28) for _ in range(500)]
    )
    rng.shuffle(integers)
    integers = integers[:VARINT_VALUES]

    def roundtrips(encode, decode):
        def call():
            for value in integers:
                decode(encode(value), 0)

        return call

    rng = random.Random(5)
    entries = [
        (make_internal_key(b"user%019d" % (i * 3), BLOCK_ENTRIES - i, TYPE_VALUE),
         rng.randbytes(64))
        for i in range(BLOCK_ENTRIES)
    ]
    starts = range(0, BLOCK_ENTRIES, ENTRIES_PER_BLOCK)
    # The engine's writers hand the run loop the merges' comparable form.
    comparable = [(comparable_from_internal(key), value) for key, value in entries]
    raws: list[bytes] = []

    def encode():
        raws.clear()
        cutter = BlockCutter(1 << 62, RESTART_INTERVAL, lambda raw, *_: raws.append(raw))
        for start in starts:
            cutter.add_run(comparable[start : start + ENTRIES_PER_BLOCK])
            cutter.cut()

    def encode_reference():
        builder = reference.ReferenceBlockBuilder(RESTART_INTERVAL)
        for start in starts:
            builder.reset()
            for key, value in entries[start : start + ENTRIES_PER_BLOCK]:
                builder.add(key, value)
            builder.finish()

    encode()
    payloads = [raw[:-BLOCK_TRAILER_SIZE] for raw in raws]

    def each(fn, items):
        def call():
            for item in items:
                fn(item)

        return call

    def open_raw():
        for raw in raws:
            parse_block_raw(raw, lazy=True)

    def open_raw_reference():
        for raw in raws:
            reference.LazyDataBlock(unwrap_block(raw))

    return {
        **_pair(
            "varint",
            roundtrips(encoding.encode_varint, encoding.decode_varint),
            roundtrips(reference.encode_varint, reference.decode_varint),
        ),
        **_pair("block_encode", encode, encode_reference),
        **_pair("block_decode", each(DataBlock.parse, payloads),
                each(reference.parse_block, payloads)),
        **_pair("block_decode_raw", open_raw, open_raw_reference),
    }


def _merge_pairs():
    """The read and scan merge over six sources, and the compaction merge
    over two (a parent slice against one child table, its common shape):
    keys disjointly interleaved, 10 % tombstones."""
    from oracle import reference
    from repro.compaction.base import merge_live
    from repro.core.merge import merge_visible
    from repro.keys import MAX_SEQUENCE, TYPE_DELETION, TYPE_VALUE, comparable_key

    def sources(count: int, per_source: int):
        rng = random.Random(17)
        sequence = iter(range(1, 1 << 30))
        return [
            [
                (comparable_key(b"user%019d" % (i * count + s), next(sequence),
                                TYPE_DELETION if rng.random() < 0.1 else TYPE_VALUE),
                 b"v" * 32)
                for i in range(per_source)
            ]
            for s in range(count)
        ]

    def drain(merge, inputs, *args):
        def call():
            for _ in merge([iter(s) for s in inputs], *args):
                pass

        return call

    six, two = sources(6, MERGE_PER_SOURCE), sources(2, 3 * MERGE_PER_SOURCE)
    keep_all = lambda _k: True  # noqa: E731
    return {
        **_pair("merge_visible", drain(merge_visible, six, MAX_SEQUENCE),
                drain(reference.merge_visible, six, MAX_SEQUENCE)),
        **_pair("compaction_merge", drain(merge_live, two, keep_all),
                drain(reference.merge_live, two, keep_all)),
    }


def _catalog_pair():
    """Edits and the picker's child lookup on a tree of ``CATALOG_CHILDREN``
    files at level 3 and a parent over each ninth at level 2: a selective
    compaction per parent (it retires; two children grow in place, a third
    splits in two), then each inverse, so a pass restores the catalog."""
    from oracle import reference
    from repro.core.version import FileMetadata, Version, VersionEdit
    from repro.keys import TYPE_VALUE, make_internal_key

    def meta(number, lo, hi, size=65536, valid=65536, appends=0):
        return FileMetadata(
            file_number=number, file_size=size, valid_bytes=valid, num_entries=60,
            smallest=make_internal_key(b"user%019d" % lo, 9, TYPE_VALUE),
            largest=make_internal_key(b"user%019d" % hi, 9, TYPE_VALUE),
            append_count=appends,
        )

    # Child i owns [100i + 10, 100i + 90]: a gap on either side to grow into.
    child = [meta(1000 + i, 100 * i + 10, 100 * i + 90) for i in range(CATALOG_CHILDREN)]
    parent = [meta(10 + j, 900 * j + 5, 900 * j + 295) for j in range(CATALOG_CHILDREN // 9)]
    setup = VersionEdit(new_files=[(3, f) for f in child] + [(2, f) for f in parent])
    forward, backward = [], []
    for j, retired in enumerate(parent):
        a, b, c = child[9 * j : 9 * j + 3]
        low = 100 * (9 * j + 2)
        grown = [
            meta(f.file_number, 100 * (9 * j + k) + 5, 100 * (9 * j + k) + 95,
                 size=70000, valid=60000, appends=1)
            for k, f in enumerate((a, b))
        ]
        halves = [
            meta(5000 + 2 * j, low + 10, low + 50, size=33000, valid=33000),
            meta(5001 + 2 * j, low + 51, low + 90, size=33000, valid=33000),
        ]
        lookup = (retired.smallest_user_key, retired.largest_user_key)
        forward.append((VersionEdit(
            deleted_files=[(2, retired.file_number), (3, c.file_number)],
            updated_files=[(3, f) for f in grown],
            new_files=[(3, f) for f in halves],
        ), lookup))
        backward.append((VersionEdit(
            deleted_files=[(3, f.file_number) for f in halves],
            updated_files=[(3, a), (3, b)],
            new_files=[(2, retired), (3, c)],
        ), lookup))
    cycle = forward + backward[::-1]

    def cycle_through(version):
        version.apply(setup)

        def call():
            for edit, (lo, hi) in cycle:
                version.apply(edit)
                version.overlapping_files(3, lo, hi)

        return call

    fast, slow = cycle_through(Version(5)), cycle_through(reference.ReferenceVersion(5))
    return _pair("catalog_apply", fast, slow)


def _section_pair():
    """Write a section, then open it, as every flush and compaction output
    does: a 64-entry table of 16 blocks built, finished and opened, then 12
    of its blocks reused, 4 entries appended, finished and reloaded.  The
    reference arm decodes the index and filter the writer hands over."""
    from repro.keys import TYPE_VALUE, comparable_key
    from repro.sstable import AppendSession, TableBuilder, TableReader
    from repro.storage.fs import SimulatedFS

    options = _options()  # 4 KiB blocks: four 1 KiB entries to a block
    rng = random.Random(11)
    built = [
        (comparable_key(b"user%028d" % (i * 10), 1000 + i, TYPE_VALUE), rng.randbytes(1024))
        for i in range(64)
    ]
    added = [
        (comparable_key(b"user%028d" % (10_000 + i), 2000 + i, TYPE_VALUE), rng.randbytes(1024))
        for i in range(4)
    ]

    def write_and_open(hand_over: bool):
        def call():
            fs = SimulatedFS()
            builder = TableBuilder(fs, "000001.sst", options, level=2)
            builder.add_run(built)
            info = builder.finish()
            reader = TableReader(fs, "000001.sst", 1, "compaction", info if hand_over else None)
            session = AppendSession(fs, reader, options, level=2)
            for entry in reader.index.entries[:12]:
                session.reuse(entry)
            session.add_run(added)
            info = session.finish()
            reader.reload(info if hand_over else None)
            if (reader.index is info.index) != hand_over:
                raise AssertionError("section_finish_open: the hand-over did not happen")

        return call

    return _pair("section_finish_open", write_and_open(True), write_and_open(False))


def _memtable_pair():
    """A write buffer filled from empty, vs ``oracle.reference.SkipList`` on
    the same keys (which skips the key set and the accounting)."""
    from oracle import reference
    from repro.keys import TYPE_VALUE, comparable_key
    from repro.memtable.memtable import MemTable

    keys = [b"user%028d" % i for i in range(MEMTABLE_FILL_KEYS)]
    random.Random(23).shuffle(keys)
    value = b"v" * 16

    def fill():
        memtable = MemTable()
        for sequence, key in enumerate(keys, start=1):
            memtable.add(sequence, TYPE_VALUE, key, value)

    def fill_reference():
        table = reference.SkipList()
        for sequence, key in enumerate(keys, start=1):
            table.insert(comparable_key(key, sequence, TYPE_VALUE), value)

    return _pair("memtable_fill", fill, fill_reference)


def _traced_get_pair(dbs: list):
    """Call ``i`` gets the ``i``-th ``SWEEP_GETS`` keys of a seeded sequence
    on two identical, fully cached trees, one traced; both go into ``dbs``."""
    from repro import DB, SimulatedFS

    keys = [b"user%019d" % i for i in range(SWEEP_KEYS)]
    rng = random.Random(41)
    lookups = [rng.choice(keys) for _ in range(CALLS * SWEEP_GETS)]

    def sweep(options):
        db = DB(SimulatedFS(), options)
        dbs.append(db)
        for key in keys:
            db.put(key, b"x" * 100)
        db.compact_all()
        if db.latency is not None:
            # A zero and an hour in the get histogram: no timed get moves
            # its min or max, a branch that would tie the count to the clock.
            db.latency.record("get", 0.0)
            db.latency.record("get", 3600.0)

        def make_call(i: int) -> Callable[[], object]:
            batch = lookups[i * SWEEP_GETS : (i + 1) * SWEEP_GETS]

            def call():
                for key in batch:
                    db.get(key)

            return call

        return make_call

    return {
        "get_sweep": sweep(_options()),
        "get_sweep_traced": sweep(_options().copy(tracing=True, latency_histograms=True)),
    }


def _second_touch_path(db, keys: list[bytes]) -> Callable[[int], Callable[[], object]]:
    """Each call's key, early in the key space (long evicted) and in a
    block of its own, is read once while the call is made, so the counted
    get is the second touch of a block still held undecoded."""

    def make_call(i: int) -> Callable[[], object]:
        key = keys[150 + 97 * i]
        db.get(key)
        return lambda: db.get(key)

    return make_call


def count_reference_pairs() -> dict[str, Count]:
    """Every fast/reference row pair's counts, the fast row first."""
    dbs: list = []
    try:
        paths = {
            **_codec_pairs(), **_merge_pairs(), **_catalog_pair(), **_section_pair(),
            **_memtable_pair(), "table_build_reference": _table_build_reference(),
            **_traced_get_pair(dbs),
        }
        return {name: third_of_five(make_call) for name, make_call in paths.items()}
    finally:
        for db in dbs:
            db.close()


def count_load() -> Count:
    """Counts of the ``load`` row: ``LOAD_PUTS`` distinct keys put in a
    seeded shuffle into an empty store, flushes and compactions included."""
    from repro import DB, SimulatedFS
    from repro.ycsb import make_key, make_value

    db = DB(SimulatedFS(), _options())
    keys = [make_key(ordinal, 32) for ordinal in range(LOAD_PUTS)]
    values = [make_value(ordinal, 0, VALUE_SIZE) for ordinal in range(LOAD_PUTS)]
    order = list(range(LOAD_PUTS))
    random.Random(20220509).shuffle(order)

    def load():
        for ordinal in order:
            db.put(keys[ordinal], values[ordinal])

    try:
        return count_opcodes(load)
    finally:
        db.close()


def measure(load: bool = True) -> dict[str, Count]:
    """Every row's counts, in docstring order; ``load=False`` skips ``load``."""
    from oracle import reference
    from repro import DB, SimulatedFS

    db, keys = _benchmark_store()
    tree_db, _ = _benchmark_store(compacted=False)
    seek_db, seek_keys = seek_store()
    write_db = DB(SimulatedFS(), _options())
    value = b"v" * VALUE_SIZE
    fresh = [b"zz-new-key-%020d" % i for i in range(CALLS)]
    absent = keys[1500] + b"-absent"
    deep = _deepest_key(tree_db, keys)
    batch = [keys[2000 + 53 * j] for j in range(8)]
    batch_64 = [keys[1000 + 29 * j] for j in range(64)]
    start = seek_keys[len(seek_keys) // 2]
    paths: dict[str, Callable[[int], Callable[[], object]]] = {
        "put": lambda i: lambda: db.put(fresh[i], value),
        "get_memtable": lambda i: lambda: db.get(fresh[0]),
        "get_cached": lambda i: lambda: db.get(keys[700]),
        # Far enough apart to sit in different blocks, early enough in the
        # key space that the warm-up scan has long since evicted them.
        "get_cold": lambda i: lambda: db.get(keys[100 + 97 * i]),
        "scan_20": lambda i: lambda: db.scan(keys[1500], None, 20),
        "scan_seek_50": lambda i: lambda: seek_db.scan(start, None, 50),
        "scan_seek_50_linear": lambda i: lambda: reference.scan_linear(
            seek_db, start, None, 50
        ),
        "multi_get_8": lambda i: lambda: db.multi_get(batch),
        "get_absent": lambda i: lambda: db.get(absent),
        "get_cached_tree": lambda i: lambda: tree_db.get(deep),
        "get_cached_tree_linear": lambda i: lambda: reference.get_linear(tree_db, deep),
        "multi_get_8_linear": lambda i: lambda: reference.multi_get_linear(db, batch),
        "multi_get_64": lambda i: lambda: db.multi_get(batch_64),
        "table_build": _table_build_path(),
        "write_batch_8": _write_batch_path(write_db),
    }
    try:
        counts = {name: third_of_five(make_call) for name, make_call in paths.items()}
        if any(write_db.num_files_per_level()):
            raise AssertionError("write_batch_8 rolled its memtable over")
        counts.update(count_reference_pairs())
        counts["get_second_touch"] = third_of_five(_second_touch_path(db, keys))
        if load:
            counts["load"] = count_load()
        return counts
    finally:
        db.close()
        tree_db.close()
        seek_db.close()
        write_db.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    counts = measure()
    if args.json:
        print(json.dumps({
            **{name: count.bytecodes for name, count in counts.items()},
            "frames": {name: count.frames for name, count in counts.items()},
        }))
        return 0
    print(f"opcodes and frames per call (third of {CALLS}), python {sys.version.split()[0]}")
    for name, count in counts.items():
        print(f"  {name:<30} {count.bytecodes:>10,} {count.frames:>9,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
