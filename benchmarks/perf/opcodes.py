"""Deterministic CPU metric: the bytecodes one engine call executes.

Wall-clock numbers on a shared host swing 2x between back-to-back runs;
the number of Python bytecodes a call executes does not move at all.  This
script counts them (``sys.settrace`` with ``frame.f_trace_opcodes``, so the
count is per thread and excludes time spent inside C) for the engine's
default-path operations and prints one line per path:

======================  ====================================================
put                     a lone ``db.put`` into a memtable with room
get_memtable            ``db.get`` of a key still in the memtable
get_cached              ``db.get`` answered from a cached block
get_cold                ``db.get`` that reads one block from the device
scan_20                 ``db.scan(start, None, 20)``, blocks cached
scan_seek_50            ``db.scan(start, None, 50)`` into the middle of a
                        sorted level of >= 256 files, blocks cached
scan_seek_50_linear     the same call through
                        ``oracle.reference.scan_linear`` — the linear level
                        seek, a generator per file and the per-entry loop
                        ``DB.scan`` replaced
multi_get_8             ``db.multi_get`` of 8 keys, blocks cached
get_absent              ``db.get`` of a key inside the stored range that no
                        filter admits: the level walk and one negative
                        filter check
get_cached_tree         ``db.get`` answered from a cached block at the
                        deepest level of a *tree* — the same load without
                        the ``compact_all``: entries in the memtable, an L0
                        file, two sorted levels, so the memtable miss and
                        every shallower file's filter are paid on the way
                        down, as in the end-to-end read workloads
get_cached_tree_linear  the same call through
                        ``oracle.reference.get_linear`` — a skiplist seek
                        per memtable miss, a key hash per filter, a closure
                        per walk
multi_get_8_linear      ``multi_get_8`` through
                        ``oracle.reference.multi_get_linear`` — the same,
                        with a list of pending keys
multi_get_64            ``db.multi_get`` of 64 keys, blocks cached
table_build             one 64 KiB output table written by
                        ``build_output_tables`` from 60 merged entries
                        (``merge_live``'s output form, 32 B keys, 1 KiB
                        values): the run loop, block cuts, filter, index,
                        footer and the simulated writes
load                    a 6 000-put shuffled load into an empty store,
                        every flush and compaction it triggers included
======================  ====================================================

Each path is called five times and the **third** call is the one counted:
the first two absorb one-time work (a table opened, a block cached, a
``struct`` format compiled) and the last two show nothing drifts.  The
``load`` row is counted once, on a store of its own (a load from empty is
deterministic, and at ~40 M bytecodes one count takes seconds):
``measure(load=False)`` leaves it out.  All
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
about waiting, C time or the GIL.  A perf or simplicity PR quotes this
table, parent -> change, in its CHANGES.md line.

Usage::

    python benchmarks/perf/opcodes.py            # the table
    python benchmarks/perf/opcodes.py --json     # one JSON object
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Callable

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


def count_opcodes(fn: Callable[[], object]) -> int:
    """Bytecodes executed by ``fn()`` on this thread, frames it calls
    included.  Any trace function already installed (a debugger, coverage)
    is put back afterwards."""
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def third_of_five(make_call: Callable[[int], Callable[[], object]]) -> int:
    """Count ``make_call(i)()`` for ``i`` in 0..4; return the third."""
    return [count_opcodes(make_call(i)) for i in range(CALLS)][COUNTED_CALL]


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
    db = DB(SimulatedFS(), options, seed=1)
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
    """A store for seeked short scans: 10 000 keys (100 B values) in one
    sorted level of >= 256 files (4 KiB tables of 512 B blocks, ~3.5
    entries a block — a ``limit=50`` scan crosses ~14 blocks and a file
    boundary or two, the shape of the end-to-end ``scan_short_rh`` scans).
    The block cache holds the whole store: a miss costs the same whatever
    path asked for the block and would only dilute a comparison of paths.
    Seek compaction is off so that repeated scans leave the tree as it is.
    Returns ``(db, keys)``."""
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
    db = DB(SimulatedFS(), options, seed=1)
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
        if reader.get(key, sequence)[0]:
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


def count_table_build_reference() -> int:
    """Bytecodes of the ``table_build`` row's entries through
    ``oracle.reference.build_table_bytes`` — the same file, built by the
    reference per-entry path (third of five calls)."""
    from oracle import reference

    entries = table_build_entries()
    options = _options()
    return third_of_five(
        lambda i: lambda: reference.build_table_bytes(
            entries,
            block_size=options.block_size,
            restart_interval=options.block_restart_interval,
            bits_per_key=options.bloom_bits_per_key,
            reserved_fraction=options.bloom_reserved_fraction(1),
        )
    )


def count_load() -> int:
    """Bytecodes of the ``load`` row: ``LOAD_PUTS`` distinct keys put in a
    seeded shuffle into an empty store, flushes and compactions included."""
    from repro import DB, SimulatedFS
    from repro.ycsb import make_key, make_value

    db = DB(SimulatedFS(), _options(), seed=1)
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


def measure(load: bool = True) -> dict[str, int]:
    """Every path's count, in the order of the module docstring; without
    the ``load`` row when ``load`` is false."""
    from oracle import reference

    db, keys = _benchmark_store()
    tree_db, _ = _benchmark_store(compacted=False)
    seek_db, seek_keys = seek_store()
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
    }
    try:
        counts = {name: third_of_five(make_call) for name, make_call in paths.items()}
        if load:
            counts["load"] = count_load()
        return counts
    finally:
        db.close()
        tree_db.close()
        seek_db.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    counts = measure()
    if args.json:
        print(json.dumps(counts))
        return 0
    print(f"opcodes per call (third of {CALLS}), python {sys.version.split()[0]}")
    for name, count in counts.items():
        print(f"  {name:<22} {count:>10,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
