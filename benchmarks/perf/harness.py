"""Hot-path perf-regression harness.

Measures wall-clock throughput of the engine's hot paths and writes
``BENCH_hotpaths.json`` at the repo root: ops/sec and ns/op per path, plus
— for the paths with a frozen reference implementation in
``repro._reference`` — the speedup of the optimized path over the
reference *measured in the same process on the same machine*, which makes
the before/after claim reproducible on any checkout.

Usage::

    python benchmarks/perf/harness.py                # full run, refresh JSON
    python benchmarks/perf/harness.py --quick        # CI smoke (smaller corpora)
    python benchmarks/perf/harness.py --check        # compare vs committed
                                                     # baseline; exit 1 on a
                                                     # >20% regression
    python benchmarks/perf/harness.py --check --quick

``--check`` does not rewrite the baseline; a plain run does.  The paths:

=================  ==========================================================
varint_roundtrip   encode+decode a mixed-magnitude integer corpus
block_encode       BlockBuilder over a corpus of internal keys
block_decode       DataBlock.parse of the built blocks
merge_visible      fused k-way merge + visibility (the read/scan inner loop)
compaction_merge   fused merge_live (the compaction inner loop)
catalog_apply      Version.apply + the picker's child lookup on an 800-file
                   level, the edit mix a selective compaction commits
section_finish_open  build a 64-entry / 16-block table, ``finish``, eager open;
                   then reuse 12 blocks, add 4 entries, ``finish``, ``reload`` —
                   the opens handed the writer's TableInfo vs full parses
point_get          DB.get against a compacted simulated DB vs the walk it
                   replaced (a skiplist seek per memtable miss, a key hash
                   per filter, a closure per call)
multi_get          batched DB.multi_get vs the batch walk it replaced (the
                   same, with a list of pending keys)
seq_fill           DB.put of a fresh sequential load (WAL + flush + compaction)
scan               full-range DB iterator drain
scan_short         seek + ``limit=50`` into a sorted level of >= 256 files vs
                   the linear level walk and per-entry drain it replaced
full_compaction    DB.compact_all() on a freshly loaded tree
traced_point_get   point_get with tracing+histograms enabled vs plain (the
                   observability overhead gate; also fills the report's
                   ``latency`` section with p50/p99 per op)
=================  ==========================================================
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

BASELINE_PATH = ROOT / "BENCH_hotpaths.json"
REGRESSION_TOLERANCE = 0.20
#: Hard --check ceiling on enabled-observability overhead (traced wall time
#: over plain wall time on the same op loop).  The engineering target is
#: 1.05 on a quiet machine; the CI gate is generous because shared runners
#: add noise that hits the two interleaved arms unevenly.
OVERHEAD_CEILING = 1.25


def _time_best(fn, repeats: int) -> tuple[float, int]:
    """Best-of-``repeats`` wall time of ``fn`` (returns its unit count)."""
    best = math.inf
    units = 0
    for _ in range(repeats):
        start = time.perf_counter()
        units = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, units


class Suite:
    """Collects path results and renders/compares the JSON report."""

    def __init__(self, quick: bool):
        self.quick = quick
        self.repeats = 3 if quick else 5
        #: The micro paths are cheap per round; more rounds buys a stabler
        #: best-of under machine-load noise (best-of-N converges to the
        #: true floor, since contention only ever adds time).
        self.micro_repeats = 3 if quick else 25
        self.results: dict[str, dict] = {}
        #: Per-op tail-latency summaries from the observability arm
        #: (``{"get": {"count": ..., "p50_ms": ..., "p99_ms": ...}}``).
        self.latency: dict[str, dict] = {}

    def measure(self, name: str, fn, unit: str, reference=None, repeats: int | None = None):
        """Benchmark ``fn`` (and ``reference``, when given) and record it.

        When a reference arm is present the two arms run *interleaved*,
        round by round, so transient machine-load swings hit both arms
        rather than biasing whichever happened to run in the noisy window;
        best-of-``repeats`` is kept per arm.
        """
        reps = repeats if repeats is not None else self.repeats
        if reference is None:
            elapsed, units = _time_best(fn, reps)
        else:
            elapsed = ref_elapsed = math.inf
            units = ref_units = 0
            for _ in range(reps):
                start = time.perf_counter()
                units = fn()
                elapsed = min(elapsed, time.perf_counter() - start)
                start = time.perf_counter()
                ref_units = reference()
                ref_elapsed = min(ref_elapsed, time.perf_counter() - start)
        entry = {
            "unit": unit,
            "ops_per_sec": round(units / elapsed, 1),
            "ns_per_op": round(elapsed / units * 1e9, 1),
        }
        if reference is not None:
            entry["reference_ops_per_sec"] = round(ref_units / ref_elapsed, 1)
            entry["speedup_vs_reference"] = round(
                (units / elapsed) / (ref_units / ref_elapsed), 2
            )
        self.results[name] = entry
        speedup = entry.get("speedup_vs_reference")
        suffix = f"  ({speedup}x vs reference)" if speedup is not None else ""
        print(
            f"  {name:<18} {entry['ops_per_sec']:>14,.0f} {unit}/s"
            f"  {entry['ns_per_op']:>10,.1f} ns/{unit}{suffix}"
        )

    def report(self) -> dict:
        out = {
            "meta": {
                "python": platform.python_version(),
                "quick": self.quick,
                "tolerance": REGRESSION_TOLERANCE,
            },
            "paths": self.results,
        }
        if self.latency:
            out["latency"] = self.latency
        return out


# --------------------------------------------------------------- micro paths


def bench_varint(suite: Suite) -> None:
    """Varint encode+decode round-trip, optimized vs reference codec."""
    from repro import _reference, encoding

    # Mix modelled on what the engine actually encodes: block-entry headers
    # (shared/non_shared/value_len, almost always 1 byte), index/manifest
    # geometry (offsets and sizes, mostly 2 bytes), and the occasional
    # file-size/sequence-scale value.
    rng = random.Random(11)
    corpus = (
        [rng.randrange(0, 0x80) for _ in range(7000)]
        + [rng.randrange(0x80, 0x4000) for _ in range(2500)]
        + [rng.randrange(0x4000, 1 << 28) for _ in range(500)]
    )
    rng.shuffle(corpus)
    if suite.quick:
        corpus = corpus[:1000]
    rounds = 5

    def run(encode, decode):
        def inner():
            for _ in range(rounds):
                for value in corpus:
                    buf = encode(value)
                    decode(buf, 0)
            return rounds * len(corpus)

        return inner

    suite.measure(
        "varint_roundtrip",
        run(encoding.encode_varint, encoding.decode_varint),
        "op",
        reference=run(_reference.encode_varint, _reference.decode_varint),
        repeats=suite.micro_repeats,
    )


def _entry_corpus(count: int) -> list[tuple[bytes, bytes]]:
    """Sorted ``(internal_key, value)`` pairs shaped like real SSTable data."""
    from repro.keys import TYPE_VALUE, make_internal_key

    rng = random.Random(5)
    entries = []
    for i in range(count):
        user_key = b"user%019d" % (i * 3)
        entries.append(
            (
                make_internal_key(user_key, count - i, TYPE_VALUE),
                rng.randbytes(64),
            )
        )
    return entries


def bench_block_codec(suite: Suite) -> None:
    """Block encode (builder) and decode (parse), optimized vs reference."""
    from repro import _reference
    from repro.sstable.block import DataBlock
    from repro.sstable.block_builder import BlockBuilder

    entries = _entry_corpus(200 if suite.quick else 2000)
    per_block = 100  # ~ a 4 KiB block's worth of 100-byte entries

    def encode_with(builder_cls):
        def inner():
            builder = builder_cls()
            for start in range(0, len(entries), per_block):
                builder.reset()
                for key, value in entries[start : start + per_block]:
                    builder.add(key, value)
                builder.finish()
            return len(entries)

        return inner

    suite.measure(
        "block_encode",
        encode_with(BlockBuilder),
        "entry",
        reference=encode_with(_reference.ReferenceBlockBuilder),
        repeats=suite.micro_repeats,
    )

    builder = BlockBuilder()
    payloads = []
    for start in range(0, len(entries), per_block):
        builder.reset()
        for key, value in entries[start : start + per_block]:
            builder.add(key, value)
        payloads.append(builder.finish())

    def decode_fast():
        total = 0
        for payload in payloads:
            total += len(DataBlock.parse(payload).keys)
        return total

    def decode_reference():
        total = 0
        for payload in payloads:
            total += len(_reference.parse_block(payload)[0])
        return total

    suite.measure(
        "block_decode",
        decode_fast,
        "entry",
        reference=decode_reference,
        repeats=suite.micro_repeats,
    )

    # Zero-copy stored-block open (DESIGN.md §11): verify the trailer CRC
    # over a memoryview and bind the lazy block to the raw bytes with
    # explicit bounds, vs the old unwrap-then-bind path which materialized
    # two full payload copies (the checksum slice and the returned payload)
    # per block read.  This is what every cached-lazy read and every
    # offload-worker decode pays per block; the per-entry parse cost —
    # identical in both arms and deferred here — is kept out of the loop.
    # The CRC dominates both arms; the zero-copy arm's edge comes from the
    # trailer check being inlined into parse_block_raw (one struct hit, no
    # helper-call chain), which is what keeps this ratio above 1.0x — the
    # bench exists to catch the zero-copy path ever losing to copying.
    from repro.sstable.block import LazyDataBlock, parse_block_raw
    from repro.sstable.format import unwrap_block, wrap_block

    raws = [wrap_block(payload, 0) for payload in payloads]
    rounds = 20

    def open_raw_zero_copy():
        for _ in range(rounds):
            for raw in raws:
                parse_block_raw(raw, lazy=True)
        return rounds * len(raws)

    def open_raw_copying():
        for _ in range(rounds):
            for raw in raws:
                LazyDataBlock(unwrap_block(raw))
        return rounds * len(raws)

    suite.measure(
        "block_decode_raw",
        open_raw_zero_copy,
        "block",
        reference=open_raw_copying,
        repeats=suite.micro_repeats,
    )


def _merge_sources(num_sources: int, per_source: int):
    """Disjointly interleaved sorted comparable-key sources, 10% tombstones."""
    from repro.keys import TYPE_DELETION, TYPE_VALUE, comparable_key

    rng = random.Random(17)
    sources = []
    seq = 1
    for s in range(num_sources):
        entries = []
        for i in range(per_source):
            user_key = b"user%019d" % (i * num_sources + s)
            value_type = TYPE_DELETION if rng.random() < 0.1 else TYPE_VALUE
            entries.append((comparable_key(user_key, seq, value_type), b"v" * 32))
            seq += 1
        sources.append(entries)
    return sources


def bench_merge(suite: Suite) -> None:
    """Fused merge+visibility and compaction merge vs the generator stacks."""
    from repro import _reference
    from repro.compaction.base import merge_live
    from repro.core.merge import merge_visible
    from repro.keys import MAX_SEQUENCE

    per_source = 300 if suite.quick else 3000
    sources = _merge_sources(6, per_source)
    total = 6 * per_source

    def visible_fast():
        count = 0
        for _ in merge_visible([iter(s) for s in sources], MAX_SEQUENCE):
            count += 1
        return total

    def visible_reference():
        count = 0
        for _ in _reference.merge_visible([iter(s) for s in sources], MAX_SEQUENCE):
            count += 1
        return total

    suite.measure(
        "merge_visible",
        visible_fast,
        "entry",
        reference=visible_reference,
        repeats=suite.micro_repeats,
    )

    # Compaction's dominant merge shape is two-source: the partitioned
    # parent slice against one child SSTable (Block Compaction's
    # ``UpdateBlock``) or one parent file against the overlapping child run.
    two_sources = _merge_sources(2, 3 * per_source)
    pair_total = 6 * per_source

    def live_fast():
        for _ in merge_live([iter(s) for s in two_sources], lambda _k: True):
            pass
        return pair_total

    def live_reference():
        for _ in _reference.merge_live([iter(s) for s in two_sources], lambda _k: True):
            pass
        return pair_total

    suite.measure(
        "compaction_merge",
        live_fast,
        "entry",
        reference=live_reference,
        repeats=suite.micro_repeats,
    )


# ------------------------------------------------------------------- catalog


def _catalog_cycle(children: int, compactions: int):
    """The set-up edit for a two-level tree (``children`` files at level 3,
    a parent over every ninth run of them at level 2) plus a closed cycle
    of edits over it: ``compactions`` selective-compaction commits — the
    parent retired, two overlapped children updated in place with grown
    sizes and moved bounds (block sub-tasks), a third rewritten into two
    halves (a table sub-task) — then their inverses in reverse order, so
    that one pass leaves the catalog as it found it and can be repeated.
    Each edit comes with the user-key range the picker looks up next."""
    from repro.core.version import FileMetadata, VersionEdit
    from repro.keys import TYPE_VALUE, make_internal_key

    def meta(number, lo, hi, size=65536, valid=65536, appends=0):
        return FileMetadata(
            file_number=number,
            file_size=size,
            valid_bytes=valid,
            num_entries=60,
            smallest=make_internal_key(b"user%019d" % lo, 9, TYPE_VALUE),
            largest=make_internal_key(b"user%019d" % hi, 9, TYPE_VALUE),
            append_count=appends,
        )

    # Child i owns [100i + 10, 100i + 90]: a gap on either side to grow into.
    child = [meta(1000 + i, 100 * i + 10, 100 * i + 90) for i in range(children)]
    parents = children // 9
    parent = [meta(10 + j, 900 * j + 5, 900 * j + 295) for j in range(parents)]
    setup = VersionEdit(
        new_files=[(3, f) for f in child] + [(2, f) for f in parent]
    )
    forward, backward = [], []
    stride = max(1, parents // compactions)
    for n, j in enumerate(range(0, parents, stride)):
        a, b, c = child[9 * j], child[9 * j + 1], child[9 * j + 2]
        grown = [
            meta(f.file_number, 100 * i + 5, 100 * i + 95, size=70000, valid=60000, appends=1)
            for i, f in ((9 * j, a), (9 * j + 1, b))
        ]
        halves = [
            meta(5000 + 2 * n, 100 * (9 * j + 2) + 10, 100 * (9 * j + 2) + 50, size=33000, valid=33000),
            meta(5001 + 2 * n, 100 * (9 * j + 2) + 51, 100 * (9 * j + 2) + 90, size=33000, valid=33000),
        ]
        lookup = (parent[j].smallest_user_key, parent[j].largest_user_key)
        forward.append((
            VersionEdit(
                deleted_files=[(2, parent[j].file_number), (3, c.file_number)],
                updated_files=[(3, f) for f in grown],
                new_files=[(3, f) for f in halves],
            ),
            lookup,
        ))
        backward.append((
            VersionEdit(
                deleted_files=[(3, f.file_number) for f in halves],
                updated_files=[(3, a), (3, b)],
                new_files=[(2, parent[j]), (3, c)],
            ),
            lookup,
        ))
    return setup, forward + backward[::-1]


def bench_catalog(suite: Suite) -> None:
    """The bisecting version catalog vs the re-sorting reference."""
    from repro import _reference
    from repro.core.version import Version

    # One corpus in both modes: the reference's cost grows with the level,
    # so a smaller quick-mode tree would shift the ratio --check compares.
    setup, cycle = _catalog_cycle(children=800, compactions=40)
    fast, ref = Version(5), _reference.ReferenceVersion(5)
    fast.apply(setup)
    ref.apply(setup)

    def run(version):
        for edit, (lo, hi) in cycle:
            version.apply(edit)
            version.overlapping_files(3, lo, hi)
        return len(cycle)

    suite.measure(
        "catalog_apply",
        lambda: run(fast),
        "edit",
        reference=lambda: run(ref),
        repeats=suite.micro_repeats,
    )
    assert fast.levels == ref.levels, "catalog arms diverged"


def bench_section_finish_open(suite: Suite) -> None:
    """What every flush and compaction output does — write a section, then
    open it — with the writer's index and filter handed to the reader, vs
    the reader decoding the bytes just encoded (same writes, same reads,
    same checksums in both arms; the decode is the only difference)."""
    from repro.keys import TYPE_VALUE, make_internal_key
    from repro.options import Options
    from repro.sstable import AppendSession, TableBuilder, TableReader
    from repro.storage.fs import SimulatedFS

    options = Options()  # 4 KiB blocks
    rng = random.Random(11)
    built = [
        (make_internal_key(b"user%028d" % (i * 10), 1000 + i, TYPE_VALUE), rng.randbytes(1024))
        for i in range(64)  # four to a block
    ]
    added = [
        (make_internal_key(b"user%028d" % (10_000 + i), 2000 + i, TYPE_VALUE), rng.randbytes(1024))
        for i in range(4)
    ]
    rounds = 10 if suite.quick else 40

    def run(hand_over: bool):
        def inner():
            for _ in range(rounds):
                fs = SimulatedFS()
                builder = TableBuilder(fs, "000001.sst", options, level=2)
                for key, value in built:
                    builder.add(key, value)
                info = builder.finish()
                reader = TableReader(
                    fs, "000001.sst", 1, options, "compaction", info if hand_over else None
                )
                entries = reader.index.entries
                assert len(entries) == 16, len(entries)
                session = AppendSession(fs, reader, options, level=2)
                for entry in entries[:12]:
                    session.reuse(entry)
                for key, value in added:
                    session.add(key, value)
                info = session.finish()
                reader.reload(info if hand_over else None)
                assert (reader.index is info.index) == hand_over
            return 2 * rounds

        return inner

    suite.measure(
        "section_finish_open",
        run(True),
        "section",
        reference=run(False),
        repeats=suite.micro_repeats,
    )


# ------------------------------------------------------------------ DB paths


def _perf_options():
    from repro.options import Options

    # Cache deliberately smaller than the dataset so point gets keep
    # decoding blocks (the hot path under test) instead of serving a fully
    # warm cache.
    return Options(
        block_size=4096,
        sstable_size=64 * 1024,
        memtable_size=32 * 1024,
        max_levels=6,
        block_cache_capacity=128 * 1024,
    )


def _fresh_db(seed: int = 1):
    from repro.core.db import DB
    from repro.storage.fs import SimulatedFS

    return DB(SimulatedFS(), _perf_options(), seed=seed)


def _load_keys(db, count: int, value_size: int = 100) -> list[bytes]:
    keys = []
    value = b"x" * value_size
    for i in range(count):
        key = b"user%019d" % i
        db.put(key, value)
        keys.append(key)
    return keys


#: Files the seeked-scan store must have on its one populated level.
SEEK_STORE_MIN_FILES = 256


def seek_store():
    """A store for seeked short scans: 10 000 keys (100 B values) in one
    sorted level of >= 256 files (4 KiB tables of 512 B blocks, ~3.5
    entries a block — a ``limit=50`` scan crosses ~14 blocks and a file
    boundary or two, the shape of the end-to-end ``scan_short_rh`` scans).
    The block cache holds the whole store: a miss costs the same whatever
    path asked for the block and would only dilute a comparison of paths.
    Seek compaction is off so that repeated scans leave the tree as it is.
    Returns ``(db, keys)``; shared with ``opcodes.py``."""
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
    keys = _load_keys(db, 10_000)
    db.compact_all()
    files = db.num_files_per_level()
    if max(files) < SEEK_STORE_MIN_FILES or sum(1 for n in files if n) != 1:
        raise AssertionError(
            f"seek store is not one level of >= {SEEK_STORE_MIN_FILES} files: {files}"
        )
    return db, keys


def bench_scan_short(suite: Suite) -> None:
    """Seek + ``limit=50`` into a 256+-file level: ``DB.scan`` (bisected
    level seek, one block stream per level, drained in C) against
    ``_reference.scan_linear`` (linear walk, a generator per file, a
    per-entry loop).  Both arms find the same blocks in the same cache;
    what differs is the plumbing around them."""
    from repro import _reference

    db, keys = seek_store()
    db.scan()  # every block cached
    rng = random.Random(29)
    starts = [rng.choice(keys) for _ in range(100 if suite.quick else 1000)]

    def scan_fast():
        for start in starts:
            db.scan(start, None, 50)
        return len(starts)

    def scan_reference():
        for start in starts:
            _reference.scan_linear(db, start, None, 50)
        return len(starts)

    suite.measure("scan_short", scan_fast, "scan", reference=scan_reference)
    db.close()


def bench_db_paths(suite: Suite, value_size: int = 100) -> None:
    """End-to-end engine paths over the simulated FS.  The read paths carry
    a reference arm; compare the others across harness runs / baselines."""
    fill_count = 400 if suite.quick else 4000

    def seq_fill():
        db = _fresh_db()
        _load_keys(db, fill_count, value_size)
        db.close()
        return fill_count

    suite.measure("seq_fill", seq_fill, "put", repeats=3)

    db = _fresh_db()
    keys = _load_keys(db, fill_count, value_size)
    db.compact_all()
    rng = random.Random(23)
    lookup_keys = [rng.choice(keys) for _ in range(fill_count)]

    # DB.get / DB.multi_get against the walks they replaced, on the same
    # tree through the same caches: what differs is what a lookup asks of
    # each component, not what it reads.
    from repro import _reference

    def point_get():
        for key in lookup_keys:
            db.get(key)
        return len(lookup_keys)

    def point_get_reference():
        for key in lookup_keys:
            _reference.get_linear(db, key)
        return len(lookup_keys)

    suite.measure("point_get", point_get, "get", reference=point_get_reference)

    batch_size = 64
    batches = [
        lookup_keys[start : start + batch_size]
        for start in range(0, len(lookup_keys), batch_size)
    ]

    def multi_get_batched():
        for batch in batches:
            db.multi_get(batch)
        return len(lookup_keys)

    def multi_get_reference():
        for batch in batches:
            _reference.multi_get_linear(db, batch)
        return len(lookup_keys)

    suite.measure(
        "multi_get", multi_get_batched, "get", reference=multi_get_reference
    )

    def scan():
        count = 0
        with db.iterator() as it:
            for _ in it:
                count += 1
        return count

    suite.measure("scan", scan, "entry")
    db.close()

    def full_compaction():
        fresh = _fresh_db(seed=3)
        _load_keys(fresh, fill_count, value_size)
        start = time.perf_counter()
        fresh.compact_all()
        elapsed = time.perf_counter() - start
        fresh.close()
        return elapsed

    # compact_all needs a fresh tree per repeat, so time it inside the loop.
    best = min(full_compaction() for _ in range(3 if suite.quick else 4))
    suite.results["full_compaction"] = {
        "unit": "entry",
        "ops_per_sec": round(fill_count / best, 1),
        "ns_per_op": round(best / fill_count * 1e9, 1),
    }
    print(
        f"  {'full_compaction':<18} {fill_count / best:>14,.0f} entry/s"
        f"  {best / fill_count * 1e9:>10,.1f} ns/entry"
    )


def bench_observability(suite: Suite, value_size: int = 100) -> None:
    """Enabled-observability overhead on the point-get hot path.

    Two identical trees, one opened plain and one with tracing + latency
    histograms on, serve the same read-only lookup sequence with the arms
    interleaved round by round.  ``speedup_vs_reference`` is traced over
    plain throughput (expected just under 1.0); its reciprocal is stored
    as ``overhead_vs_plain``, which ``--check`` caps at
    :data:`OVERHEAD_CEILING`.  The traced arm's histograms also supply the
    report's ``latency`` section (p50/p99 per op).
    """
    from repro.core.db import DB
    from repro.storage.fs import SimulatedFS

    fill_count = 400 if suite.quick else 4000

    def build(options):
        db = DB(SimulatedFS(), options, seed=7)
        keys = _load_keys(db, fill_count, value_size)
        db.compact_all()
        return db, keys

    plain_db, keys = build(_perf_options())
    traced_db, _ = build(_perf_options().copy(tracing=True, latency_histograms=True))
    rng = random.Random(41)
    lookup_keys = [rng.choice(keys) for _ in range(fill_count)]

    def run_on(db):
        def inner():
            for key in lookup_keys:
                db.get(key)
            return len(lookup_keys)

        return inner

    suite.measure(
        "traced_point_get", run_on(traced_db), "get", reference=run_on(plain_db)
    )
    entry = suite.results["traced_point_get"]
    speedup = entry.get("speedup_vs_reference") or 1.0
    entry["overhead_vs_plain"] = round(1.0 / speedup, 3)
    print(f"  {'':<18} observability overhead: {entry['overhead_vs_plain']:.3f}x "
          f"(ceiling {OVERHEAD_CEILING}x)")

    # Puts through the traced arm so the latency section covers the write
    # path too (after the timed arms, so they do not perturb the ratio).
    value = b"y" * value_size
    for i in range(min(fill_count, 1000)):
        traced_db.put(b"obs%020d" % i, value)
    suite.latency = traced_db.latency.summary()
    plain_db.close()
    traced_db.close()


# ----------------------------------------------------------------- reporting
#
# The helpers below are the shared CLI surface of every benchmarks/perf
# script: the same --quick/--check/--output triple, the same report
# writer, and the same speedup-floor gate.  Scripts import them with
# ``from harness import ...`` (they run as plain scripts, so the perf
# directory is already on sys.path).


def perf_arg_parser(doc: str, default_output: Path) -> argparse.ArgumentParser:
    """The --quick/--check/--output parser every perf script shares."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate on the regression floor instead of writing the report",
    )
    parser.add_argument(
        "--output", type=Path, default=default_output, help="report path"
    )
    parser.add_argument(
        "--value-size", type=int, default=100, metavar="BYTES",
        help="value payload size for the DB-level workloads (default 100); "
        "large values shift the engine's cost from keys to value bytes — "
        "the regime the kv-separation benchmark sweeps",
    )
    parser.add_argument(
        "--baseline", type=Path, metavar="PATH",
        help="compare this run against a prior report JSON from the same "
        "machine, failing on any per-path regression beyond the tolerance; "
        "does not rewrite the report",
    )
    return parser


def write_report(report: dict, output: Path) -> int:
    """Write the canonical JSON report; returns the exit status (0)."""
    output.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {output}")
    return 0


def gate_speedup(report: dict, key: str, floor: float, label: str) -> int:
    """--check gate: fail unless ``report[key]`` meets ``floor``.

    Prints the same OK/FAIL lines every scaling benchmark uses; returns
    the process exit status.
    """
    value = report[key]
    if value < floor:
        print(f"\nFAIL: {label} {value}x is below the {floor}x floor")
        return 1
    print(f"\nOK: {label} {value}x >= {floor}x floor")
    return 0


def _metric_direction(key: str) -> int:
    """Which way a report metric is better: +1 higher, -1 lower, 0 skip.

    Classified by naming convention, which every perf report here follows:
    throughputs and speedup/ratio keys are higher-better; per-op times,
    tail latencies, amplifications and overheads are lower-better.
    Anything unrecognized (counts, sizes, configuration echoes) is not a
    performance metric and is skipped.
    """
    if (
        key.startswith(("speedup", "wa_ratio"))
        or key.endswith(("ops_per_sec", "per_sec", "throughput"))
    ):
        return 1
    if (
        key.endswith(("ns_per_op", "overhead_vs_plain"))
        or key.startswith(("p50", "p99", "wa_", "write_amplification"))
    ):
        return -1
    return 0


def compare_reports(
    report: dict, baseline: dict, tolerance: float = REGRESSION_TOLERANCE
) -> tuple[int, list[tuple[str, float, float, float]]]:
    """Walk two report dicts in parallel; return (metrics checked, regressions).

    Every numeric leaf present in both whose key names a performance metric
    (see :func:`_metric_direction`) is compared as ``current vs baseline``;
    a regression is a ratio below ``1 - tolerance`` in the metric's better
    direction.  Keys only one report has are ignored — baselines from older
    checkouts stay usable as the suites grow.
    """
    regressions: list[tuple[str, float, float, float]] = []
    checked = 0

    def walk(current: dict, base: dict, prefix: str) -> None:
        nonlocal checked
        for key, base_value in base.items():
            if key == "meta":
                continue
            current_value = current.get(key)
            label = f"{prefix}{key}"
            if isinstance(base_value, dict) and isinstance(current_value, dict):
                walk(current_value, base_value, label + ".")
                continue
            if isinstance(base_value, bool) or not isinstance(base_value, (int, float)):
                continue
            if isinstance(current_value, bool) or not isinstance(
                current_value, (int, float)
            ):
                continue
            direction = _metric_direction(key)
            if direction == 0 or not base_value:
                continue
            checked += 1
            if direction > 0:
                ratio = current_value / base_value
            else:
                ratio = base_value / current_value if current_value else math.inf
            if ratio < 1.0 - tolerance:
                regressions.append((label, current_value, base_value, ratio))

    walk(report, baseline, "")
    return checked, regressions


def compare_with_baseline(
    report: dict, baseline_path: Path, tolerance: float = REGRESSION_TOLERANCE
) -> int:
    """``--baseline`` mode: compare ``report`` against a prior run's JSON.

    Unlike :func:`check_against_baseline` (which only trusts in-process
    speedup ratios, so it works against the *committed* baseline from any
    machine), this compares absolute numbers too — the caller asserts the
    prior report came from the same machine.  Returns the exit status.
    """
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {baseline_path}: {exc}")
        return 2
    checked, regressions = compare_reports(report, baseline, tolerance)
    for label, current, base, ratio in regressions:
        print(f"  {label}: {current} vs baseline {base} ({ratio:.2f}x)  << REGRESSION")
    if regressions:
        print(f"\nFAIL: {len(regressions)} of {checked} metric(s) regressed more "
              f"than {tolerance:.0%} vs {baseline_path.name}")
        return 1
    print(f"\nOK: none of {checked} metric(s) regressed more than "
          f"{tolerance:.0%} vs {baseline_path.name}")
    return 0


def baseline_status(report: dict, args: argparse.Namespace) -> int | None:
    """Run the ``--baseline`` comparison when requested; ``None`` otherwise.

    The one-liner every perf script's ``main`` calls right after building
    its report: ``status = baseline_status(report, args)``.
    """
    if getattr(args, "baseline", None) is None:
        return None
    print()
    return compare_with_baseline(report, args.baseline)


def check_against_baseline(report: dict, baseline_path: Path) -> int:
    """Compare ``report`` with the committed baseline; return exit status.

    Paths benchmarked against an in-process reference arm are compared by
    their ``speedup_vs_reference`` ratio — both arms run on the same
    machine in the same process, so the ratio is portable across machines
    (and across quick/full modes), unlike raw ops/sec.  DB-level paths
    have no reference arm; their absolute numbers are machine-dependent,
    so they are reported but never fail the check.
    """
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; nothing to check against")
        return 0
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, entry in report["paths"].items():
        base = baseline.get("paths", {}).get(name)
        if base is None:
            continue
        current = entry.get("speedup_vs_reference")
        reference = base.get("speedup_vs_reference")
        if current is None or reference is None or not reference:
            print(f"  {name:<18}    (machine-dependent; not checked)")
            continue
        ratio = current / reference
        marker = ""
        if ratio < 1.0 - REGRESSION_TOLERANCE:
            failures.append((name, ratio))
            marker = "  << REGRESSION"
        print(
            f"  {name:<18} {current:>6.2f}x vs reference"
            f" (baseline {reference:.2f}x){marker}"
        )
    traced = report["paths"].get("traced_point_get", {})
    overhead = traced.get("overhead_vs_plain")
    if overhead is not None and overhead > OVERHEAD_CEILING:
        failures.append(("traced_point_get(overhead)", overhead))
        print(f"  observability overhead {overhead:.3f}x exceeds the "
              f"{OVERHEAD_CEILING}x ceiling  << REGRESSION")
    if failures:
        print(f"\nFAIL: {len(failures)} path(s) regressed more than "
              f"{REGRESSION_TOLERANCE:.0%} vs {baseline_path.name}")
        return 1
    print("\nOK: no path regressed more than "
          f"{REGRESSION_TOLERANCE:.0%} vs {baseline_path.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the suite; write the JSON report or check it against baseline."""
    args = perf_arg_parser(__doc__, BASELINE_PATH).parse_args(argv)

    suite = Suite(quick=args.quick)
    print(f"hot-path perf harness ({'quick' if args.quick else 'full'} mode, "
          f"{args.value_size}-byte values)")
    bench_varint(suite)
    bench_block_codec(suite)
    bench_merge(suite)
    bench_catalog(suite)
    bench_section_finish_open(suite)
    bench_db_paths(suite, value_size=args.value_size)
    bench_scan_short(suite)
    bench_observability(suite, value_size=args.value_size)
    report = suite.report()
    report["meta"]["value_size"] = args.value_size

    status = baseline_status(report, args)
    if args.check:
        print()
        checked = check_against_baseline(report, args.output)
        return max(checked, status or 0)
    if status is not None:
        return status
    return write_report(report, args.output)


if __name__ == "__main__":
    raise SystemExit(main())
