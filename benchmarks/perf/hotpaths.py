"""Hot-path suite: wall-clock throughput of the engine's hot paths.

Records ops/sec and ns/op per path, plus — for the paths with a frozen
reference implementation in ``oracle.reference`` — the speedup of the
optimized path over the reference *measured in the same process on the
same machine*, which makes the before/after claim reproducible on any
checkout: each speedup is gated at 0.8x the committed
``BENCH_hotpaths.json``'s.  ``python benchmarks/perf/run.py hotpaths``.
The read paths' comparisons with their reference walks (``DB.get``,
``multi_get``, the seeked scan) are gated by count instead, in
``opcodes.py``.  The paths:

=================  ==========================================================
varint_roundtrip   encode+decode a mixed-magnitude integer corpus
block_encode       the BlockCutter run loop over a corpus of comparable entries
block_decode       DataBlock.parse of the built blocks
merge_visible      fused k-way merge + visibility (the read/scan inner loop)
compaction_merge   fused merge_live (the compaction inner loop)
catalog_apply      Version.apply + the picker's child lookup on an 800-file
                   level, the edit mix a selective compaction commits
section_finish_open  build a 64-entry / 16-block table, ``finish``, eager open;
                   then reuse 12 blocks, add 4 entries, ``finish``, ``reload`` —
                   the opens handed the writer's TableInfo vs full parses
memtable_fill      one MemTable filled to ``Options().memtable_size`` with
                   shuffled 32 B keys and 16 B values (~233 k adds) vs the
                   same keys into ``oracle.reference.SkipList`` — the guard on
                   insert cost at the default memtable's size; quick mode
                   fills 20 k and is gated at ``MEMTABLE_FILL_FLOOR`` instead
seq_fill           DB.put of a fresh sequential load (WAL + flush + compaction)
scan               full-range DB iterator drain
full_compaction    DB.compact_all() on a freshly loaded tree
traced_point_get   DB.get with tracing+histograms enabled vs plain (the
                   observability overhead gate; its arm also records the
                   traced DB's ``latency`` p50/p99 per op)
=================  ==========================================================
"""

from __future__ import annotations

import math
import random
import time

#: Hard ceiling on enabled-observability overhead (traced wall time over
#: plain wall time on the same op loop).  The engineering target is 1.05 on
#: a quiet machine; the gate is generous because shared runners add noise
#: that hits the two interleaved arms unevenly.
OVERHEAD_CEILING = 1.25
#: Quick-mode floor on ``memtable_fill``'s speedup: the skiplist's insert
#: cost grows faster with the fill than the chunked list's, so a quick
#: fill's ratio sits well under a full one's and cannot be held to the
#: committed (full) value; it must still beat the skiplist.
MEMTABLE_FILL_FLOOR = 1.0
PATHS = (
    "varint_roundtrip", "block_encode", "block_decode", "block_decode_raw",
    "merge_visible", "compaction_merge", "catalog_apply", "section_finish_open",
    "memtable_fill", "seq_fill", "scan", "full_compaction", "traced_point_get",
)
#: The paths measured against an in-process reference arm.
REFERENCE_ARMED = PATHS[:9] + ("traced_point_get",)
#: Adds in the quick-mode ``memtable_fill``; a full run fills the default
#: memtable.
MEMTABLE_FILL_QUICK = 20_000
METRICS = {
    **{f"{path}.ops_per_sec": ("higher", None, None) for path in PATHS},
    **{
        f"{path}.speedup_vs_reference": ("higher", "committed", "committed")
        for path in REFERENCE_ARMED
    },
    "memtable_fill.speedup_vs_reference": ("higher", MEMTABLE_FILL_FLOOR, "committed"),
    "traced_point_get.overhead_vs_plain": ("lower", OVERHEAD_CEILING, OVERHEAD_CEILING),
}


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
    """Collects the path results."""

    def __init__(self, quick: bool):
        self.quick = quick
        self.repeats = 3 if quick else 5
        #: The micro paths are cheap per round; more rounds buys a stabler
        #: best-of under machine-load noise (best-of-N converges to the
        #: true floor, since contention only ever adds time).
        self.micro_repeats = 3 if quick else 25
        self.results: dict[str, dict] = {}

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


# --------------------------------------------------------------- micro paths


def bench_varint(suite: Suite) -> None:
    """Varint encode+decode round-trip, optimized vs reference codec."""
    from oracle import reference
    from repro import encoding

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
        reference=run(reference.encode_varint, reference.decode_varint),
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
    """Block encode (the cutter's run loop) and decode (parse), optimized
    vs reference."""
    from oracle import reference
    from repro.keys import comparable_from_internal
    from repro.sstable.block import DataBlock
    from repro.sstable.block_builder import BlockCutter
    from repro.sstable.format import BLOCK_TRAILER_SIZE

    entries = _entry_corpus(200 if suite.quick else 2000)
    # The engine's writers hand the run loop the merges' comparable form.
    comparable = [(comparable_from_internal(key), value) for key, value in entries]
    per_block = 100  # ~ a 4 KiB block's worth of 100-byte entries
    stored: list[bytes] = []

    def encode_fast():
        stored.clear()
        # Cut by hand every ``per_block`` entries, never by size.
        cutter = BlockCutter(1 << 62, 16, lambda raw, *_: stored.append(raw))
        for start in range(0, len(comparable), per_block):
            cutter.add_run(comparable[start : start + per_block])
            cutter.cut()
        return len(entries)

    def encode_reference():
        builder = reference.ReferenceBlockBuilder()
        for start in range(0, len(entries), per_block):
            builder.reset()
            for key, value in entries[start : start + per_block]:
                builder.add(key, value)
            builder.finish()
        return len(entries)

    suite.measure(
        "block_encode",
        encode_fast,
        "entry",
        reference=encode_reference,
        repeats=suite.micro_repeats,
    )

    payloads = [raw[:-BLOCK_TRAILER_SIZE] for raw in stored]

    def decode_fast():
        total = 0
        for payload in payloads:
            total += len(DataBlock.parse(payload).keys)
        return total

    def decode_reference():
        total = 0
        for payload in payloads:
            total += len(reference.parse_block(payload)[0])
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

    raws = [wrap_block(payload) for payload in payloads]
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
    from oracle import reference
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
        for _ in reference.merge_visible([iter(s) for s in sources], MAX_SEQUENCE):
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
        for _ in reference.merge_live([iter(s) for s in two_sources], lambda _k: True):
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
    from oracle import reference
    from repro.core.version import Version

    # One corpus in both modes: the reference's cost grows with the level,
    # so a smaller quick-mode tree would shift the ratio --check compares.
    setup, cycle = _catalog_cycle(children=800, compactions=40)
    fast, ref = Version(5), reference.ReferenceVersion(5)
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
    from repro.keys import TYPE_VALUE, comparable_key
    from repro.options import Options
    from repro.sstable import AppendSession, TableBuilder, TableReader
    from repro.storage.fs import SimulatedFS

    options = Options()  # 4 KiB blocks
    rng = random.Random(11)
    # Entries in the merges' comparable form, written by the run method the
    # engine's flush and compactions drive.
    built = [
        (comparable_key(b"user%028d" % (i * 10), 1000 + i, TYPE_VALUE), rng.randbytes(1024))
        for i in range(64)  # four to a block
    ]
    added = [
        (comparable_key(b"user%028d" % (10_000 + i), 2000 + i, TYPE_VALUE), rng.randbytes(1024))
        for i in range(4)
    ]
    rounds = 10 if suite.quick else 40

    def run(hand_over: bool):
        def inner():
            for _ in range(rounds):
                fs = SimulatedFS()
                builder = TableBuilder(fs, "000001.sst", options, level=2)
                builder.add_run(built)
                info = builder.finish()
                reader = TableReader(
                    fs, "000001.sst", 1, "compaction", info if hand_over else None
                )
                entries = reader.index.entries
                assert len(entries) == 16, len(entries)
                session = AppendSession(fs, reader, options, level=2)
                for entry in entries[:12]:
                    session.reuse(entry)
                session.add_run(added)
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


def bench_memtable_fill(suite: Suite) -> None:
    """A write buffer filled from empty, as a load fills every memtable:
    ``MemTable.add`` vs the skiplist it replaced, fed the same comparable
    keys.  The skiplist arm skips the key set and the accounting, so the
    ratio understates the change."""
    from oracle import reference
    from repro.keys import TYPE_VALUE, comparable_key
    from repro.memtable.memtable import ENTRY_OVERHEAD, MemTable
    from repro.options import Options

    key_size, value_size = 32, 16
    limit = Options().memtable_size
    count = (
        MEMTABLE_FILL_QUICK
        if suite.quick
        else -(-limit // (key_size + value_size + ENTRY_OVERHEAD))
    )
    keys = [b"user%028d" % i for i in range(count)]
    random.Random(23).shuffle(keys)
    value = b"v" * value_size

    def fill():
        memtable = MemTable()
        for sequence, key in enumerate(keys, start=1):
            memtable.add(sequence, TYPE_VALUE, key, value)
        assert suite.quick or memtable.approximate_memory_usage() >= limit
        return count

    def fill_reference():
        table = reference.SkipList()
        for sequence, key in enumerate(keys, start=1):
            table.insert(comparable_key(key, sequence, TYPE_VALUE), value)
        return count

    suite.measure("memtable_fill", fill, "add", reference=fill_reference, repeats=3)


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


def _fresh_db():
    from repro.core.db import DB
    from repro.storage.fs import SimulatedFS

    return DB(SimulatedFS(), _perf_options())


def _load_keys(db, count: int, value_size: int) -> list[bytes]:
    keys = []
    value = b"x" * value_size
    for i in range(count):
        key = b"user%019d" % i
        db.put(key, value)
        keys.append(key)
    return keys


def bench_db_paths(suite: Suite, value_size: int) -> None:
    """End-to-end engine paths over the simulated FS; no reference arm, so
    compare them across runs on one machine (``--baseline``)."""
    fill_count = 400 if suite.quick else 4000

    def seq_fill():
        db = _fresh_db()
        _load_keys(db, fill_count, value_size)
        db.close()
        return fill_count

    suite.measure("seq_fill", seq_fill, "put", repeats=3)

    db = _fresh_db()
    _load_keys(db, fill_count, value_size)
    db.compact_all()

    def scan():
        count = 0
        with db.iterator() as it:
            for _ in it:
                count += 1
        return count

    suite.measure("scan", scan, "entry")
    db.close()

    def full_compaction():
        fresh = _fresh_db()
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


def bench_observability(suite: Suite, value_size: int) -> None:
    """Enabled-observability overhead on the point-get hot path.

    Two identical trees, one opened plain and one with tracing + latency
    histograms on, serve the same read-only lookup sequence with the arms
    interleaved round by round.  ``speedup_vs_reference`` is traced over
    plain throughput (expected just under 1.0); its reciprocal is stored
    as ``overhead_vs_plain``, which is gated at :data:`OVERHEAD_CEILING`.
    The traced DB's histograms also fill the arm's ``latency`` (p50/p99
    per op).
    """
    from repro.core.db import DB
    from repro.storage.fs import SimulatedFS

    fill_count = 400 if suite.quick else 4000

    def build(options):
        db = DB(SimulatedFS(), options)
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

    # Puts through the traced arm so the latency covers the write path too
    # (after the timed arms, so they do not perturb the ratio).
    value = b"y" * value_size
    for i in range(min(fill_count, 1000)):
        traced_db.put(b"obs%020d" % i, value)
    entry["latency"] = traced_db.latency.summary()
    plain_db.close()
    traced_db.close()


def run(quick: bool, value_size: int) -> dict:
    """Every path; the arms are the paths."""
    suite = Suite(quick=quick)
    print(f"hot-path suite ({'quick' if quick else 'full'} mode, "
          f"{value_size}-byte values)")
    bench_varint(suite)
    bench_block_codec(suite)
    bench_merge(suite)
    bench_catalog(suite)
    bench_section_finish_open(suite)
    bench_memtable_fill(suite)
    bench_db_paths(suite, value_size)
    bench_observability(suite, value_size)
    metrics = {
        f"{path}.{field}": value
        for path, entry in suite.results.items()
        for field, value in entry.items()
        if f"{path}.{field}" in METRICS
    }
    return {"arms": suite.results, "metrics": metrics}
