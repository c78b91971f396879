"""Property tests cross-checking every optimized hot path against the
frozen reference implementations in :mod:`oracle.reference`.

The engine's fast paths (table-driven varints, the fused block decode, the
fused k-way merge stack, the heap-based LPT scheduler, the bisecting
version catalog, the bisected level seek, the bulk filter build, the
one-hash filter check, the key-set memtable miss, the one-split table
builder, the one-join stored-block and index-block writers and the chunked
``SimulatedFS`` store) must be drop-in replacements for the straightforward
originals — same results on valid input, same error classification on
corrupt or out-of-bounds input.
Hypothesis generates the inputs, including prefix-heavy key sets,
multi-version keys (which exercise the rare trailer-overlap branch of the
block decoder), tombstones, and arbitrary corrupt bytes.
"""

from __future__ import annotations

import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from oracle import reference  # noqa: E402
from repro.encoding import (  # noqa: E402
    BufferWriter,
    decode_varint,
    decode_varint3,
    encode_varint,
    shared_prefix_len,
)
from repro.bloom import BloomFilter, ReservedBloomFilter, build_filter  # noqa: E402
from repro.bloom.bloom import _hash_pair  # noqa: E402
from repro.errors import CorruptionError, InvalidArgumentError  # noqa: E402
from repro.keys import (  # noqa: E402
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    comparable_from_internal,
    comparable_key,
    comparable_to_internal,
    make_internal_key,
)
from repro.compaction.base import merge_keep_newest, merge_live  # noqa: E402
from repro.compaction.parallel import lpt_makespan  # noqa: E402
from repro.core.merge import merge_entries, merge_visible  # noqa: E402
from repro.core.superversion import SuperVersion  # noqa: E402
from repro.core.version import (  # noqa: E402
    FileMetadata,
    Version,
    VersionEdit,
    catalog_violations,
)
from repro.memtable import MemTable  # noqa: E402
from repro.options import FILTER_NONE, Options  # noqa: E402
from repro.sstable.block import DataBlock, parse_block_raw  # noqa: E402
from repro.sstable.block_builder import RESTART_INTERVAL, BlockCutter  # noqa: E402
from repro.sstable.filter_block import TableFilter, deserialize_filter  # noqa: E402
from repro.sstable.format import wrap_block  # noqa: E402
from repro.sstable.table_builder import TableBuilder  # noqa: E402
from repro.storage.fs import SimulatedFS  # noqa: E402

from conftest import encode_block  # noqa: E402

# ---------------------------------------------------------------------- varint

varint_values = st.one_of(
    st.integers(0, 0x7F),
    st.integers(0x80, 0x3FFF),
    st.integers(0x4000, 0x1FFFFF),
    st.integers(0x200000, 0xFFFFFFF),
    st.integers(0x10000000, (1 << 64) - 1),
)


@given(varint_values)
def test_encode_varint_matches_reference(value):
    """Table/tuple-driven encoder is byte-identical to the shift loop."""
    assert encode_varint(value) == reference.encode_varint(value)


@given(varint_values, st.binary(max_size=4))
def test_decode_varint_roundtrip(value, tail):
    """Decoding an encoded varint (with trailing junk) recovers the value."""
    buf = encode_varint(value) + tail
    assert decode_varint(buf, 0) == (value, len(buf) - len(tail))


@given(st.binary(max_size=16), st.integers(0, 8))
def test_decode_varint_matches_reference_on_arbitrary_bytes(buf, offset):
    """Fast decoder and reference agree on every input: same value/offset on
    success, :class:`CorruptionError` (and nothing else) on failure."""
    try:
        expected = reference.decode_varint(buf, offset)
    except CorruptionError:
        with pytest.raises(CorruptionError):
            decode_varint(buf, offset)
    else:
        assert decode_varint(buf, offset) == expected


@given(st.binary(max_size=24), st.integers(0, 4))
def test_decode_varint3_equivalent_to_three_decodes(buf, offset):
    """Batched 3-varint decode behaves like three sequential decodes."""
    try:
        a, pos = reference.decode_varint(buf, offset)
        b, pos = reference.decode_varint(buf, pos)
        c, pos = reference.decode_varint(buf, pos)
        expected = (a, b, c, pos)
    except CorruptionError:
        with pytest.raises(CorruptionError):
            decode_varint3(buf, offset)
    else:
        assert decode_varint3(buf, offset) == expected


@given(st.binary(max_size=24), st.binary(max_size=24))
def test_shared_prefix_len_matches_reference(a, b):
    """XOR-based common-prefix length equals the byte-at-a-time scan."""
    assert shared_prefix_len(a, b) == reference.shared_prefix_len(a, b)


@given(st.binary(min_size=1, max_size=12), st.integers(2, 6))
def test_shared_prefix_len_on_forced_prefixes(stem, repeat):
    """Inputs sharing a long constructed prefix are measured exactly."""
    a = stem * repeat
    b = stem * repeat + b"x"
    assert shared_prefix_len(a, b) == len(a)
    assert shared_prefix_len(a, a) == len(a)


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("varint"), varint_values),
            st.tuples(st.just("fixed32"), st.integers(0, 0xFFFFFFFF)),
            st.tuples(st.just("fixed64"), st.integers(0, (1 << 64) - 1)),
            st.tuples(st.just("raw"), st.binary(max_size=20)),
            st.tuples(st.just("lp"), st.binary(max_size=200)),
        ),
        max_size=20,
    )
)
def test_buffer_writer_matches_field_concatenation(ops):
    """:class:`BufferWriter` output equals naive per-field concatenation."""
    writer = BufferWriter()
    expected = bytearray()
    for kind, arg in ops:
        if kind == "varint":
            writer.varint(arg)
            expected += reference.encode_varint(arg)
        elif kind == "fixed32":
            writer.fixed32(arg)
            expected += struct.pack("<I", arg)
        elif kind == "fixed64":
            writer.fixed64(arg)
            expected += struct.pack("<Q", arg)
        elif kind == "raw":
            writer.append(arg)
            expected += arg
        else:
            writer.length_prefixed(arg)
            expected += reference.encode_varint(len(arg)) + arg
    assert writer.getvalue() == bytes(expected)
    assert len(writer) == len(expected)


# ----------------------------------------------------------------- data blocks


@st.composite
def internal_entries(draw):
    """Sorted, unique internal-key entries with prefix-heavy user keys and
    occasional multi-version user keys (same user key, several sequences) —
    the shape that exercises the decoder's rare trailer-overlap branch."""
    user_keys = draw(
        st.lists(
            st.binary(min_size=0, max_size=24).map(lambda b: b"k" + b),
            min_size=1,
            max_size=24,
            unique=True,
        )
    )
    entries = []
    seq = draw(st.integers(1, MAX_SEQUENCE - 40))
    for user_key in sorted(user_keys):
        versions = draw(st.integers(1, 3))
        for v in range(versions):
            value_type = draw(st.sampled_from([TYPE_VALUE, TYPE_DELETION]))
            value = draw(st.binary(max_size=40))
            # Newer (higher-sequence) versions sort first within a user key.
            entries.append(
                (make_internal_key(user_key, seq + versions - v, value_type), value)
            )
    return entries


@given(internal_entries(), st.integers(1, 5))
@settings(deadline=None)
def test_block_builder_matches_reference_builder(entries, restart_interval):
    """The run loop's block payload is byte-identical to the reference
    builder's."""
    ref = reference.ReferenceBlockBuilder(restart_interval=restart_interval)
    for key, value in entries:
        ref.add(key, value)
    assert encode_block(entries, restart_interval) == ref.finish()


@given(internal_entries(), st.integers(1, 5))
@settings(deadline=None)
def test_block_decode_matches_reference(entries, restart_interval):
    """Fused entry decode recovers exactly what the reference decode does."""
    payload = encode_block(entries, restart_interval)
    block = DataBlock.parse(payload)
    ref_keys, ref_values = reference.parse_block(payload)
    assert block.keys == ref_keys
    assert block.values == ref_values


@given(internal_entries(), st.integers(1, 5), st.binary(max_size=26))
@settings(deadline=None)
def test_lazy_block_get_matches_eager(entries, restart_interval, probe):
    """A point read's raw block answers as the eager whole-block lookup
    does, for present and absent keys alike, at several snapshots: on its
    first touch (the walk over the raw entries, from the restart region a
    binary search picks), which leaves it raw, and its second, which
    decodes it in place.  So does the frozen region-at-a-time block it
    replaced."""
    payload = encode_block(entries, restart_interval)
    raw = wrap_block(payload)
    eager = DataBlock.parse(payload)
    user_keys = {key[:-8] for key, _ in entries}
    for snapshot in (MAX_SEQUENCE, MAX_SEQUENCE // 2, 1):
        lazy = reference.LazyDataBlock(payload)
        for user_key in sorted(user_keys) + [probe, b"", b"\xff" * 30]:
            expected = eager.get(user_key, snapshot)
            assert lazy.get(user_key, snapshot) == expected
            block = parse_block_raw(raw, lazy=True)
            assert block.get(user_key, snapshot) == expected
            assert block.keys is None and block.raw is raw
            assert block.get(user_key, snapshot) == expected
            assert (block.keys, block.values) == (eager.keys, eager.values)
            assert block.raw is None
    # Every other use of a raw block serves the decoded entry lists;
    # ``user_keys`` alone leaves it raw.
    block = parse_block_raw(raw, lazy=True)
    assert block.user_keys() == eager.user_keys()
    assert block.keys is None
    assert block.memory_bytes() == eager.memory_bytes()
    assert list(block.entries()) == list(eager.entries())
    assert block.raw is None and block.memory_bytes() == eager.memory_bytes()
    assert block.user_keys() == eager.user_keys()
    block = parse_block_raw(raw, lazy=True)
    assert len(block) == len(eager) and block.keys == eager.keys
    block = parse_block_raw(raw, lazy=True)
    seek = eager.keys[len(eager.keys) // 2]
    assert list(block.entries_from(seek)) == list(eager.entries_from(seek))


@given(st.binary(max_size=80))
@settings(deadline=None)
def test_block_decode_corruption_matches_reference(payload):
    """On arbitrary bytes the fast decoder fails (with CorruptionError and
    nothing else) whenever the reference fails, and matches its output
    whenever the reference succeeds."""
    try:
        expected = reference.parse_block(payload)
    except Exception:
        # Reference failure (however it fails) must be a clean
        # CorruptionError in the optimized decoder.
        with pytest.raises(CorruptionError):
            DataBlock.parse(payload)
    else:
        block = DataBlock.parse(payload)
        assert (block.keys, block.values) == expected


def _entries_before_damage(payload: bytes):
    """The entries ``reference.parse_block`` decodes from the front of a
    ``payload`` of one restart or none before it meets damage, and whether
    it met any."""
    data_end = len(payload) - 4 - 4 * reference.decode_fixed32(payload, len(payload) - 4)
    entries = []
    offset = 0
    prev_key = b""
    try:
        while offset < data_end:
            shared, offset = reference.decode_varint(payload, offset)
            non_shared, offset = reference.decode_varint(payload, offset)
            value_len, offset = reference.decode_varint(payload, offset)
            key_end = offset + non_shared
            value_end = key_end + value_len
            if shared > len(prev_key) or value_end > data_end or shared + non_shared < 8:
                return entries, True
            key = prev_key[:shared] + payload[offset:key_end]
            entries.append((comparable_from_internal(key), payload[key_end:value_end]))
            prev_key = key
            offset = value_end
    except CorruptionError:
        return entries, True
    return entries, False


@given(
    st.binary(max_size=80),
    st.one_of(
        st.sampled_from([struct.pack("<II", 0, 1), struct.pack("<I", 0)]),
        st.binary(min_size=4, max_size=12),
    ),
    st.binary(max_size=12),
    st.integers(0, MAX_SEQUENCE),
)
@settings(deadline=None)
@example(body=b"\x00\x08\x00" + b"\x00" * 8, restarts=struct.pack("<II", 0, 1),
         user_key=b"", snapshot=0)
def test_deferred_walk_corruption_matches_eager(body, restarts, user_key, snapshot):
    """On arbitrary bytes, a raw block's first-touch walk raises
    CorruptionError and nothing else.  Over one restart region (or none)
    it raises, or gives the answer of the first entry at or past the seek
    key among those the eager decode reads before any damage — which is
    the eager block's own answer when the decode succeeds and its keys are
    in order.  It raises whenever it would have to read past the damage
    to answer.  (Over several regions it trusts the restart array, as the
    checksum has been verified.)"""
    payload = body + restarts
    try:
        block = parse_block_raw(wrap_block(payload), lazy=True)
    except CorruptionError:
        return  # the restart array overruns the payload: the eager open refuses it too
    try:
        got = block.get(user_key, snapshot)
    except CorruptionError:
        got = None
    if reference.decode_fixed32(payload, len(payload) - 4) > 1:
        return
    entries, damaged = _entries_before_damage(payload)
    seek = (user_key, comparable_key(user_key, snapshot, TYPE_VALUE)[1])
    at = next((i for i, (key, _) in enumerate(entries) if key >= seek), None)
    if at is None:
        assert got == (None if damaged else (False, None))
        return
    (found_user, inverted), value = entries[at]
    if found_user != user_key:
        expected = (False, None)
    elif (((1 << 64) - 1 - inverted) & 0xFF) == TYPE_DELETION:
        expected = (True, None)
    else:
        expected = (True, value)
    assert got == expected
    keys = [key for key, _ in entries]
    if not damaged and keys == sorted(keys):
        assert DataBlock.parse(payload).get(user_key, snapshot) == expected


# ----------------------------------------------------------------- merge stack


@st.composite
def entry_sources(draw, max_sources=6):
    """Sorted entry streams with globally-unique comparable keys (sequence
    numbers are unique engine-wide, as in the real LSM)."""
    num_sources = draw(st.integers(0, max_sources))
    user_keys = draw(
        st.lists(st.binary(max_size=6), min_size=0, max_size=30, unique=True)
    )
    seq = 1
    flat = []
    for user_key in user_keys:
        for _ in range(draw(st.integers(1, 3))):
            value_type = draw(st.sampled_from([TYPE_VALUE, TYPE_DELETION]))
            flat.append((comparable_key(user_key, seq, value_type), b"v%d" % seq))
            seq += 1
    sources = [[] for _ in range(num_sources)]
    for entry in flat:
        if num_sources:
            sources[draw(st.integers(0, num_sources - 1))].append(entry)
    return [sorted(source) for source in sources], seq


@given(entry_sources())
@settings(deadline=None)
def test_merge_entries_matches_heapq_merge(sources_seq):
    """Fused 1/2/k-way merge equals ``heapq.merge`` on the same streams."""
    sources, _ = sources_seq
    expected = list(reference.merge_sorted([list(s) for s in sources])) if sources else []
    assert list(merge_entries([iter(s) for s in sources])) == expected


@given(entry_sources(), st.integers(0, 40))
@settings(deadline=None)
def test_merge_visible_matches_reference_stack(sources_seq, snapshot):
    """Fused merge+visibility equals heapq.merge + visible_entries."""
    sources, max_seq = sources_seq
    snapshot = min(snapshot, max_seq)
    expected = list(
        reference.merge_visible([list(s) for s in sources], snapshot)
    )
    assert list(merge_visible([iter(s) for s in sources], snapshot)) == expected


@given(entry_sources(), st.integers(0, 40), st.binary(max_size=4))
@settings(deadline=None)
def test_merge_visible_end_bound_matches_reference(sources_seq, snapshot, end):
    """The early-stopping end bound yields the same rows as the reference
    post-filtering stack."""
    sources, max_seq = sources_seq
    snapshot = min(snapshot, max_seq)
    expected = list(
        reference.merge_visible([list(s) for s in sources], snapshot, end)
    )
    assert list(merge_visible([iter(s) for s in sources], snapshot, end)) == expected


@given(entry_sources(), st.integers(0, 40))
@settings(deadline=None)
def test_visible_entries_matches_reference(sources_seq, snapshot):
    """The fused one-source visibility pass over an already-merged stream
    equals the reference's two-stage visibility pass."""
    sources, max_seq = sources_seq
    snapshot = min(snapshot, max_seq)
    merged = list(reference.merge_sorted([list(s) for s in sources])) if sources else []
    assert list(merge_visible([iter(merged)], snapshot)) == list(
        reference.visible_entries(iter(merged), snapshot)
    )


boundary_lists = st.one_of(
    st.just([]),
    st.lists(st.integers(0, 50), min_size=1, max_size=3).map(sorted),
)


@given(entry_sources(), boundary_lists)
@settings(deadline=None)
def test_merge_keep_newest_matches_reference(sources_seq, boundaries):
    """Parent-side compaction merge (fast path and keeper path) equals the
    reference, with and without live-snapshot boundaries."""
    sources, _ = sources_seq
    if not sources:
        sources = [[]]
    expected = list(
        reference.merge_keep_newest([iter(list(s)) for s in sources], boundaries)
    )
    assert (
        list(merge_keep_newest([iter(s) for s in sources], boundaries)) == expected
    )


@given(entry_sources(), boundary_lists, st.booleans())
@settings(deadline=None)
def test_merge_live_matches_reference(sources_seq, boundaries, droppable):
    """Live compaction merge (tombstone dropping included) equals the
    reference for both fast path and keeper path."""
    sources, _ = sources_seq
    if not sources:
        sources = [[]]

    def can_drop(user_key: bytes) -> bool:
        return droppable or user_key.endswith(b"\x01")

    expected = list(
        reference.merge_live([iter(list(s)) for s in sources], can_drop, boundaries)
    )
    merged = merge_live([iter(s) for s in sources], can_drop, boundaries)
    assert _internal_rows(merged) == expected


def _internal_rows(rows) -> list[tuple[bytes, bytes, bool]]:
    """``merge_live``'s ``(comparable, value)`` rows in the reference's
    ``(internal_key, value, is_tombstone)`` form."""
    return [
        (comparable_to_internal(comparable), value, comparable[1] & 0xFF == 0xFF)
        for comparable, value in rows
    ]


def test_merge_roundtrip_internal_keys():
    """merge_live's comparable keys round-trip through the internal keys the
    table writers build from them."""
    entries = [
        (comparable_key(b"a", 9, TYPE_VALUE), b"x"),
        (comparable_key(b"a", 5, TYPE_VALUE), b"y"),
        (comparable_key(b"b", 7, TYPE_DELETION), b""),
    ]
    rows = list(merge_live([iter(entries)], lambda _k: False))
    assert [comparable_from_internal(comparable_to_internal(ck)) for ck, _v in rows] == [
        entries[0][0],
        entries[2][0],
    ]
    assert _internal_rows(rows)[0][0] == comparable_to_internal(entries[0][0])
    assert _internal_rows(rows)[1] == (comparable_to_internal(entries[2][0]), b"", True)


# ------------------------------------------------------------------- scheduler


@given(
    st.lists(st.floats(0.0, 1e6, allow_nan=False), max_size=60),
    st.integers(1, 12),
)
def test_lpt_makespan_matches_linear_scan(durations, workers):
    """Heap-based LPT is bit-identical to the reference linear-scan LPT."""
    assert lpt_makespan(durations, workers) == reference.lpt_makespan(
        durations, workers
    )


# --------------------------------------------------------------------- catalog

_LEVELS = 4
_KEY_SPACE = 200
#: Mostly legal edits, so sequences grow long before one is rejected.
_EDIT_KINDS = ["add"] * 12 + ["delete"] * 6 + ["update"] * 17 + ["unknown"]


def _user_key(ordinal: int) -> bytes:
    return b"%03d" % ordinal


def _file(number: int, lo: int, hi: int, size: int = 1000, valid: int = 1000) -> FileMetadata:
    return FileMetadata(
        file_number=number,
        file_size=size,
        valid_bytes=valid,
        num_entries=hi - lo + 1,
        smallest=make_internal_key(_user_key(lo), 9, TYPE_VALUE),
        largest=make_internal_key(_user_key(hi), 2, TYPE_DELETION),
    )


def _assert_catalogs_agree(version: Version, ref: reference.ReferenceVersion, data) -> None:
    assert version.levels == ref.levels
    assert version.num_files() == sum(len(files) for files in ref.levels)
    for level in range(_LEVELS):
        assert version.level_valid_bytes(level) == ref.level_valid_bytes(level)
        assert version.level_file_bytes(level) == ref.level_file_bytes(level)
        assert version.level_obsolete_bytes(level) == ref.level_obsolete_bytes(level)
    bound = st.one_of(st.none(), st.integers(-1, _KEY_SPACE + 1).map(_user_key))
    for _ in range(4):
        level = data.draw(st.integers(0, _LEVELS - 1))
        lo, hi = data.draw(bound), data.draw(bound)
        if data.draw(st.booleans()):
            hi = lo  # a point range (or fully open)
        assert version.overlapping_files(level, lo, hi) == ref.overlapping_files(level, lo, hi)
        if lo is not None and hi is not None:
            assert version.is_key_range_absent_below(level, lo, hi) == (
                not any(
                    ref.overlapping_files(deeper, lo, hi)
                    for deeper in range(level + 1, _LEVELS)
                )
            )
            if level > 0:
                holders = ref.overlapping_files(level, lo, lo)
                assert version.file_for_key(level, lo) == (holders[0] if holders else None)


def _assert_catalog_invariants(version: Version) -> None:
    """What must hold even after a rejected edit: the catalog rule's
    structural clauses (no filesystem)."""
    assert catalog_violations(version) == []


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_version_matches_reference_catalog(data):
    """Random edit sequences — adds (sorted levels and out-of-order L0
    numbers), deletes (known and unknown), in-place updates that lower,
    raise, shrink or move a file's bounds and change its sizes, multi-file
    edits, overlapping adds and unknown-file updates — leave the bisecting
    catalog and the re-sorting reference with equal levels, equal query
    answers and equal running totals after every edit; a rejected edit
    raises the same error in both and leaves the catalog's invariants
    intact."""
    version, ref = Version(_LEVELS), reference.ReferenceVersion(_LEVELS)
    unused = list(range(1, 400))
    key = st.integers(0, _KEY_SPACE)

    def fresh_number() -> int:
        return unused.pop(data.draw(st.integers(0, min(5, len(unused) - 1))))

    def draw_range() -> tuple[int, int]:
        lo = data.draw(key)
        return lo, min(_KEY_SPACE, lo + data.draw(st.integers(0, 6)))

    for _ in range(data.draw(st.integers(1, 25))):
        edit = VersionEdit()
        touched: set[int] = set()  # an edit names a live file at most once
        for _ in range(data.draw(st.integers(1, 3))):
            live = [
                (lv, f)
                for lv, files in enumerate(ref.levels)
                for f in files
                if f.file_number not in touched
            ]
            kind = data.draw(st.sampled_from(_EDIT_KINDS))
            if kind == "add" or not live:
                level = data.draw(st.integers(0, _LEVELS - 1))
                edit.new_files.append((level, _file(fresh_number(), *draw_range())))
            elif kind == "delete":
                level, victim = data.draw(st.sampled_from(live))
                touched.add(victim.file_number)
                edit.deleted_files.append((level, victim.file_number))
                if data.draw(st.booleans()):
                    edit.deleted_files.append((level, 10_000))  # never existed: ignored
            elif kind == "update":
                level, old = data.draw(st.sampled_from(live))
                touched.add(old.file_number)
                lo = int(old.smallest_user_key) + data.draw(st.integers(-4, 4))
                hi = int(old.largest_user_key) + data.draw(st.integers(-4, 4))
                lo = max(0, min(lo, _KEY_SPACE))
                hi = max(lo, min(hi, _KEY_SPACE))
                size = data.draw(st.integers(1, 5000))
                edit.updated_files.append(
                    (level, _file(old.file_number, lo, hi, size, data.draw(st.integers(0, size))))
                )
            else:
                level = data.draw(st.integers(0, _LEVELS - 1))
                edit.updated_files.append((level, _file(10_001, *draw_range())))
        try:
            ref.apply(edit)
        except InvalidArgumentError as exc:
            hypothesis.event(
                "rejected: "
                + ("unknown file" if "unknown" in str(exc) else "overlap")
                + (" (edit has updates)" if edit.updated_files else "")
            )
            with pytest.raises(InvalidArgumentError) as caught:
                version.apply(edit)
            if "unknown file" in str(exc):
                assert str(caught.value) == str(exc)
            _assert_catalog_invariants(version)
            # Stopping before the offending file (the reference stops after
            # placing it) loses nothing: a rejected update keeps the old entry.
            added = {meta.file_number for _, meta in edit.new_files}
            kept = {f.file_number for files in ref.levels for f in files} - added
            assert kept <= {meta.file_number for _, meta in version.all_files()}
            return  # the reference's level is now corrupt: nothing left to compare
        version.apply(edit)
        _assert_catalogs_agree(version, ref, data)
    _assert_catalog_invariants(version)


# ------------------------------------------------------------------ level seek


@st.composite
def _sorted_level(draw) -> list[FileMetadata]:
    """A sorted level of disjoint files with gaps between them; some files
    hold a single key (smallest == largest)."""
    ordinals = sorted(draw(st.lists(st.integers(0, _KEY_SPACE), unique=True, max_size=60)))
    files, at = [], 0
    while at < len(ordinals):
        span = 1 if at + 1 == len(ordinals) else draw(st.integers(1, 2))
        files.append(_file(len(files) + 1, ordinals[at], ordinals[at + span - 1]))
        at += span
    return files


@given(_sorted_level(), _sorted_level())
@settings(deadline=None)
def test_seek_index_matches_linear_walk(level1, level2):
    """Where a scan enters a sorted level: the superversion's bisect gives
    the file the linear walk stops at, for every start key — before the
    first file, inside a file, in a gap, equal to a file's largest key, past
    the last file, and on an empty level — and agrees with ``file_for_key``
    over the array the two share."""
    sv = SuperVersion(1, None, None, [[], level1, level2], lambda _sv: None)
    for level, files in ((1, level1), (2, level2)):
        for ordinal in range(-1, _KEY_SPACE + 2):
            key = _user_key(ordinal) if ordinal >= 0 else b""
            index = sv.seek_index(level, key)
            assert index == reference.level_seek_linear(files, key)
            holder = sv.file_for_key(level, key)
            if index < len(files) and files[index].smallest_user_key <= key:
                assert holder is files[index]
            else:
                assert holder is None


# --------------------------------------------------------------------- filters


@given(
    st.lists(st.binary(max_size=12), max_size=60, unique=True),
    st.integers(1, 16),
    st.sampled_from([0.0, 0.1, 0.4]),
    st.lists(st.binary(min_size=13, max_size=16), max_size=40, unique=True),
)
@settings(deadline=None)
def test_bulk_filter_build_matches_per_key_adds(keys, bits_per_key, reserved, extra):
    """``build_filter`` and the reserved-bits absorb path (both one
    ``add_many``) serialize byte-identically to a per-key reference ``add``
    loop, and overflow with the same error."""
    bulk = build_filter(keys, bits_per_key, reserved)
    if reserved > 0:
        loop = ReservedBloomFilter(len(keys), bits_per_key, reserved)
    else:
        loop = BloomFilter(len(keys), bits_per_key)
    for key in keys:
        reference.bloom_add(loop, key)
    assert bulk.serialize() == loop.serialize()
    # Absorbing appended keys into whatever headroom the filter has.
    try:
        for key in extra:
            reference.bloom_add(loop, key)
    except OverflowError as exc:
        with pytest.raises(OverflowError) as caught:
            bulk.add_many(extra)
        assert str(caught.value) == str(exc)
    else:
        bulk.add_many(extra)
        assert bulk.serialize() == loop.serialize()
        assert all(bulk.may_contain(key) for key in keys + extra)


def _assert_table_filter_matches_reference(flt, bloom, keys, probes):
    """``flt.may_contain`` — the byte-table check — answers as the
    reference check over ``bloom``'s bits, with and without the passed
    hash; the table is built at the first check and reused after it."""
    for key in keys + probes:
        expected = reference.bloom_may_contain(bloom, key)
        assert flt.may_contain(key) == expected
        table = flt._probe_table
        assert table is not None and len(table[0]) == bloom.num_bits
        assert flt.may_contain(key, _hash_pair(key)) == expected
        assert flt._probe_table is table  # a second check reuses the table
    assert all(flt.may_contain(key, _hash_pair(key)) for key in keys)


@given(
    st.lists(st.binary(max_size=12), max_size=60, unique=True),
    st.integers(1, 16),
    st.sampled_from([0.0, 0.1, 0.4]),
    st.lists(st.binary(max_size=14), max_size=60),
    st.lists(st.binary(min_size=13, max_size=16), max_size=12, unique=True),
)
@example([], 1, 0.0, [b"", b"a"], [])  # a 0-key filter at the 64-bit floor
@example([b"k0", b"k1", b"k2", b"k3", b"k4"], 10, 0.4, [b"a"], [b"absorbed-key-1"])
@settings(deadline=None)
def test_filter_check_with_a_passed_hash_matches_reference_check(
    keys, bits_per_key, reserved, probes, absorbed
):
    """``may_contain`` — given the lookup's one ``_hash_pair`` or deriving
    it — answers as the reference check (a hash per call, a masked running
    sum per probe) does, for plain and reserved filters, members and
    strangers, before and after a serialize round trip.

    ``TableFilter.may_contain`` runs its own probe loop over a byte table
    built at its first check, so it is held to the same reference: on the
    filter as built, after a round trip through the filter blob, and on a
    reserved filter re-wrapped after absorbing ``absorbed`` keys (as an
    append does) — the old wrapper, its table already built, still
    answers for the bits it wrapped."""
    built = build_filter(keys, bits_per_key, reserved)
    for flt in (built, BloomFilter.deserialize(built.serialize())):
        for key in keys + probes:
            expected = reference.bloom_may_contain(flt, key)
            assert flt.may_contain(key) == expected
            assert flt.may_contain(key, _hash_pair(key)) == expected
        assert all(flt.may_contain(key, _hash_pair(key)) for key in keys)

    table_filter = TableFilter(built)
    assert table_filter._probe_table is None  # nothing built before a check
    _assert_table_filter_matches_reference(table_filter, built, keys, probes)
    clone = deserialize_filter(table_filter.serialize())
    assert clone.serialize() == table_filter.serialize()
    assert clone.memory_bytes() == built.memory_bytes()
    _assert_table_filter_matches_reference(clone, clone.bloom, keys, probes)

    if isinstance(built, ReservedBloomFilter) and built.can_absorb(len(absorbed)):
        bloom = ReservedBloomFilter.deserialize(built.serialize())
        bloom.add_many(absorbed)
        grown = TableFilter(bloom)
        _assert_table_filter_matches_reference(grown, bloom, keys + absorbed, probes)
        _assert_table_filter_matches_reference(table_filter, built, keys, probes + absorbed)


# -------------------------------------------------------------------- memtable

_memtable_keys = st.sampled_from([b"", b"a", b"ab", b"b", b"key1", b"key2", b"zz"])


@given(
    st.lists(
        st.tuples(_memtable_keys, st.sampled_from([TYPE_VALUE, TYPE_VALUE, TYPE_DELETION]),
                  st.binary(max_size=6)),
        max_size=40,
    ),
    st.lists(st.tuples(st.one_of(_memtable_keys, st.binary(max_size=4)),
                       st.integers(0, 45)), max_size=40),
)
def test_memtable_get_with_key_set_matches_skiplist_only_get(history, reads):
    """``MemTable.get`` — a key-set miss answered before the chunks are
    searched — equals the reference skiplist-only get for every key (held,
    deleted, never seen) at every snapshot sequence, including those
    older than the key's first entry; freezing changes nothing.  The
    skiplist the memtable used to be (``reference.SkipList``), fed the same
    adds, holds exactly the memtable's entries, so the reference get seeks
    that map."""
    memtable = MemTable()
    skiplist = reference.SkipList()
    for sequence, (key, value_type, value) in enumerate(history, start=1):
        value = value if value_type == TYPE_VALUE else b""
        memtable.add(sequence, value_type, key, value)
        skiplist.insert(comparable_key(key, sequence, value_type), value)
    assert memtable._user_keys == {key for key, _type, _value in history}
    assert list(memtable.entries()) == list(skiplist.items())
    for frozen in (False, True):
        if frozen:
            memtable.freeze()
        for key, snapshot in reads + [(key, 0) for key, _t, _v in history]:
            assert memtable.get(key, snapshot) == reference.memtable_get_seek(
                memtable, key, snapshot
            )


# --------------------------------------------------------------- table builder


def _filter_options(bits_per_key: int) -> dict:
    """The ``Options`` spelling of the reference's ``bits_per_key``, where
    0 means no filter."""
    if bits_per_key == 0:
        return {"filter_policy": FILTER_NONE}
    return {"bloom_bits_per_key": bits_per_key}


def _table_options(block_size: int, bits_per_key: int) -> Options:
    return Options(block_size=block_size, **_filter_options(bits_per_key))


@given(
    internal_entries(),
    st.sampled_from([64, 96, 200]),
    st.sampled_from([0, 10]),
    st.integers(0, 6),
)
@settings(deadline=None)
def test_table_builder_matches_reference_table(entries, block_size, bits_per_key, level):
    """The run loop (``TableBuilder.add_run`` over comparable entries)
    writes the very file the reference per-entry path assembles from the
    same entries as internal keys — block cuts that never split a user
    key's versions, index, reserved-bits filter and footer included."""
    options = _table_options(block_size, bits_per_key)
    fs = SimulatedFS()
    builder = TableBuilder(fs, "000001.sst", options, level)
    assert builder.add_run(_comparable_entries(entries)) is None
    info = builder.finish()
    expected = reference.build_table_bytes(
        entries,
        block_size=block_size,
        restart_interval=RESTART_INTERVAL,
        bits_per_key=bits_per_key,
        reserved_fraction=options.bloom_reserved_fraction(level),
    )
    with fs.open_random("000001.sst") as f:
        assert f.read(0, info.file_size, category="meta") == expected
    assert info.file_size == len(expected)
    assert (info.smallest, info.largest) == (entries[0][0], entries[-1][0])


def _comparable_entries(entries) -> list:
    """(internal key, value) pairs in the merges' ``(comparable, value)`` form."""
    return [(comparable_from_internal(key), value) for key, value in entries]


def _build_with_table_builder(pairs) -> None:
    builder = TableBuilder(SimulatedFS(), "000001.sst", _table_options(64, 0), 1)
    builder.add_run(_comparable_entries(pairs))


def _build_with_reference(pairs) -> None:
    reference.build_table_bytes(
        pairs, block_size=64, restart_interval=RESTART_INTERVAL, bits_per_key=0,
        reserved_fraction=0.0,
    )


@pytest.mark.parametrize("build", [_build_with_table_builder, _build_with_reference])
@pytest.mark.parametrize(
    "second",
    [
        make_internal_key(b"j", 50, TYPE_VALUE),  # a smaller user key
        make_internal_key(b"k", 7, TYPE_VALUE),  # same user key, same trailer
        make_internal_key(b"k", 8, TYPE_DELETION),  # same user key, newer sequence
    ],
)
def test_table_builder_rejects_order_violations(build, second):
    """The three ways an entry can be out of internal-key order raise the
    same ``ValueError`` from the user-key-first check as from the
    reference's full comparable-key check; the legal successor — same user
    key, older sequence — is accepted by both."""
    first = make_internal_key(b"k", 7, TYPE_VALUE)
    with pytest.raises(ValueError, match="increasing internal-key order"):
        build([(first, b"v"), (second, b"w")])
    build([(first, b"v"), (make_internal_key(b"k", 6, TYPE_DELETION), b"")])


class _OutputEnv:
    """The slice of a compaction env ``build_output_tables`` uses."""

    def __init__(self, options: Options):
        self.fs = SimulatedFS()
        self.options = options
        self._numbers = iter(range(1, 1 << 30))

    def new_file_number(self) -> int:
        return next(self._numbers)


def _written_tables(env: _OutputEnv, outputs) -> list[bytes]:
    """Each output file's bytes, after checking that no user key straddles
    two of its blocks or two files."""
    from repro.sstable.table_reader import TableReader

    for before, after in zip(outputs, outputs[1:]):
        assert before.largest_user_key < after.smallest_user_key
    tables = []
    for meta in outputs:
        reader = TableReader(env.fs, meta.file_name(), meta.file_number, "meta")
        blocks = reader.index.entries
        for before, after in zip(blocks, blocks[1:]):
            assert before.largest_user_key < after.smallest_user_key
        tables.append(env.fs.contents(meta.file_name()))
    return tables


@st.composite
def output_sources(draw):
    """Entry streams for a compaction's output: variable-length user keys,
    many with their one-byte-shorter prefix present too (the two internal
    keys then share bytes past the user key), one to four versions a key,
    tombstones, and values of 0 to 300 bytes."""
    drawn = draw(st.lists(st.binary(min_size=1, max_size=10), min_size=1, max_size=25, unique=True))
    user_keys = set(drawn)
    for user_key in drawn:
        if draw(st.booleans()):
            user_keys.add(user_key[:-1])
    sequence = 1
    flat = []
    for user_key in user_keys:
        for _ in range(draw(st.integers(1, 4))):
            value_type = draw(st.sampled_from([TYPE_VALUE, TYPE_VALUE, TYPE_DELETION]))
            value = bytes([sequence & 0xFF]) * draw(st.integers(0, 300))
            flat.append((comparable_key(user_key, sequence, value_type), value))
            sequence += 1
    sources = [[] for _ in range(draw(st.integers(1, 3)))]
    for entry in flat:
        sources[draw(st.integers(0, len(sources) - 1))].append(entry)
    return [sorted(source) for source in sources]


@given(
    output_sources(),
    boundary_lists.map(lambda bounds: [b * 2 for b in bounds]),
    st.booleans(),
    st.sampled_from([64, 256]),
    st.integers(0, 1500),
    st.sampled_from([0, 10]),
)
@settings(deadline=None)
def test_build_output_tables_matches_rotating_reference(
    sources, boundaries, droppable, block_size, extra, bits_per_key
):
    """``build_output_tables`` over a merged stream — one run per output
    file, stopped by size at a user-key change — writes the same files
    (bytes and boundaries) as the reference's per-entry rotation at
    ``sstable_size``, live snapshots keeping several versions of a key
    together in one block and one file."""
    from repro.compaction.table_compaction import build_output_tables

    options = Options(
        block_size=block_size,
        sstable_size=block_size + extra,
        **_filter_options(bits_per_key),
    )
    merged = list(merge_live([iter(s) for s in sources], lambda _k: droppable, boundaries))
    env = _OutputEnv(options)
    outputs = build_output_tables(env, iter(merged), 2)
    expected = reference.build_output_tables_bytes(
        [(comparable_to_internal(ck), value) for ck, value in merged],
        sstable_size=options.sstable_size,
        block_size=block_size,
        restart_interval=RESTART_INTERVAL,
        bits_per_key=bits_per_key,
        reserved_fraction=options.bloom_reserved_fraction(2),
    )
    assert _written_tables(env, outputs) == expected


def test_output_rotation_lands_exactly_on_a_user_key_change():
    """At a new user key the rotation check comes before the block cut: a
    file whose size estimate reaches ``sstable_size`` exactly at a user-key
    change ends there, and one byte more cuts the block instead and lets the
    file run on — never between two versions of one key."""
    from repro.compaction.table_compaction import build_output_tables

    block_size = 1024
    entries = []
    sequence = 10_000
    for i in range(30):
        for version in range(1 + i % 3):
            value_type = TYPE_DELETION if version == 1 else TYPE_VALUE
            value = b"" if value_type == TYPE_DELETION else b"v" * (60 + 7 * i)
            entries.append((make_internal_key(b"key%03d" % i, sequence, value_type), value))
            sequence -= 1
    # The reference block's size estimate at the first user-key change that
    # reaches the block size: the file's size estimate there (no cut yet).
    block = reference.ReferenceBlockBuilder(RESTART_INTERVAL)
    for boundary, (key, value) in enumerate(entries):
        new_user_key = key[:-8] != entries[boundary - 1][0][:-8]
        if new_user_key and block.current_size_estimate() >= block_size:
            break
        block.add(key, value)
    estimate = block.current_size_estimate()
    assert entries[boundary - 1][0][:-8] == entries[boundary - 2][0][:-8]  # a multi-version key
    for sstable_size in (estimate, estimate + 1):
        options = Options(block_size=block_size, sstable_size=sstable_size)
        env = _OutputEnv(options)
        outputs = build_output_tables(env, iter(_comparable_entries(entries)), 1)
        expected = reference.build_output_tables_bytes(
            entries,
            sstable_size=sstable_size,
            block_size=block_size,
            restart_interval=RESTART_INTERVAL,
            bits_per_key=options.bloom_bits_per_key,
            reserved_fraction=options.bloom_reserved_fraction(1),
        )
        tables = _written_tables(env, outputs)
        assert tables == expected
        first_file_entries = outputs[0].num_entries
        if sstable_size == estimate:
            assert first_file_entries == boundary
        else:
            assert first_file_entries > boundary


# ------------------------------------------------- stored blocks and the index


@st.composite
def wide_internal_entries(draw):
    """Sorted internal-key entries whose headers leave the one-byte fast
    path: user keys past 127 bytes, values past 127 bytes and past 16 KiB
    (two- and three-byte varints)."""
    sizes = st.one_of(st.integers(0, 24), st.integers(120, 200))
    user_keys = draw(
        st.lists(
            sizes.flatmap(lambda n: st.binary(min_size=n, max_size=n)).map(lambda b: b"k" + b),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    value_sizes = st.sampled_from([0, 1, 127, 128, 300, 16383, 16384, 20000])
    seq = draw(st.integers(1, MAX_SEQUENCE - 2))
    return [
        (
            make_internal_key(user_key, seq, TYPE_VALUE),
            bytes([draw(st.integers(0, 255))]) * draw(value_sizes),
        )
        for user_key in sorted(user_keys)
    ]


@given(
    st.one_of(internal_entries(), wide_internal_entries()),
    st.sampled_from([64, 200, 4096]),
    st.integers(1, 5),
)
@settings(deadline=None)
def test_cutter_block_is_the_wrapped_finished_payload(entries, block_size, restart_interval):
    """``BlockCutter.cut`` assembles a stored block with one join and a
    CRC continued over the restart array; byte for byte it is the
    reference payload with the reference trailer — and what ``wrap_block``
    of the payload gives."""
    from repro.sstable.format import wrap_block

    emitted = []
    cutter = BlockCutter(
        block_size, restart_interval,
        lambda raw, _lo, _hi, count, _keys: emitted.append((raw, count)),
    )
    assert cutter.add_run(_comparable_entries(entries)) is None
    cutter.cut()
    assert sum(count for _raw, count in emitted) == len(entries)
    start = 0
    for raw, count in emitted:
        ref = reference.ReferenceBlockBuilder(restart_interval=restart_interval)
        for key, value in entries[start : start + count]:
            ref.add(key, value)
        assert raw == reference.stored_block(ref.finish())
        assert raw == wrap_block(encode_block(entries[start : start + count], restart_interval))
        start += count


@st.composite
def index_entry_lists(draw):
    from repro.sstable.index import IndexEntry

    entries = []
    for lo, hi in zip(*[iter(draw(wide_internal_entries()))] * 2):
        entries.append(
            IndexEntry(
                lo[0],
                hi[0],
                draw(st.one_of(st.integers(0, 127), st.integers(128, 1 << 40))),
                draw(st.one_of(st.integers(0, 127), st.integers(128, 1 << 22))),
                draw(st.one_of(st.integers(0, 127), st.integers(128, 1 << 15))),
            )
        )
    return entries


@given(index_entry_lists())
@settings(deadline=None)
def test_index_serialize_matches_reference_writer(entries):
    """The one-join ``IndexBlock.serialize`` writes the bytes the
    ``BufferWriter`` version wrote, reports their length as its memory
    cost, and decodes back to the same entries."""
    from repro.sstable.index import IndexBlock

    block = IndexBlock(entries)
    payload = block.serialize()
    assert payload == reference.index_block_serialize(entries)
    assert block.memory_bytes() == len(payload)
    parsed = IndexBlock.deserialize(payload)
    assert parsed.entries == entries
    assert parsed.memory_bytes() == block.memory_bytes()


# ---------------------------------------------------------------- SimulatedFS

_FS_NAMES = ["a", "b", "c"]
_fs_payloads = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=40),
    st.binary(min_size=1, max_size=40).map(bytearray),
    st.binary(min_size=1, max_size=40).map(memoryview),
)
_fs_spans = st.tuples(st.integers(-2, 130), st.integers(-1, 130))
_fs_ops = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(_FS_NAMES)),
    st.tuples(st.just("append"), st.sampled_from(_FS_NAMES), _fs_payloads),
    st.tuples(st.just("append"), st.sampled_from(_FS_NAMES), _fs_payloads),
    st.tuples(st.just("read"), st.sampled_from(_FS_NAMES), _fs_spans),
    st.tuples(st.just("read_many"), st.sampled_from(_FS_NAMES), st.lists(_fs_spans, max_size=4)),
    st.tuples(st.just("truncate"), st.sampled_from(_FS_NAMES), st.integers(0, 130)),
    st.tuples(st.just("rename"), st.sampled_from(_FS_NAMES), st.sampled_from(_FS_NAMES)),
    st.tuples(st.just("delete"), st.sampled_from(_FS_NAMES)),
)


def _fs_outcome(call):
    """What an op gave: its value, or the type and text of its error."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def _fs_apply(store, op):
    kind, name, *rest = op
    if kind == "create":
        return store._create(name)
    if kind == "append":
        return store._append(name, rest[0])
    if kind == "read":
        return store._read(name, *rest[0])
    if kind == "read_many":
        return [store._read(name, offset, nbytes) for offset, nbytes in rest[0]]
    if kind == "truncate":
        return store._truncate(name, rest[0])
    if kind == "rename":
        return store.rename(name, rest[0])
    return store._delete(name)


@given(st.lists(_fs_ops, max_size=40))
@settings(deadline=None)
def test_simulated_fs_matches_bytearray_reference(ops):
    """``SimulatedFS`` keeps a file as the chunks appended to it; every
    sequence of backend operations leaves the same bytes, sizes, listing
    and digest as the ``bytearray`` store it replaced — out-of-bounds and
    missing-file errors included, type and message."""
    fast, ref = SimulatedFS(), reference.ReferenceFS()
    for op in ops:
        assert _fs_outcome(lambda: _fs_apply(fast, op)) == _fs_outcome(
            lambda: _fs_apply(ref, op)
        ), op
        assert fast.list_dir() == ref.list_dir()
        for name in _FS_NAMES:
            assert fast.exists(name) == ref.exists(name)
            assert _fs_outcome(lambda: fast.file_size(name)) == _fs_outcome(
                lambda: ref.file_size(name)
            )
            if ref.exists(name):
                assert fast.contents(name) == bytes(ref._files[name])
        assert fast.digest() == ref.digest()
    # The accounted handle reads what the backend reads.
    for name in fast.list_dir():
        size = fast.file_size(name)
        spans = [(0, size), (size // 3, size - size // 3), (size // 2, 0)]
        with fast.open_random(name) as handle:
            assert handle.read_many(spans, category="get") == [
                ref._read(name, *span) for span in spans
            ]


def test_simulated_fs_reads_hand_back_chunks_and_copy_only_their_span():
    """A read that coincides with one append returns that very object; a
    read inside one chunk, or across two, allocates its own span — not the
    file."""
    import tracemalloc

    fs = SimulatedFS()
    fs._create("f")
    chunks = [bytes([i]) * (1 << 20) for i in range(3)]
    for chunk in chunks:
        fs._append("f", chunk)
    mutable = bytearray(b"tail")
    fs._append("f", mutable)
    mutable[:] = b"XXXX"  # the store kept its own copy
    assert fs._read("f", 3 << 20, 4) == b"tail"
    for i, chunk in enumerate(chunks):
        assert fs._read("f", i << 20, 1 << 20) is chunk
    tracemalloc.start()
    try:
        inside = fs._read("f", (1 << 20) + 17, 100)
        across = fs._read("f", (2 << 20) - 50, 100)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inside == bytes([1]) * 100
    assert across == bytes([1]) * 50 + bytes([2]) * 50
    assert peak < 4096
    # replace() and truncate keep the same shape.
    fs._truncate("f", (1 << 20) + 5)
    assert fs._read("f", 0, 1 << 20) is chunks[0]
    assert fs.contents("f") == chunks[0] + bytes([1]) * 5
    fs.replace("f", chunks[2])
    assert fs.contents("f") is chunks[2]


# ------------------------------------------------------------------ write path

#: Value lengths at every varint and fast-path edge of the batch encoder,
#: plus small and middling ones.
_VALUE_LENGTHS = st.one_of(
    st.sampled_from([0, 127, 128, 16_383, 16_384, 70_000]), st.integers(0, 2048)
)
_batch_ops = st.lists(
    st.one_of(
        st.tuples(st.just(TYPE_VALUE), st.binary(min_size=1, max_size=300), _VALUE_LENGTHS),
        st.tuples(st.just(TYPE_DELETION), st.binary(min_size=1, max_size=300), st.just(0)),
    ),
    max_size=6,
)


def _batch_of(ops) -> "WriteBatch":
    from repro.core.write_batch import WriteBatch

    batch = WriteBatch()
    for value_type, key, vlen in ops:
        if value_type == TYPE_VALUE:
            batch.put(key, bytes([vlen % 251]) * vlen)
        else:
            batch.delete(key)
    return batch


def _append_group(writer, batches, base: int) -> int:
    """Serialize ``batches`` from ``base`` as ``DB._apply_locked`` does and
    append them as one group; returns the next base."""
    payloads = []
    for batch in batches:
        payloads.append(batch.serialize(base))
        base += len(batch)
    writer.add_records(payloads)
    return base


@given(
    st.lists(_batch_ops, min_size=1, max_size=8),
    st.integers(1, 1 << 40),
    st.lists(st.integers(0, 7), max_size=2),
)
@settings(deadline=None, max_examples=60)
def test_add_records_writes_exactly_the_reference_frames(groups_ops, base, repeats):
    """A group appended through ``add_records`` is byte-for-byte the
    historical three-layer encoder's output (batch serialize, length
    prefix, ``BufferWriter`` frame), for any key length, every varint
    edge of the value length, deletes, empty batches and a batch that
    appears twice in one group."""
    from repro.memtable.wal import WalWriter

    batches = [_batch_of(ops) for ops in groups_ops]
    batches += [batches[i % len(batches)] for i in repeats]
    fs = SimulatedFS()
    writer = WalWriter(fs, "000001.log")
    _append_group(writer, batches, base)
    assert fs.contents("000001.log") == reference.wal_frames(batches, base)
    assert writer.records_written == len(batches)


@given(_batch_ops, _batch_ops, st.integers(1, 1 << 40))
@settings(deadline=None, max_examples=40)
def test_a_cleared_batch_and_a_batch_written_twice_encode_afresh(first, second, base):
    """``clear()`` leaves nothing of the old ops in the payload, and a batch
    written in two appends is framed at each append's own base."""
    from repro.memtable.wal import WalWriter

    reused = _batch_of(first)
    reused.clear()
    fresh = _batch_of(second)
    for value_type, key, vlen in second:
        if value_type == TYPE_VALUE:
            reused.put(key, bytes([vlen % 251]) * vlen)
        else:
            reused.delete(key)
    assert reused.serialize(base) == fresh.serialize(base)
    assert (reused.byte_size(), reused.deletes) == (fresh.byte_size(), fresh.deletes)
    fs = SimulatedFS()
    writer = WalWriter(fs, "000001.log")
    after = _append_group(writer, [reused], base)
    _append_group(writer, [reused], after)
    assert fs.contents("000001.log") == reference.wal_frames(
        [fresh], base
    ) + reference.wal_frames([fresh], after)


@given(_batch_ops, st.integers(0, (1 << 64) - 1))
@settings(deadline=None)
def test_batch_deserialize_adopts_the_payload(ops, base):
    """``deserialize(serialize(b))`` is ``b``: the same ops, counts and
    payload bytes, which are the reference serializer's."""
    from repro.core.write_batch import WriteBatch

    batch = _batch_of(ops)
    payload = batch.serialize(base)
    assert payload == reference.serialize_batch(batch, base)
    clone, clone_base = WriteBatch.deserialize(payload)
    assert clone_base == base
    assert list(clone) == list(batch)
    assert clone.serialize(base) == payload
    assert (clone.byte_size(), clone.deletes) == (batch.byte_size(), batch.deletes)
    assert batch.byte_size() == sum(len(k) + len(v) for _t, k, v in batch)
    assert batch.deletes == sum(1 for t, _k, _v in batch if t == TYPE_DELETION)


@given(
    st.lists(
        st.tuples(st.integers(0, 1 << 22), st.sampled_from(["wal", "flush", "compaction", "x"])),
        max_size=30,
    ),
    st.floats(0, 1e-3),
)
def test_record_append_equals_the_two_call_sequence(appends, write_op_cost):
    """One ``record_append`` per append leaves every ``IOStats`` field
    ``==`` to counting the write and then charging its time, in that
    order; and ``WritableFile.append`` charges the device's
    ``sequential_write_cost``."""
    from dataclasses import fields

    from repro.storage.device_model import DeviceModel
    from repro.storage.io_stats import IOStats

    device = DeviceModel(write_op_cost=write_op_cost)
    fs = SimulatedFS(device=device)
    handle = fs.create_file("f", category="flush")
    fast, frozen = fs.stats.snapshot(), fs.stats.snapshot()
    for nbytes, category in appends:
        seconds = device.sequential_write_cost(nbytes)
        fast.record_append(nbytes, category, seconds)
        reference.record_write(frozen, nbytes, category)
        frozen.charge_time(seconds, category)
        handle.append(b"\0" * nbytes, category=category)
    for name in (f.name for f in fields(IOStats)):
        assert getattr(fast, name) == getattr(frozen, name), name
        assert getattr(fs.stats, name) == getattr(frozen, name), name
    with pytest.raises(ValueError):
        fast.record_append(1, "wal", -1.0)
