"""SSTable end-to-end: build, read, append sections, filters, corruption."""

import pytest

from conftest import flip_byte
from repro.bloom import ReservedBloomFilter
from repro.errors import CorruptionError
from repro.keys import TYPE_DELETION, TYPE_VALUE, comparable_parts, make_internal_key
from repro.options import FILTER_BLOCK, FILTER_NONE, FILTER_TABLE, Options
from repro.sstable import AppendSession, TableBuilder, TableReader
from repro.sstable.filter_block import BlockFilters, TableFilter
from repro.storage.fs import SimulatedFS

SNAP = 10**9


def opts(**overrides) -> Options:
    params = dict(
        block_size=256,
        sstable_size=4096,
        memtable_size=4096,
        max_levels=5,
        bloom_reserved_mid_fraction=0.4,
        bloom_reserved_last_fraction=0.1,
    )
    params.update(overrides)
    return Options(**params)


def build_table(fs, options, n=60, step=2, name="000001.sst", level=2, value=b"v" * 40):
    builder = TableBuilder(fs, name, options, level=level)
    for seq, i in enumerate(range(0, n * step, step), start=1):
        builder.add(make_internal_key(f"key{i:05d}".encode(), seq, TYPE_VALUE), value)
    return builder.finish()


class TestBuildAndRead:
    def test_metadata(self, fs):
        info = build_table(fs, opts(), n=40)
        assert info.num_entries == 40
        assert info.valid_bytes > 0
        assert info.file_size > info.valid_bytes  # + index/filter/footer
        assert info.smallest is not None and info.largest is not None
        assert len(info.index) > 1  # multiple blocks were cut

    def test_get_hits_and_misses(self, fs):
        build_table(fs, opts(), n=40)
        reader = TableReader(fs, "000001.sst", 1)
        assert reader.lookup(b"key00010", SNAP)[:2] == (True, b"v" * 40)
        assert reader.lookup(b"key00011", SNAP)[:2] == (False, None)
        assert reader.lookup(b"zzz", SNAP)[:2] == (False, None)
        reader.close()

    def test_scan_in_order(self, fs):
        build_table(fs, opts(), n=40)
        reader = TableReader(fs, "000001.sst", 1)
        keys = [comparable_parts(ck)[0] for ck, _ in reader.entries_from()]
        assert keys == sorted(keys)
        assert len(keys) == 40

    def test_blocks_never_split_user_key_versions(self, fs):
        options = opts()
        builder = TableBuilder(fs, "000009.sst", options, level=1)
        # many versions of one user key, then others
        for seq in range(50, 0, -1):
            builder.add(make_internal_key(b"hot", seq, TYPE_VALUE), b"v" * 30)
        builder.add(make_internal_key(b"zzz", 1, TYPE_VALUE), b"v")
        info = builder.finish()
        covering = [e for e in info.index if e.covers_user_key(b"hot")]
        assert len(covering) == 1

    def test_out_of_order_add_rejected(self, fs):
        builder = TableBuilder(fs, "000002.sst", opts(), level=1)
        builder.add(make_internal_key(b"b", 1, TYPE_VALUE), b"")
        with pytest.raises(ValueError):
            builder.add(make_internal_key(b"a", 1, TYPE_VALUE), b"")

    def test_abandon_removes_file(self, fs):
        builder = TableBuilder(fs, "000003.sst", opts(), level=1)
        builder.add(make_internal_key(b"a", 1, TYPE_VALUE), b"")
        builder.abandon()
        assert not fs.exists("000003.sst")

    def test_footer_too_short_file(self, fs):
        fs.create_file("bad.sst").append(b"tiny")
        with pytest.raises(CorruptionError):
            TableReader(fs, "bad.sst", 9)

    def test_checksum_verification(self, fs):
        info = build_table(fs, opts(), n=10)
        # flip a byte inside the first data block
        flip_byte(fs, "000001.sst", 5)
        reader = TableReader(fs, "000001.sst", 1)
        first = reader.index.entries[0]
        with pytest.raises(CorruptionError):
            reader.read_block(first, category="get")


class TestFilterPolicies:
    def test_table_filter_prunes(self, fs):
        build_table(fs, opts(filter_policy=FILTER_TABLE), n=40)
        reader = TableReader(fs, "000001.sst", 1)
        assert isinstance(reader.filter, TableFilter)
        found, _value, touched = reader.lookup(b"nope-key", SNAP)
        assert not found and not touched  # pruned without block I/O

    def test_block_filters(self, fs):
        build_table(fs, opts(filter_policy=FILTER_BLOCK), n=40)
        reader = TableReader(fs, "000001.sst", 1)
        assert isinstance(reader.filter, BlockFilters)
        assert len(reader.filter.per_block) == len(reader.index)
        assert reader.lookup(b"key00010", SNAP)[:2] == (True, b"v" * 40)

    def test_no_filter(self, fs):
        build_table(fs, opts(filter_policy=FILTER_NONE), n=10)
        reader = TableReader(fs, "000001.sst", 1)
        assert reader.filter is None
        assert reader.lookup(b"key00002", SNAP)[:2] == (True, b"v" * 40)

    def test_reserved_filter_built_at_mid_level(self, fs):
        build_table(fs, opts(), n=40, level=2)
        reader = TableReader(fs, "000001.sst", 1)
        assert isinstance(reader.filter.bloom, ReservedBloomFilter)
        assert reader.filter.bloom.can_absorb(int(40 * 0.4))

    def test_metadata_memory_split(self, fs):
        build_table(fs, opts(), n=40)
        reader = TableReader(fs, "000001.sst", 1)
        index_bytes, filter_bytes = reader.metadata_memory_bytes()
        assert index_bytes > 0 and filter_bytes > 0


class TestAppendSessions:
    def _reader(self, fs, options):
        build_table(fs, options, n=40)
        return TableReader(fs, "000001.sst", 1)

    def test_append_section_and_reload(self, fs):
        options = opts()
        reader = self._reader(fs, options)
        old_size = reader.file_size
        session = AppendSession(fs, reader, options, level=2)
        entries = reader.index.entries
        session.reuse(entries[0])
        new_key = entries[0].largest_user_key + b"x"
        session.add(make_internal_key(new_key, 999, TYPE_VALUE), b"NEW")
        for e in entries[1:]:
            session.reuse(e)
        result = session.finish()

        assert result.file_size > old_size
        assert result.bytes_written == result.file_size - old_size
        assert result.num_entries == 41
        reader.reload()
        assert reader.footer.section == 1
        assert reader.lookup(new_key, SNAP)[:2] == (True, b"NEW")
        assert reader.lookup(b"key00010", SNAP)[:2] == (True, b"v" * 40)
        # logical order intact
        keys = [comparable_parts(ck)[0] for ck, _ in reader.entries_from()]
        assert keys == sorted(keys)

    def test_valid_bytes_track_superseded_blocks(self, fs):
        options = opts()
        reader = self._reader(fs, options)
        session = AppendSession(fs, reader, options, level=2)
        entries = reader.index.entries
        # rewrite the first block's content (merge nothing, just re-add), so
        # the old block becomes obsolete
        block = reader.read_block(entries[0], category="get")
        for ck, value in block.entries():
            user, seq, vt = comparable_parts(ck)
            session.add(make_internal_key(user, seq, vt), value)
        for e in entries[1:]:
            session.reuse(e)
        result = session.finish()
        assert result.valid_bytes < result.file_size
        # obsolete = at least the superseded first block
        assert result.file_size - result.valid_bytes >= entries[0].size

    def test_reserved_filter_absorbs_without_rebuild(self, fs):
        options = opts()
        reader = self._reader(fs, options)
        session = AppendSession(fs, reader, options, level=2)
        entries = reader.index.entries
        for e in entries:
            session.reuse(e)
        session.add(make_internal_key(b"zzz-appended", 999, TYPE_VALUE), b"NEW")
        session.finish()
        assert not session.filter_rebuilt
        reader.reload()
        assert isinstance(reader.filter.bloom, ReservedBloomFilter)
        assert reader.lookup(b"zzz-appended", SNAP)[:2] == (True, b"NEW")

    def test_filter_rebuilt_when_headroom_exhausted(self, fs):
        options = opts()
        reader = self._reader(fs, options)
        headroom = reader.filter.bloom.remaining_capacity()
        session = AppendSession(fs, reader, options, level=2)
        for e in reader.index.entries:
            session.reuse(e)
        for i in range(headroom + 1):
            session.add(
                make_internal_key(b"zz-%05d" % i, 1000 + i, TYPE_VALUE), b"NEW"
            )
        session.finish()
        assert session.filter_rebuilt
        reader.reload()
        assert reader.lookup(b"zz-00000", SNAP)[:2] == (True, b"NEW")
        assert reader.lookup(b"key00010", SNAP)[:2] == (True, b"v" * 40)

    def test_block_filter_append_carries_clean_filters(self, fs):
        options = opts(filter_policy=FILTER_BLOCK)
        reader = self._reader(fs, options)
        session = AppendSession(fs, reader, options, level=2)
        for e in reader.index.entries:
            session.reuse(e)
        session.add(make_internal_key(b"zzz", 999, TYPE_VALUE), b"NEW")
        session.finish()
        reader.reload()
        assert isinstance(reader.filter, BlockFilters)
        assert len(reader.filter.per_block) == len(reader.index)
        assert reader.lookup(b"zzz", SNAP)[:2] == (True, b"NEW")

    def test_tombstones_can_be_appended(self, fs):
        options = opts()
        reader = self._reader(fs, options)
        session = AppendSession(fs, reader, options, level=2)
        entries = reader.index.entries
        session.reuse(entries[0])
        tomb_key = entries[0].largest_user_key + b"t"
        session.add(make_internal_key(tomb_key, 999, TYPE_DELETION), b"")
        for e in entries[1:]:
            session.reuse(e)
        session.finish()
        reader.reload()
        assert reader.lookup(tomb_key, SNAP)[:2] == (True, None)

    # The order rule is the cutter's, so an append session enforces what
    # TableBuilder.add does, and its adds and reuses leave the index sorted.

    def test_out_of_order_add_rejected(self, fs):
        options = opts()
        session = AppendSession(fs, self._reader(fs, options), options, level=2)
        session.add(make_internal_key(b"zz-b", 5, TYPE_VALUE), b"")
        with pytest.raises(ValueError):
            session.add(make_internal_key(b"zz-a", 6, TYPE_VALUE), b"")
        with pytest.raises(ValueError):  # same user key: newest version first
            session.add(make_internal_key(b"zz-b", 7, TYPE_VALUE), b"")
        session.add(make_internal_key(b"zz-b", 4, TYPE_VALUE), b"")

    def test_add_under_a_reused_block_rejected(self, fs):
        options = opts()
        reader = self._reader(fs, options)
        session = AppendSession(fs, reader, options, level=2)
        first = reader.index.entries[0]
        session.reuse(first)
        with pytest.raises(ValueError):
            session.add(make_internal_key(first.smallest_user_key, 999, TYPE_VALUE), b"")
        with pytest.raises(ValueError):  # AT the block's largest key, too
            session.add(make_internal_key(first.largest_user_key, 999, TYPE_VALUE), b"")
        session.add(make_internal_key(first.largest_user_key + b"x", 999, TYPE_VALUE), b"")

    def test_reuse_below_the_last_added_key_rejected(self, fs):
        options = opts()
        reader = self._reader(fs, options)
        session = AppendSession(fs, reader, options, level=2)
        first, second = reader.index.entries[:2]
        session.add(make_internal_key(second.smallest_user_key, 999, TYPE_VALUE), b"")
        with pytest.raises(ValueError):
            session.reuse(first)
        with pytest.raises(ValueError):  # overlapping the added key
            session.reuse(second)

    def test_double_finish_rejected(self, fs):
        options = opts()
        reader = self._reader(fs, options)
        session = AppendSession(fs, reader, options, level=2)
        for e in reader.index.entries:
            session.reuse(e)
        session.finish()
        with pytest.raises(RuntimeError):
            session.finish()

    def test_multiple_append_sections_chain(self, fs):
        options = opts()
        reader = self._reader(fs, options)
        for round_no in range(3):
            session = AppendSession(fs, reader, options, level=2)
            for e in reader.index.entries:
                session.reuse(e)
            session.add(
                make_internal_key(b"zzz-%d" % round_no, 1000 + round_no, TYPE_VALUE),
                b"r%d" % round_no,
            )
            session.finish()
            reader.reload()
            assert reader.footer.section == round_no + 1
        for round_no in range(3):
            assert reader.lookup(b"zzz-%d" % round_no, SNAP)[:2] == (True, b"r%d" % round_no)
        assert reader.num_entries == 43


# The eager open after a build or append is handed the writer's TableInfo and
# keeps its index and filter instead of decoding them again.  Each scenario
# writes a section on a fresh filesystem and returns ``(reopen, info)``:
# ``reopen(built)`` opens (or reloads) the reader the way the engine does.


def _built(options, **build):
    def scenario(fs):
        info = build_table(fs, options, **build)
        return lambda built: TableReader(fs, "000001.sst", 1, "compaction", built), info

    return scenario


def _appended(options, new_keys, level=2):
    """Reuse every block, add ``new_keys`` above them (``None``: as many as
    the reserved filter has headroom for, plus one — forcing a rebuild)."""

    def scenario(fs):
        build_table(fs, options, n=40, level=level)
        reader = TableReader(fs, "000001.sst", 1)
        count = new_keys
        if count is None:
            count = reader.filter.bloom.remaining_capacity() + 1
        session = AppendSession(fs, reader, options, level=level)
        for entry in reader.index.entries:
            session.reuse(entry)
        for i in range(count):
            session.add(make_internal_key(b"zz-%05d" % i, 1000 + i, TYPE_VALUE), b"NEW" * 9)
        info = session.finish()
        assert session.filter_rebuilt == (new_keys is None)

        def reload(built):
            reader.reload(built)
            return reader

        return reload, info

    return scenario


ADOPTION_SCENARIOS = {
    "built": _built(opts()),
    "built-last-level": _built(opts(), level=4),
    "append-absorbs": _appended(opts(), 3),
    "append-rebuilds": _appended(opts(), None),
    "block-filters-built": _built(opts(filter_policy=FILTER_BLOCK)),
    "block-filters-appended": _appended(opts(filter_policy=FILTER_BLOCK), 3),
    "no-filter": _appended(opts(filter_policy=FILTER_NONE), 3),
}


def _same_outcome(call_a, call_b):
    outcomes = []
    for call in (call_a, call_b):
        try:
            outcomes.append(call())
        except Exception as exc:  # noqa: BLE001 - comparing failures is the point
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _meta_facts(reader):
    meta = reader.meta
    return (
        meta.footer,
        meta.index.entries,
        meta.index.memory_bytes(),
        None if meta.filter is None else (meta.filter.serialize(), meta.filter.memory_bytes()),
        meta.file_size,
        reader.metadata_memory_bytes(),
    )


class TestAdoptedMetadata:
    @pytest.mark.parametrize("name", sorted(ADOPTION_SCENARIOS))
    def test_adopted_meta_equals_a_full_parse(self, name):
        """Same footer, index entries, filter bytes, memory accounting and
        file size — and the same I/O, op for op and to the last bit of
        simulated time — whether the reader adopts or parses."""
        scenario = ADOPTION_SCENARIOS[name]
        fs_adopted, fs_parsed = SimulatedFS(), SimulatedFS()
        reopen, info = scenario(fs_adopted)
        adopted = reopen(info)
        reopen, _ = scenario(fs_parsed)
        parsed = reopen(None)

        assert adopted.index is info.index and adopted.filter is info.filter
        assert parsed.index is not info.index
        assert _meta_facts(adopted) == _meta_facts(parsed)
        assert fs_adopted.stats == fs_parsed.stats
        assert fs_adopted.digest() == fs_parsed.digest()
        assert list(adopted.entries_from()) == list(parsed.entries_from())
        for key in (b"key00010", b"key00011", b"zz-00000", b"zz-00002", b"zzz"):
            assert adopted.lookup(key, SNAP) == parsed.lookup(key, SNAP)

    @pytest.mark.parametrize("name", ["built", "append-absorbs", "block-filters-appended"])
    def test_any_flipped_metadata_byte_ends_as_a_full_parse_would(self, name):
        """Flip each byte of the section's filter block, index block and
        footer in turn, between ``finish`` and the eager open: the open that
        holds the writer's objects fails, or succeeds, exactly as the one
        that parses — a ``CorruptionError`` for every index and filter byte."""
        fs = SimulatedFS()
        reopen, info = ADOPTION_SCENARIOS[name](fs)
        intact = fs.contents("000001.sst")
        section_meta_start = info.file_size - len(info.footer_bytes)
        from repro.sstable.format import BLOCK_TRAILER_SIZE, Footer

        footer = Footer.deserialize(info.footer_bytes)
        handle = footer.filter_handle if not footer.filter_handle.is_null() else footer.index_handle
        blocks_end = footer.index_handle.offset + footer.index_handle.size + BLOCK_TRAILER_SIZE
        assert blocks_end == section_meta_start
        for position in range(handle.offset, info.file_size):
            damaged = bytearray(intact)
            damaged[position] ^= 0x40
            fs.replace("000001.sst", damaged)
            with_built, without = _same_outcome(
                lambda: _meta_facts(reopen(info)), lambda: _meta_facts(reopen(None))
            )
            assert with_built == without, position
            if position < blocks_end:
                assert with_built[0] is CorruptionError, position
        fs.replace("000001.sst", intact)
        assert _meta_facts(reopen(info)) == _meta_facts(reopen(None))

    def test_a_flipped_index_byte_raises_corruption_on_the_eager_open(self, fs):
        info = build_table(fs, opts())
        from repro.sstable.format import Footer

        flip_byte(fs, "000001.sst", Footer.deserialize(info.footer_bytes).index_handle.offset + 3)
        with pytest.raises(CorruptionError, match="checksum"):
            TableReader(fs, "000001.sst", 1, "flush", info)

    def test_a_flipped_footer_byte_raises_corruption_on_the_eager_open(self, fs):
        info = build_table(fs, opts())
        flip_byte(fs, "000001.sst", -1)  # the magic
        with pytest.raises(CorruptionError, match="magic"):
            TableReader(fs, "000001.sst", 1, "flush", info)

    def test_another_files_info_is_not_adopted(self, fs):
        """The hand-off is checked, not trusted: a reader given the result
        of a different section parses its own file."""
        other = build_table(SimulatedFS(), opts(), n=20)
        info = build_table(fs, opts(), n=40)
        reader = TableReader(fs, "000001.sst", 1, "flush", other)
        assert reader.index is not other.index
        assert reader.index.entries == info.index.entries

    def test_engine_opens_what_it_wrote_without_decoding_it_again(self, monkeypatch):
        """Flush, Table Compaction outputs, Block Compaction's reload and the
        bottom-level rewrite all hand their ``TableInfo`` over: a load
        decodes no index block, and no catalog entry keeps one alive.  A
        re-opened store has only the files, and parses."""
        from conftest import kv, make_db
        from repro.sstable.index import IndexBlock

        decoded = []
        real = IndexBlock.deserialize.__func__
        monkeypatch.setattr(
            IndexBlock,
            "deserialize",
            classmethod(lambda cls, payload: decoded.append(1) or real(cls, payload)),
        )
        db = make_db("selective", table_cache_capacity=10_000)
        for i in range(900):
            db.put(*kv((i * 37) % 900))
        db.compact_all()
        stats = db.stats
        assert stats.flush_count and stats.table_compactions and stats.block_compactions
        assert decoded == []
        assert all(meta.built is None for _level, meta in db.version.all_files())
        fs = db.fs
        db.close()
        from repro.core.db import DB
        from conftest import tiny_options

        reopened = DB(fs, tiny_options(compaction_style="selective"))
        assert reopened.get(kv(5)[0]) == kv(5)[1]
        assert decoded
        reopened.close()
