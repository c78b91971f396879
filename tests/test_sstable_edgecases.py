"""SSTable edge cases: oversized entries, degenerate tables, boundary keys."""

import pytest

from repro.keys import TYPE_VALUE, comparable_parts, make_internal_key
from repro.options import Options
from repro.sstable import AppendSession, TableBuilder, TableReader
from repro.storage.fs import SimulatedFS

SNAP = 10**9


def opts(**overrides):
    params = dict(block_size=256, sstable_size=4096, memtable_size=4096, max_levels=4)
    params.update(overrides)
    return Options(**params)


@pytest.fixture
def fs():
    return SimulatedFS()


class TestDegenerateTables:
    def test_single_entry_table(self, fs):
        builder = TableBuilder(fs, "000001.sst", opts(), level=1)
        builder.add(make_internal_key(b"only", 1, TYPE_VALUE), b"v")
        info = builder.finish()
        assert info.num_entries == 1
        assert len(info.index) == 1
        reader = TableReader(fs, "000001.sst", 1)
        assert reader.lookup(b"only", SNAP)[:2] == (True, b"v")
        assert reader.lookup(b"onl", SNAP)[:2] == (False, None)
        assert reader.lookup(b"onlyx", SNAP)[:2] == (False, None)
        reader.close()

    def test_value_larger_than_block_size(self, fs):
        """A single entry bigger than the block size forms its own block."""
        big = b"x" * 2000  # block_size is 256
        builder = TableBuilder(fs, "000001.sst", opts(), level=1)
        builder.add(make_internal_key(b"big", 1, TYPE_VALUE), big)
        builder.add(make_internal_key(b"small", 2, TYPE_VALUE), b"v")
        info = builder.finish()
        reader = TableReader(fs, "000001.sst", 1)
        assert reader.lookup(b"big", SNAP)[:2] == (True, big)
        assert reader.lookup(b"small", SNAP)[:2] == (True, b"v")
        assert len(info.index) == 2
        reader.close()

    def test_empty_values_throughout(self, fs):
        builder = TableBuilder(fs, "000001.sst", opts(), level=1)
        for i in range(30):
            builder.add(make_internal_key(b"k%03d" % i, i + 1, TYPE_VALUE), b"")
        builder.finish()
        reader = TableReader(fs, "000001.sst", 1)
        assert reader.lookup(b"k010", SNAP)[:2] == (True, b"")
        assert sum(1 for _ in reader.entries_from()) == 30
        reader.close()

    def test_long_keys_with_shared_prefixes(self, fs):
        prefix = b"tenant/0001/region/eu-west-1/object/"
        builder = TableBuilder(fs, "000001.sst", opts(block_size=512), level=1)
        keys = [prefix + b"%06d" % i for i in range(40)]
        for i, key in enumerate(keys):
            builder.add(make_internal_key(key, i + 1, TYPE_VALUE), b"v")
        builder.finish()
        reader = TableReader(fs, "000001.sst", 1)
        for key in keys[::7]:
            assert reader.lookup(key, SNAP)[:2] == (True, b"v")
        # prefix compression should make the file much smaller than raw keys
        raw = sum(len(k) + 8 for k in keys)
        assert reader.footer.valid_data_bytes < raw
        reader.close()


class TestBoundaryBehaviour:
    def test_lookup_at_exact_block_boundaries(self, fs):
        builder = TableBuilder(fs, "000001.sst", opts(), level=1)
        for i in range(0, 60, 2):
            builder.add(make_internal_key(b"%05d" % i, i + 1, TYPE_VALUE), b"v" * 30)
        builder.finish()
        reader = TableReader(fs, "000001.sst", 1)
        for entry in reader.index.entries:
            found, _ = reader.lookup(entry.smallest_user_key, SNAP)[:2]
            assert found
            found, _ = reader.lookup(entry.largest_user_key, SNAP)[:2]
            assert found
        reader.close()

    def test_entries_from_seek_past_end(self, fs):
        builder = TableBuilder(fs, "000001.sst", opts(), level=1)
        builder.add(make_internal_key(b"a", 1, TYPE_VALUE), b"v")
        builder.finish()
        reader = TableReader(fs, "000001.sst", 1)
        from repro.keys import seek_comparable

        assert list(reader.entries_from(seek_comparable(b"zzz"))) == []
        reader.close()

    def test_append_session_into_single_block_table(self, fs):
        options = opts()
        builder = TableBuilder(fs, "000001.sst", options, level=2)
        builder.add(make_internal_key(b"m", 1, TYPE_VALUE), b"v")
        builder.finish()
        reader = TableReader(fs, "000001.sst", 1)
        session = AppendSession(fs, reader, options, level=2)
        session.add(make_internal_key(b"a", 10, TYPE_VALUE), b"before")
        session.reuse(reader.index.entries[0])
        session.add(make_internal_key(b"z", 11, TYPE_VALUE), b"after")
        result = session.finish()
        assert result.num_entries == 3
        reader.reload()
        keys = [comparable_parts(ck)[0] for ck, _ in reader.entries_from()]
        assert keys == [b"a", b"m", b"z"]
        reader.close()
