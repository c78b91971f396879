"""Merging-iterator and visibility-rule tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.iterator import DBIterator
from repro.core.merge import merge_entries, merge_visible
from repro.errors import InvalidArgumentError
from repro.keys import TYPE_DELETION, TYPE_VALUE, comparable_key


def ck(user: bytes, seq: int, vt: int = TYPE_VALUE):
    return comparable_key(user, seq, vt)


class TestMergeSorted:
    def test_merges_in_comparable_order(self):
        a = [(ck(b"a", 1), b"a1"), (ck(b"c", 1), b"c1")]
        b = [(ck(b"b", 2), b"b2"), (ck(b"d", 1), b"d1")]
        merged = list(merge_entries([a, b]))
        assert [k[0] for k, _ in merged] == [b"a", b"b", b"c", b"d"]

    def test_single_source_passthrough(self):
        a = [(ck(b"a", 1), b"x")]
        assert list(merge_entries([a])) == a

    def test_newer_version_first_across_sources(self):
        old = [(ck(b"k", 1), b"old")]
        new = [(ck(b"k", 9), b"new")]
        merged = list(merge_entries([old, new]))
        assert merged[0][1] == b"new"
        assert merged[1][1] == b"old"


class TestVisibility:
    def test_newest_version_wins(self):
        stream = [(ck(b"k", 9), b"new"), (ck(b"k", 1), b"old")]
        assert list(merge_visible([stream], 100)) == [(b"k", b"new")]

    def test_snapshot_filters_future(self):
        stream = [(ck(b"k", 9), b"new"), (ck(b"k", 1), b"old")]
        assert list(merge_visible([stream], 5)) == [(b"k", b"old")]
        assert list(merge_visible([stream], 0)) == []

    def test_tombstone_hides_key(self):
        stream = [(ck(b"k", 9, TYPE_DELETION), b""), (ck(b"k", 1), b"old")]
        assert list(merge_visible([stream], 100)) == []

    def test_tombstone_only_hides_at_or_after_its_seq(self):
        stream = [(ck(b"k", 9, TYPE_DELETION), b""), (ck(b"k", 1), b"old")]
        assert list(merge_visible([stream], 8)) == [(b"k", b"old")]

    def test_shadowed_tombstone_under_newer_put(self):
        stream = [
            (ck(b"k", 9), b"resurrected"),
            (ck(b"k", 5, TYPE_DELETION), b""),
            (ck(b"k", 1), b"old"),
        ]
        assert list(merge_visible([stream], 100)) == [(b"k", b"resurrected")]

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10),  # user key ordinal
                st.integers(1, 100),  # sequence
                st.booleans(),  # is deletion
            ),
            max_size=60,
            unique_by=lambda t: (t[0], t[1]),
        ),
        st.integers(0, 100),
    )
    def test_matches_model(self, raw, snapshot):
        """Visibility must match a straightforward dict model."""
        entries = sorted(
            (
                ck(b"k%02d" % ordinal, seq, TYPE_DELETION if is_del else TYPE_VALUE),
                b"" if is_del else b"v%d" % seq,
            )
            for ordinal, seq, is_del in raw
        )
        model: dict[bytes, bytes | None] = {}
        for ordinal, seq, is_del in sorted(raw, key=lambda t: t[1]):
            if seq <= snapshot:
                model[b"k%02d" % ordinal] = None if is_del else b"v%d" % seq
        expected = sorted((k, v) for k, v in model.items() if v is not None)
        assert list(merge_visible([entries], snapshot)) == expected


class TestDBIterator:
    def test_end_bound_exclusive(self):
        src = [(ck(b"a", 1), b"1"), (ck(b"b", 1), b"2"), (ck(b"c", 1), b"3")]
        it = DBIterator([src], 100, end=b"c")
        assert list(it) == [(b"a", b"1"), (b"b", b"2")]

    def test_on_close_called_once(self):
        calls = []
        it = DBIterator([[(ck(b"a", 1), b"1")]], 100, on_close=lambda: calls.append(1))
        list(it)
        it.close()
        assert calls == [1]

    def test_close_on_exhaustion(self):
        calls = []
        it = DBIterator([[]], 100, on_close=lambda: calls.append(1))
        assert list(it) == []
        assert calls == [1]

    def test_context_manager(self):
        calls = []
        with DBIterator([[(ck(b"a", 1), b"1")]], 100, on_close=lambda: calls.append(1)) as it:
            next(it)
        assert calls == [1]

    def test_next_after_close_stops(self):
        it = DBIterator([[(ck(b"a", 1), b"1")]], 100)
        it.close()
        assert list(it) == []

    def test_end_bound_does_not_drain_sources(self):
        """The end bound is checked on the merged head *before* advancing,
        so a bounded iterator pulls at most one entry at/past the bound."""
        pulled = []

        def source():
            for i in range(100):
                pulled.append(i)
                yield (ck(b"k%03d" % i, 1), b"v%d" % i)

        it = DBIterator([source()], 100, end=b"k010")
        assert len(list(it)) == 10
        # entries k000..k009 plus the bound entry k010 that triggers the stop
        assert len(pulled) == 11


class TestBoundedScanBlockReads:
    """A bounded DB scan must not read data blocks past the end bound."""

    N = 200
    BOUND = 20

    def _fresh(self):
        from conftest import make_db
        from repro.storage.fs import SimulatedFS

        fs = SimulatedFS()
        db = make_db(fs=fs)
        for i in range(self.N):
            db.put(b"k%04d" % i, b"v" * 40)
        db.compact_all()
        return db, fs

    @staticmethod
    def _reads(fs):
        return fs.stats.random_reads + fs.stats.sequential_reads

    def test_scan_limit_zero_is_empty_and_negative_is_refused(self):
        """``limit`` counts pairs: 0 asks for none (and reads no block),
        ``None`` for all; a negative one is a caller error."""
        db, fs = self._fresh()
        before = self._reads(fs)
        assert db.scan(limit=0) == []
        assert db.scan(b"k0010", limit=0) == []
        assert self._reads(fs) == before
        assert db.scan(limit=1) == [(b"k0000", b"v" * 40)]
        assert len(db.scan(limit=self.N + 5)) == self.N
        for limit in (-1, -50):
            with pytest.raises(InvalidArgumentError):
                db.scan(limit=limit)
        db.close()

    def test_bounded_scan_stops_reading_at_bound(self):
        db_full, fs_full = self._fresh()
        before = self._reads(fs_full)
        rows_full = db_full.scan()
        full_reads = self._reads(fs_full) - before
        assert len(rows_full) == self.N

        db_bound, fs_bound = self._fresh()
        before = self._reads(fs_bound)
        rows = db_bound.scan(end=b"k%04d" % self.BOUND)
        bounded_reads = self._reads(fs_bound) - before
        # Same deterministic DB, so the bounded scan returns exactly the
        # prefix of the full scan's rows...
        assert rows == rows_full[: self.BOUND]
        # ...while touching only the ~10% of blocks at or before the bound
        # (files and blocks wholly past it are never opened).
        assert bounded_reads < full_reads / 4
