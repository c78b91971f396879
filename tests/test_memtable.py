"""Memtable semantics: versions, tombstones, freezing, accounting, and
iteration while a writer adds."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.keys import TYPE_DELETION, TYPE_VALUE, comparable_key, comparable_parts, seek_comparable
from repro.memtable import memtable as memtable_module
from repro.memtable.memtable import ENTRY_OVERHEAD, MemTable


class TestGet:
    def test_missing(self):
        mt = MemTable()
        assert mt.get(b"k", 100) == (False, None)

    def test_put_then_get(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k", b"v")
        assert mt.get(b"k", 100) == (True, b"v")

    def test_newest_visible_version_wins(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k", b"old")
        mt.add(5, TYPE_VALUE, b"k", b"new")
        assert mt.get(b"k", 100) == (True, b"new")

    def test_snapshot_sees_past(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k", b"old")
        mt.add(5, TYPE_VALUE, b"k", b"new")
        assert mt.get(b"k", 1) == (True, b"old")
        assert mt.get(b"k", 4) == (True, b"old")
        assert mt.get(b"k", 0) == (False, None)

    def test_tombstone_found_as_none(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k", b"v")
        mt.add(2, TYPE_DELETION, b"k")
        assert mt.get(b"k", 100) == (True, None)
        assert mt.get(b"k", 1) == (True, b"v")

    def test_does_not_bleed_to_neighbour_key(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"kb", b"v")
        assert mt.get(b"ka", 100) == (False, None)
        assert mt.get(b"k", 100) == (False, None)


class TestInvariantsAndAccounting:
    def test_tombstone_with_value_rejected(self):
        mt = MemTable()
        with pytest.raises(ValueError):
            mt.add(1, TYPE_DELETION, b"k", b"nonempty")

    def test_frozen_rejects_writes(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k", b"v")
        mt.freeze()
        with pytest.raises(RuntimeError):
            mt.add(2, TYPE_VALUE, b"k2", b"v")
        assert mt.get(b"k", 10) == (True, b"v")  # reads still fine

    def test_memory_accounting(self):
        mt = MemTable()
        assert mt.approximate_memory_usage() == 0
        mt.add(1, TYPE_VALUE, b"abc", b"12345")
        assert mt.approximate_memory_usage() == 3 + 5 + ENTRY_OVERHEAD
        mt.add(2, TYPE_DELETION, b"abc")
        assert mt.approximate_memory_usage() == (3 + 5 + ENTRY_OVERHEAD) + (3 + ENTRY_OVERHEAD)
        assert len(mt) == 2

    def test_entries_sorted_newest_first_per_key(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"b", b"b1")
        mt.add(2, TYPE_VALUE, b"a", b"a2")
        mt.add(3, TYPE_VALUE, b"b", b"b3")
        parts = [comparable_parts(ck) for ck, _ in mt.entries()]
        assert [(p[0], p[1]) for p in parts] == [(b"a", 2), (b"b", 3), (b"b", 1)]

    def test_a_chunk_past_the_bound_splits_in_order(self, monkeypatch):
        monkeypatch.setattr(memtable_module, "_CHUNK_MAX", 4)
        mt = MemTable()
        for sequence, number in enumerate([5, 1, 9, 3, 7, 2, 8, 0, 6, 4], start=1):
            mt.add(sequence, TYPE_VALUE, b"k%d" % number, b"")
        maxes, chunks = mt._index
        assert len(chunks) > 2 and all(0 < len(chunk) <= 4 for chunk in chunks)
        assert maxes == [chunk[-1][0] for chunk in chunks]
        assert [key[0] for key, _value in mt.entries()] == [b"k%d" % n for n in range(10)]

    def test_overwrite_of_a_comparable_key_replaces_its_value_and_counts(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k", b"old")
        mt.add(1, TYPE_VALUE, b"k", b"new")
        assert [value for _key, value in mt.entries()] == [b"new"]
        assert mt.get(b"k", 1) == (True, b"new")
        assert len(mt) == 2
        assert mt.approximate_memory_usage() == (1 + 3 + ENTRY_OVERHEAD) * 2


# ------------------------------------------------------ writes during iteration


def _user_key(number: int) -> bytes:
    return b"k%04d" % number


def _loaded(count: int) -> MemTable:
    """``count`` user keys ``k0000, k0010, ...`` with two versions each."""
    mt = MemTable()
    for i in range(count):
        mt.add(1 + 2 * i, TYPE_VALUE, _user_key(10 * i), b"old")
        mt.add(2 + 2 * i, TYPE_VALUE, _user_key(10 * i), b"new")
    return mt


def _add_around(mt: MemTable, key, where: str, sequence: int) -> None:
    """Add entries next to ``key`` (the comparable key just yielded):
    before it, at it (a newer version of its user key, which sorts just
    before it, and an overwrite of ``key`` itself) or after it.  Three adds
    a step, so with four-entry chunks the chunk being read keeps splitting."""
    user_key, seq, value_type = comparable_parts(key)
    number = int(user_key[1:])
    if where == "before":
        numbers = (number - 3, number - 2, number - 1)
    elif where == "after":
        numbers = (number + 1, number + 2, number + 3)
    else:
        mt.add(seq, value_type, user_key, b"overwritten")
        mt.add(sequence, TYPE_VALUE, user_key, b"newest")
        mt.add(sequence + 1, TYPE_DELETION, user_key)
        return
    for offset, other in enumerate(numbers):
        mt.add(sequence + offset, TYPE_VALUE, _user_key(other), b"added")


@pytest.fixture(params=[4, 2048], ids=["chunks-of-4", "default-chunks"])
def chunk_max(request, monkeypatch):
    # raising=False: these tests hold for any sorted map, chunked or not.
    monkeypatch.setattr(memtable_module, "_CHUNK_MAX", request.param, raising=False)
    return request.param


class TestWritesDuringIteration:
    """A sync caller may put between two ``next()`` calls of an open
    iterator: the output must stay strictly increasing and hold every entry
    present when the iterator was created."""

    @pytest.mark.parametrize("where", ["before", "at", "after"])
    @pytest.mark.parametrize("seek_number", [None, 0, 95, 100, 290, 300])
    def test_adds_between_next_calls(self, chunk_max, where, seek_number):
        mt = _loaded(30)
        if seek_number is None:
            iterator, seek = mt.entries(), None
        else:
            seek = seek_comparable(_user_key(seek_number))
            iterator = mt.entries_from(seek)
        present = {key for key, _value in mt.entries() if seek is None or key >= seek}
        sequence = 1000
        yielded = []
        for key, _value in iterator:
            assert not yielded or key > yielded[-1]  # here: a repeat would never end
            yielded.append(key)
            if key in present:  # not around what was added: that never ends
                _add_around(mt, key, where, sequence)
                sequence += 3
        assert present <= set(yielded)

    def test_every_entry_added_behind_the_cursor_is_left_out(self, chunk_max):
        mt = _loaded(30)
        iterator = mt.entries()
        for key, _value in iterator:
            if comparable_parts(key)[0] == _user_key(100):
                break
        behind = {_user_key(number) for number in range(1, 100)}
        for sequence, user_key in enumerate(sorted(behind), start=5000):
            mt.add(sequence, TYPE_VALUE, user_key, b"behind")
        cursor = key
        rest = [key for key, _value in iterator]
        assert rest and all(later > cursor for later in rest)
        assert not {comparable_parts(key)[0] for key in rest} & behind

    def test_an_iterator_created_empty_yields_nothing(self, chunk_max):
        mt = MemTable()
        iterator = mt.entries()
        assert list(iterator) == []
        assert list(mt.entries_from(seek_comparable(b"a"))) == []


class TestAddBetweenSearchAndRead:
    """A lock-free reader bisects a chunk and then reads the slot, or slices
    from it, as a second step; another writer's add can land in between
    and shift the slot.  Each test makes that add land there."""

    @staticmethod
    def _add_after_next_chunk_search(monkeypatch, name, add):
        """Run ``add()`` right after the next chunk bisect (``name`` is
        ``bisect_left`` or ``bisect_right``; a chunk's carries ``key=``)."""
        real = getattr(memtable_module, name)
        armed = [True]

        def search_then_add(seq, x, *args, **kwargs):
            index = real(seq, x, *args, **kwargs)
            if armed[0] and "key" in kwargs:
                armed[0] = False
                add()
            return index

        monkeypatch.setattr(memtable_module, name, search_then_add)

    @pytest.mark.parametrize(
        "added, expected",
        [((3, b"k1", b"x"), (True, b"v5")), ((3, b"k5", b"newer"), (True, b"v5"))],
        ids=["other-key-below", "newer-version-above-the-snapshot"],
    )
    def test_get(self, monkeypatch, added, expected):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k5", b"v5")
        mt.add(2, TYPE_VALUE, b"k9", b"v9")
        sequence, user_key, value = added
        self._add_after_next_chunk_search(
            monkeypatch, "bisect_left", lambda: mt.add(sequence, TYPE_VALUE, user_key, value)
        )
        assert mt.get(b"k5", 2) == expected

    def test_iterator_start(self, monkeypatch):
        mt = MemTable()
        for sequence, user_key in enumerate((b"k3", b"k5", b"k7"), start=1):
            mt.add(sequence, TYPE_VALUE, user_key, b"v")
        self._add_after_next_chunk_search(
            monkeypatch, "bisect_left", lambda: mt.add(9, TYPE_VALUE, b"k1", b"v")
        )
        got = [comparable_parts(key)[0] for key, _value in mt.entries_from(seek_comparable(b"k5"))]
        assert got == [b"k5", b"k7"]

    def test_iterator_next_batch(self, monkeypatch):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k2", b"v")
        mt.add(2, TYPE_VALUE, b"k4", b"v")
        iterator = mt.entries()
        first = [comparable_parts(next(iterator)[0])[0] for _ in range(2)]
        mt.add(3, TYPE_VALUE, b"k5", b"v")  # the chunk grows past the batch
        self._add_after_next_chunk_search(
            monkeypatch, "bisect_right", lambda: mt.add(4, TYPE_VALUE, b"k3", b"v")
        )
        rest = [comparable_parts(key)[0] for key, _value in iterator]
        assert first + rest == [b"k2", b"k4", b"k5"]


class TestSortedDictModel:
    """``MemTable`` against a plain dict sorted on demand, with four-entry
    chunks so that every history splits."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 30),  # user key
                st.integers(1, 40),  # sequence
                st.sampled_from([TYPE_VALUE, TYPE_VALUE, TYPE_DELETION]),
                st.binary(max_size=4),
            ),
            max_size=120,
        ),
        st.lists(st.tuples(st.integers(-1, 31), st.integers(0, 41)), max_size=20),
    )
    def test_matches_model(self, history, seeks):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(memtable_module, "_CHUNK_MAX", 4, raising=False)
            mt = MemTable()
            model: dict = {}
            for number, sequence, value_type, value in history:
                value = value if value_type == TYPE_VALUE else b""
                user_key = b"u%02d" % number
                mt.add(sequence, value_type, user_key, value)
                # An add of a comparable key already present overwrites it.
                model[comparable_key(user_key, sequence, value_type)] = value
            ordered = sorted(model.items())
            assert list(mt.entries()) == ordered
            assert len(mt) == len(history)
            for number, snapshot in seeks:
                user_key = b"u%02d" % number
                seek = seek_comparable(user_key, snapshot)
                assert list(mt.entries_from(seek)) == [kv for kv in ordered if kv[0] >= seek]
                visible = [kv for kv in ordered if kv[0] >= seek and kv[0][0] == user_key]
                if not visible:
                    expected = (False, None)
                else:
                    (_key, value), kind = visible[0], comparable_parts(visible[0][0])[2]
                    expected = (True, None if kind == TYPE_DELETION else value)
                assert mt.get(user_key, snapshot) == expected
