"""Tests of ``oracle.reference.SkipList`` — the memtable's frozen original
sorted map, which the reference point reads seek — including a
model-based property test."""

from hypothesis import given, settings, strategies as st

from oracle.reference import SkipList


class TestBasics:
    def test_empty(self):
        sl = SkipList()
        assert len(sl) == 0
        assert sl.get(b"x") is None
        assert b"x" not in sl
        assert sl.first_key() is None
        assert sl.last_key() is None
        assert list(sl.items()) == []

    def test_insert_and_get(self):
        sl = SkipList()
        sl.insert(b"b", 2)
        sl.insert(b"a", 1)
        sl.insert(b"c", 3)
        assert len(sl) == 3
        assert sl.get(b"a") == 1
        assert sl.get(b"b") == 2
        assert sl.get(b"missing", "dflt") == "dflt"
        assert b"c" in sl

    def test_overwrite_keeps_size(self):
        sl = SkipList()
        sl.insert(b"k", 1)
        sl.insert(b"k", 2)
        assert len(sl) == 1
        assert sl.get(b"k") == 2

    def test_sorted_iteration(self):
        sl = SkipList()
        for i in [5, 3, 8, 1, 9, 2]:
            sl.insert(i, i * 10)
        assert [k for k, _ in sl.items()] == [1, 2, 3, 5, 8, 9]

    def test_items_from_seeks(self):
        sl = SkipList()
        for i in range(0, 20, 2):
            sl.insert(i, None)
        assert [k for k, _ in sl.items_from(7)] == [8, 10, 12, 14, 16, 18]
        assert [k for k, _ in sl.items_from(8)][0] == 8
        assert list(sl.items_from(100)) == []

    def test_first_and_last(self):
        sl = SkipList()
        for i in [4, 7, 1]:
            sl.insert(i, None)
        assert sl.first_key() == 1
        assert sl.last_key() == 7

    def test_determinism_across_instances(self):
        a, b = SkipList(seed=3), SkipList(seed=3)
        for i in range(100):
            a.insert(i, i)
            b.insert(i, i)
        assert a._height == b._height

    def test_tuple_keys(self):
        sl = SkipList()
        sl.insert((b"k", 5), b"v5")
        sl.insert((b"k", 3), b"v3")
        sl.insert((b"j", 9), b"v9")
        assert [k for k, _ in sl.items()] == [(b"j", 9), (b"k", 3), (b"k", 5)]


class TestProperties:
    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(0, 200), st.integers()), max_size=200))
    def test_matches_dict_model(self, operations):
        sl = SkipList(seed=11)
        model: dict[int, int] = {}
        for key, value in operations:
            sl.insert(key, value)
            model[key] = value
        assert len(sl) == len(model)
        assert list(sl.items()) == sorted(model.items())
        for key, value in model.items():
            assert sl.get(key) == value

    @settings(max_examples=30)
    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=100),
        st.integers(-10, 110),
    )
    def test_items_from_matches_model(self, keys, seek):
        sl = SkipList(seed=5)
        for key in keys:
            sl.insert(key, None)
        expected = sorted(k for k in set(keys) if k >= seek)
        assert [k for k, _ in sl.items_from(seek)] == expected

    def test_large_sequential_and_reverse(self):
        sl = SkipList(seed=2)
        for i in range(1000):
            sl.insert(i, i)
        for i in reversed(range(1000, 2000)):
            sl.insert(i, i)
        assert len(sl) == 2000
        assert [k for k, _ in sl.items()] == list(range(2000))
