"""Compaction picker and flush tests."""

import pytest

from conftest import tiny_options
from repro.compaction.picker import CompactionPicker
from repro.core.flush import flush_memtable
from repro.core.version import Version, VersionEdit
from repro.keys import TYPE_DELETION, TYPE_VALUE, comparable_parts
from repro.memtable.memtable import MemTable
from repro.sstable.table_reader import TableReader
from repro.storage.fs import SimulatedFS
from test_version import meta


@pytest.fixture
def picker():
    return CompactionPicker(tiny_options())


class TestScoring:
    def test_empty_version_picks_nothing(self, picker):
        assert picker.pick(Version(5)) is None

    def test_level0_scored_by_file_count(self, picker):
        v = Version(5)
        # trigger is 4 files (level0_size_factor=4 in tiny options)
        for i in range(3):
            v.apply(VersionEdit(new_files=[(0, meta(i + 1, b"a", b"z"))]))
        assert picker.level_score(v, 0) == pytest.approx(0.75)
        assert picker.pick(v) is None
        v.apply(VersionEdit(new_files=[(0, meta(9, b"a", b"z"))]))
        task = picker.pick(v)
        assert task is not None and task.parent_level == 0

    def test_deeper_levels_scored_by_valid_bytes(self, picker):
        v = Version(5)
        capacity = tiny_options().level_capacity_bytes(1)
        v.apply(VersionEdit(new_files=[(1, meta(1, b"a", b"c", size=capacity + 1))]))
        task = picker.pick(v)
        assert task is not None and task.parent_level == 1

    def test_highest_score_wins(self, picker):
        opts = tiny_options()
        v = Version(5)
        for i in range(8):  # L0 at 2x trigger
            v.apply(VersionEdit(new_files=[(0, meta(10 + i, b"a", b"z"))]))
        v.apply(
            VersionEdit(
                new_files=[(1, meta(1, b"a", b"c", size=opts.level_capacity_bytes(1) + 1))]
            )
        )
        task = picker.pick(v)
        assert task.parent_level == 0  # score 2.0 beats ~1.0

    def test_bottom_level_never_parent(self, picker):
        v = Version(3)
        v.apply(VersionEdit(new_files=[(2, meta(1, b"a", b"c", size=10**9))]))
        assert picker.pick(v) is None


class TestInputSelection:
    def test_level0_expands_transitive_overlaps(self, picker):
        v = Version(5)
        for number in range(4):
            v.apply(VersionEdit(new_files=[(0, meta(number + 1, b"a", b"m"))]))
        v.apply(VersionEdit(new_files=[(0, meta(9, b"l", b"z"))]))
        v.apply(VersionEdit(new_files=[(1, meta(20, b"c", b"x"))]))
        task = picker.pick(v)
        assert task.parent_level == 0
        assert len(task.parent_files) == 5  # all L0 files chained by overlap
        assert [f.file_number for f in task.child_files] == [20]

    def test_round_robin_uses_compact_pointer(self, picker):
        opts = tiny_options()
        v = Version(5)
        size = opts.level_capacity_bytes(1)  # level full with two files
        v.apply(
            VersionEdit(
                new_files=[
                    (1, meta(1, b"a", b"c", size=size // 2 + 1)),
                    (1, meta(2, b"e", b"g", size=size // 2 + 1)),
                ]
            )
        )
        first = picker.pick(v)
        assert first.parent_files[0].file_number == 1
        picker.advance_pointer(first)
        second = picker.pick(v)
        assert second.parent_files[0].file_number == 2
        picker.advance_pointer(second)
        third = picker.pick(v)  # wraps around
        assert third.parent_files[0].file_number == 1

    def test_seek_candidate_picked_when_no_size_trigger(self, picker):
        v = Version(5)
        f = meta(7, b"a", b"c")
        v.apply(VersionEdit(new_files=[(1, f)]))
        picker.note_seek_exhausted(1, f)
        task = picker.pick(v)
        assert task is not None
        assert task.reason == "seek"
        assert task.parent_files[0].file_number == 7
        assert picker.pick(v) is None  # candidate consumed

    def test_level0_seek_candidate_takes_its_overlapping_files(self, picker):
        """Two overlapping L0 files, the newer one seek-exhausted: moving it
        down alone would sink it below the older one, so the task's
        parents are the closure of L0 overlaps seeded at the candidate."""
        v = Version(5)
        older, newer = meta(5, b"a", b"m"), meta(6, b"g", b"t")
        apart = meta(7, b"x", b"z")
        v.apply(VersionEdit(new_files=[(0, older), (0, newer), (0, apart)]))
        picker.note_seek_exhausted(0, newer)
        task = picker.pick(v)
        assert task is not None and task.reason == "seek"
        assert task.parent_level == 0
        assert {f.file_number for f in task.parent_files} == {5, 6}

    def test_stale_seek_candidate_dropped(self, picker):
        v = Version(5)
        f = meta(7, b"a", b"c")
        picker.note_seek_exhausted(1, f)  # file never added to version
        assert picker.pick(v) is None
        assert picker.seek_candidates == {}

    def test_forget_file(self, picker):
        f = meta(7, b"a", b"c")
        picker.note_seek_exhausted(1, f)
        picker.forget_file(7)
        assert picker.seek_candidates == {}

    def test_seek_disabled_ignores_candidates(self):
        picker = CompactionPicker(tiny_options(enable_seek_compaction=False))
        picker.note_seek_exhausted(1, meta(7, b"a", b"c"))
        assert picker.seek_candidates == {}

    def test_bottom_level_files_never_seek_candidates(self, picker):
        opts = tiny_options()
        picker.note_seek_exhausted(opts.max_levels - 1, meta(7, b"a", b"c"))
        assert picker.seek_candidates == {}


class TestFlush:
    def _flush(self, mt, fs=None):
        fs = fs or SimulatedFS()
        options = tiny_options()
        meta_out = flush_memtable(fs, options, mt, file_number=1)
        reader = None
        if meta_out is not None:
            reader = TableReader(fs, meta_out.file_name(), 1, options)
        return meta_out, reader

    def test_empty_memtable_flushes_nothing(self):
        fs = SimulatedFS()
        meta_out, _reader = self._flush(MemTable(), fs)
        assert meta_out is None
        assert not fs.exists("000001.sst")

    def test_flush_preserves_entries_and_bounds(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"banana", b"v1")
        mt.add(2, TYPE_VALUE, b"apple", b"v2")
        meta_out, reader = self._flush(mt)
        assert meta_out.num_entries == 2
        assert meta_out.smallest_user_key == b"apple"
        assert meta_out.largest_user_key == b"banana"
        assert reader.get(b"apple", 100) == (True, b"v2")

    def test_flush_dedupes_versions_keeping_newest(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k", b"old")
        mt.add(2, TYPE_VALUE, b"k", b"mid")
        mt.add(3, TYPE_VALUE, b"k", b"new")
        meta_out, reader = self._flush(mt)
        assert meta_out.num_entries == 1
        assert reader.get(b"k", 100) == (True, b"new")

    def test_flush_preserves_tombstones(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k", b"v")
        mt.add(2, TYPE_DELETION, b"k")
        meta_out, reader = self._flush(mt)
        assert meta_out.num_entries == 1
        assert reader.get(b"k", 100) == (True, None)

    def test_flush_only_tombstones_still_writes(self):
        """A memtable of nothing but deletes must still flush — the
        tombstones shadow deeper levels."""
        mt = MemTable()
        mt.add(1, TYPE_DELETION, b"k1")
        mt.add(2, TYPE_DELETION, b"k2")
        meta_out, reader = self._flush(mt)
        assert meta_out is not None
        assert meta_out.num_entries == 2

    def test_flush_output_sorted(self):
        import random

        mt = MemTable()
        keys = [f"key{i:04d}".encode() for i in range(100)]
        shuffled = keys[:]
        random.Random(3).shuffle(shuffled)
        for seq, key in enumerate(shuffled, start=1):
            mt.add(seq, TYPE_VALUE, key, b"v")
        _meta, reader = self._flush(mt)
        got = [comparable_parts(ck)[0] for ck, _ in reader.entries_from()]
        assert got == keys
