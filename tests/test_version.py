"""Version / level metadata tests."""

import pytest

from repro.core.version import (
    FileMetadata,
    Version,
    VersionEdit,
    catalog_violations,
    clone_metadata,
)
from repro.errors import InvalidArgumentError
from repro.storage.fs import SimulatedFS
from repro.keys import TYPE_VALUE, make_internal_key


def meta(number: int, lo: bytes, hi: bytes, size: int = 1000, valid: int | None = None):
    return FileMetadata(
        file_number=number,
        file_size=size,
        valid_bytes=size if valid is None else valid,
        num_entries=10,
        smallest=make_internal_key(lo, 1, TYPE_VALUE),
        largest=make_internal_key(hi, 1, TYPE_VALUE),
    )


class TestFileMetadata:
    def test_bounds_and_overlap(self):
        f = meta(1, b"c", b"m")
        assert f.smallest_user_key == b"c"
        assert f.largest_user_key == b"m"
        assert f.overlaps_user_range(b"a", b"d")
        assert f.overlaps_user_range(b"m", b"z")
        assert f.overlaps_user_range(None, None)
        assert f.overlaps_user_range(None, b"c")
        assert not f.overlaps_user_range(b"n", b"z")
        assert not f.overlaps_user_range(b"a", b"b")

    def test_obsolete_bytes(self):
        f = meta(1, b"a", b"b", size=1000, valid=700)
        assert f.obsolete_bytes == 300
        assert meta(1, b"a", b"b").obsolete_bytes == 0

    def test_file_name(self):
        assert meta(42, b"a", b"b").file_name() == "000042.sst"

    def test_clone_overrides(self):
        f = meta(1, b"a", b"b")
        g = clone_metadata(f, file_size=2000, append_count=3)
        assert g.file_size == 2000 and g.append_count == 3
        assert f.file_size == 1000


class TestVersionQueries:
    @pytest.fixture
    def version(self):
        v = Version(4)
        v.apply(
            VersionEdit(
                new_files=[
                    (0, meta(10, b"a", b"z")),
                    (0, meta(11, b"c", b"f")),
                    (1, meta(3, b"a", b"f")),
                    (1, meta(4, b"h", b"m")),
                    (1, meta(5, b"p", b"t")),
                    (2, meta(6, b"a", b"z", size=5000)),
                ]
            )
        )
        return v

    def test_counts_and_sizes(self, version):
        assert version.num_files() == 6
        assert version.level_valid_bytes(1) == 3000
        assert version.level_file_bytes(2) == 5000
        assert version.total_file_bytes() == 10000
        assert version.deepest_nonempty_level() == 2

    def test_overlapping_files(self, version):
        assert [f.file_number for f in version.overlapping_files(1, b"e", b"i")] == [3, 4]
        assert version.overlapping_files(1, b"n", b"o") == []
        assert len(version.overlapping_files(1, None, None)) == 3

    def test_file_for_key_sorted_level(self, version):
        assert version.file_for_key(1, b"b").file_number == 3
        assert version.file_for_key(1, b"h").file_number == 4
        assert version.file_for_key(1, b"m").file_number == 4  # a file's last key
        assert version.file_for_key(1, b"t").file_number == 5  # the level's last key
        assert version.file_for_key(1, b"g") is None  # gap between files
        assert version.file_for_key(1, b"zz") is None
        assert version.file_for_key(3, b"a") is None  # empty level

    def test_key_range_absent_below(self, version):
        assert not version.is_key_range_absent_below(1, b"a", b"b")  # L2 covers
        assert version.is_key_range_absent_below(2, b"a", b"b")  # nothing below L2

    def test_live_files(self, version):
        version.apply(VersionEdit(new_vlog_files=[7]))
        assert version.live_files() == {
            "000010.sst": 1000,
            "000011.sst": 1000,
            "000003.sst": 1000,
            "000004.sst": 1000,
            "000005.sst": 1000,
            "000006.sst": 5000,
            "VLOG-000007": None,
        }


class TestVersionMutation:
    def test_delete_and_add(self):
        v = Version(3)
        v.apply(VersionEdit(new_files=[(1, meta(1, b"a", b"c")), (1, meta(2, b"e", b"g"))]))
        v.apply(
            VersionEdit(
                deleted_files=[(1, 1)],
                new_files=[(2, meta(3, b"a", b"c"))],
            )
        )
        assert [f.file_number for f in version_files(v, 1)] == [2]
        assert [f.file_number for f in version_files(v, 2)] == [3]

    def test_update_file_in_place(self):
        v = Version(3)
        v.apply(VersionEdit(new_files=[(1, meta(1, b"a", b"c"))]))
        updated = meta(1, b"a", b"e", size=2000, valid=1500)
        v.apply(VersionEdit(updated_files=[(1, updated)]))
        f = version_files(v, 1)[0]
        assert f.file_size == 2000
        assert f.largest_user_key == b"e"
        assert v.level_obsolete_bytes(1) == 500

    def test_update_unknown_file_rejected(self):
        v = Version(3)
        with pytest.raises(InvalidArgumentError):
            v.apply(VersionEdit(updated_files=[(1, meta(9, b"a", b"b"))]))

    def test_sorted_levels_stay_sorted(self):
        v = Version(3)
        v.apply(VersionEdit(new_files=[(1, meta(2, b"m", b"p"))]))
        v.apply(VersionEdit(new_files=[(1, meta(1, b"a", b"c"))]))
        assert [f.file_number for f in version_files(v, 1)] == [1, 2]

    def test_overlap_at_sorted_level_rejected(self):
        v = Version(3)
        v.apply(VersionEdit(new_files=[(1, meta(1, b"a", b"m"))]))
        with pytest.raises(InvalidArgumentError):
            v.apply(VersionEdit(new_files=[(1, meta(2, b"k", b"z"))]))

    def test_rejected_update_keeps_the_old_entry(self):
        v = Version(3)
        v.apply(VersionEdit(new_files=[(1, meta(1, b"a", b"c")), (1, meta(2, b"e", b"g"))]))
        with pytest.raises(InvalidArgumentError, match="files 1 and 2 overlap"):
            v.apply(VersionEdit(updated_files=[(1, meta(1, b"a", b"f", size=9000))]))
        assert [(f.file_number, f.largest_user_key) for f in version_files(v, 1)] == [
            (1, b"c"),
            (2, b"g"),
        ]
        assert v.level_file_bytes(1) == 2000

    def test_update_may_move_either_bound(self):
        v = Version(3)
        v.apply(VersionEdit(new_files=[(1, meta(n, b"%02d" % (10 * n), b"%02d" % (10 * n + 5))) for n in (1, 2, 3)]))
        # Lowered smallest (keys below the file's range land in it), then a
        # file whose old keys all died and whose new ones sit past its old end.
        v.apply(VersionEdit(updated_files=[(1, meta(1, b"03", b"12"))]))
        v.apply(VersionEdit(updated_files=[(1, meta(2, b"27", b"29"))]))
        assert [f.smallest_user_key for f in version_files(v, 1)] == [b"03", b"27", b"30"]

    def test_level0_may_overlap(self):
        v = Version(3)
        v.apply(VersionEdit(new_files=[(0, meta(1, b"a", b"m")), (0, meta(2, b"k", b"z"))]))
        assert len(version_files(v, 0)) == 2

    def test_clone_file_lists_isolated(self):
        v = Version(3)
        v.apply(VersionEdit(new_files=[(1, meta(1, b"a", b"c"))]))
        snapshot = v.clone_file_lists()
        v.apply(VersionEdit(deleted_files=[(1, 1)]))
        assert len(snapshot[1]) == 1
        assert len(version_files(v, 1)) == 0

    def test_min_levels(self):
        with pytest.raises(InvalidArgumentError):
            Version(1)


class TestCatalogRule:
    """Each clause of :func:`catalog_violations`, broken alone behind
    :meth:`Version.apply`'s back, is the one violation reported."""

    @pytest.fixture
    def version(self):
        v = Version(3)
        v.apply(
            VersionEdit(
                new_files=[
                    (0, meta(10, b"a", b"z")),
                    (0, meta(11, b"c", b"f")),
                    (1, meta(3, b"a", b"f", valid=600)),
                    (1, meta(4, b"h", b"m")),
                ],
                new_vlog_files=[7],
            )
        )
        return v

    @pytest.fixture
    def fs(self, version):
        fs = SimulatedFS()
        for name, size in version.live_files().items():
            fs.replace(name, b"x" * (size or 0))
        return fs

    def test_intact_catalog_holds(self, version, fs):
        assert catalog_violations(version) == []
        assert catalog_violations(version, fs) == []

    def test_l0_out_of_file_number_order(self, version):
        version.levels[0].reverse()
        assert catalog_violations(version) == [
            "L0 out of order or overlapping: 000011.sst ends at b'f', 000010.sst starts at b'a'"
        ]

    def test_overlapping_sorted_level(self, version):
        files = version.levels[1]
        files[1] = clone_metadata(files[1], smallest=make_internal_key(b"e", 1, TYPE_VALUE))
        assert catalog_violations(version) == [
            "L1 out of order or overlapping: 000003.sst ends at b'f', 000004.sst starts at b'e'"
        ]

    def test_inverted_bounds(self, version):
        files = version.levels[1]
        files[1] = clone_metadata(files[1], largest=make_internal_key(b"g", 1, TYPE_VALUE))
        assert catalog_violations(version) == [
            "L1 000004.sst spans b'h' to b'g', 1000 of 1000 bytes valid"
        ]

    def test_valid_bytes_past_file_size(self, version):
        version.levels[0][0] = clone_metadata(version.levels[0][0], file_size=900, valid_bytes=1000)
        version._file_bytes[0] -= 100  # keep the running totals in step
        assert catalog_violations(version) == [
            "L0 000010.sst spans b'a' to b'z', 1000 of 900 bytes valid"
        ]

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_running_total_skewed(self, version, index):
        total = (version._file_bytes, version._valid_bytes, version._obsolete_bytes)[index]
        total[1] += 1
        skewed = [2000, 1600, 400]
        skewed[index] += 1
        assert catalog_violations(version) == [
            f"L1 (file, valid, obsolete) byte totals {tuple(skewed)} != sums (2000, 1600, 400)"
        ]

    def test_num_files_out_of_step(self, version):
        version.levels[1].pop()
        version._file_bytes[1] -= 1000
        version._valid_bytes[1] -= 1000
        assert catalog_violations(version) == ["num_files 4 != 3 files listed"]

    def test_missing_table(self, version, fs):
        fs.delete_file("000004.sst")
        assert catalog_violations(version) == []
        assert catalog_violations(version, fs) == ["catalog references missing file 000004.sst"]

    def test_table_size_mismatch(self, version, fs):
        fs.replace("000003.sst", b"x" * 990)
        assert catalog_violations(version, fs) == [
            "catalog size mismatch for 000003.sst: recorded 1000, on disk 990"
        ]

    def test_missing_value_log(self, version, fs):
        fs.delete_file("VLOG-000007")
        assert catalog_violations(version, fs) == ["catalog references missing file VLOG-000007"]


def version_files(v: Version, level: int):
    return v.files_at(level)


class _CountedKey(bytes):
    """A user key that counts every comparison it takes part in."""

    comparisons = 0
    __hash__ = bytes.__hash__


def _counting(name: str):
    plain = getattr(bytes, name)

    def compare(self, other):
        _CountedKey.comparisons += 1
        return plain(self, other)

    return compare


for _op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__"):
    setattr(_CountedKey, _op, _counting(_op))


def _counted_meta(number: int, lo: int, hi: int, **kwargs) -> FileMetadata:
    f = meta(number, b"%06d" % lo, b"%06d" % hi, **kwargs)
    f.smallest_user_key = _CountedKey(f.smallest_user_key)
    f.largest_user_key = _CountedKey(f.largest_user_key)
    return f


class TestCatalogComplexity:
    """Deterministic stand-in for a wall-clock gate: catalog operations on
    a 2 000-file level cost O(log files) key comparisons per file touched,
    not a re-sort or a scan of the level."""

    FILES = 2000
    BUDGET = 64  # per file touched; log2(2000) is 11

    @pytest.fixture
    def version(self):
        v = Version(4)
        # File n covers [10n, 10n + 5]: every level-3 neighbour pair has a gap.
        v.apply(
            VersionEdit(
                new_files=[(3, _counted_meta(n, 10 * n, 10 * n + 5)) for n in range(self.FILES)]
            )
        )
        _CountedKey.comparisons = 0
        return v

    def test_one_file_add(self, version):
        version.apply(VersionEdit(new_files=[(3, _counted_meta(5000, 10007, 10008))]))
        assert 0 < _CountedKey.comparisons < self.BUDGET
        assert version.files_at(3)[1001].file_number == 5000

    def test_one_file_in_place_update(self, version):
        # Block Compaction's shape: the file grows and both bounds move.
        version.apply(
            VersionEdit(updated_files=[(3, _counted_meta(700, 6997, 7008, size=4000, valid=3000))])
        )
        assert 0 < _CountedKey.comparisons < self.BUDGET
        assert version.files_at(3)[700].file_size == 4000
        assert version.level_obsolete_bytes(3) == 1000

    def test_one_file_delete(self, version):
        version.apply(VersionEdit(deleted_files=[(3, 1234)]))
        assert 0 < _CountedKey.comparisons < self.BUDGET
        assert version.num_files() == self.FILES - 1

    def test_overlapping_files_on_a_three_file_window(self, version):
        lo, hi = _CountedKey(b"%06d" % 5003), _CountedKey(b"%06d" % 5021)
        window = version.overlapping_files(3, lo, hi)
        assert [f.file_number for f in window] == [500, 501, 502]
        assert 0 < _CountedKey.comparisons < self.BUDGET

    def test_totals_do_not_walk_the_level(self, version):
        assert version.level_file_bytes(3) == 1000 * self.FILES
        assert version.level_valid_bytes(3) == 1000 * self.FILES
        assert version.total_file_bytes() == 1000 * self.FILES
        assert _CountedKey.comparisons == 0
