"""Options validation and derived-capacity tests."""

import pytest

from repro.baselines.presets import blockdb, l2sm_options, leveldb_like, rocksdb_like
from repro.compaction.lazy_deletion import DeletionManager
from repro.errors import InvalidArgumentError
from repro.options import (
    COMPACTION_SELECTIVE,
    COMPACTION_TABLE,
    FILTER_BLOCK,
    FILTER_TABLE,
    Options,
    SelectiveThresholds,
    default_selective_thresholds,
)
from repro.storage.fs import SimulatedFS


class TestValidation:
    def test_defaults_validate(self):
        Options().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("block_size", 10),
            ("sstable_size", 100),
            ("memtable_size", 100),
            ("level_size_multiplier", 1),
            ("max_levels", 1),
            ("max_levels", 20),
            ("compaction_style", "bogus"),
            ("filter_policy", "bogus"),
            ("bloom_bits_per_key", -1),
            ("bloom_bits_per_key", 0),
            ("compaction_workers", 0),
            ("compaction_offload", "thread"),
            ("compaction_policy", "lazy_leveled"),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(InvalidArgumentError):
            Options(**{field: value}).validate()

    def test_stop_below_slowdown_rejected(self):
        opts = Options(level0_slowdown_writes_trigger=12, level0_stop_writes_trigger=10)
        with pytest.raises(InvalidArgumentError):
            opts.validate()

    def test_threshold_ranges(self):
        with pytest.raises(InvalidArgumentError):
            SelectiveThresholds(max_dirty_ratio=1.5).validate()
        with pytest.raises(InvalidArgumentError):
            SelectiveThresholds(min_valid_ratio=-0.1).validate()
        with pytest.raises(InvalidArgumentError):
            SelectiveThresholds(max_file_growth=0.5).validate()


class TestDerived:
    def test_level_capacities_grow_exponentially(self):
        opts = Options(sstable_size=1 << 20, level0_size_factor=8, level_size_multiplier=10)
        base = 8 << 20
        assert opts.level_capacity_bytes(0) == base
        assert opts.level_capacity_bytes(1) == base  # L1 == L0 (paper V-I)
        assert opts.level_capacity_bytes(2) == base * 10
        assert opts.level_capacity_bytes(3) == base * 100

    def test_level0_trigger(self):
        assert Options(level0_size_factor=8).level0_file_trigger() == 8

    def test_max_file_size_uses_growth_threshold(self):
        opts = Options(sstable_size=1000)
        growth = opts.selective_thresholds[2].max_file_growth
        assert opts.max_file_size(2) == int(1000 * growth)

    def test_default_thresholds_strict_at_last_level(self):
        thresholds = default_selective_thresholds(5)
        assert thresholds[-1].max_dirty_ratio < thresholds[0].max_dirty_ratio
        assert thresholds[-1].min_valid_ratio > thresholds[0].min_valid_ratio

    def test_reserved_fraction_by_level(self):
        opts = Options(
            max_levels=5,
            bloom_reserved_mid_fraction=0.4,
            bloom_reserved_last_fraction=0.1,
        )
        assert opts.bloom_reserved_fraction(1) == 0.4
        assert opts.bloom_reserved_fraction(3) == 0.4
        assert opts.bloom_reserved_fraction(4) == 0.1

    def test_copy_overrides(self):
        opts = Options(block_size=4096)
        copy = opts.copy(block_size=8192)
        assert copy.block_size == 8192
        assert opts.block_size == 4096


class TestPresets:
    def test_leveldb_preset(self):
        opts = leveldb_like(sstable_size=1 << 20)
        opts.validate()
        assert opts.compaction_style == COMPACTION_TABLE
        assert opts.enable_seek_compaction
        assert opts.filter_policy == FILTER_BLOCK
        assert not opts.lazy_deletion
        assert opts.memtable_size == opts.sstable_size

    def test_rocksdb_preset(self):
        opts = rocksdb_like(sstable_size=1 << 20)
        opts.validate()
        assert opts.compaction_style == COMPACTION_TABLE
        assert not opts.enable_seek_compaction
        assert opts.filter_policy == FILTER_TABLE

    def test_blockdb_preset(self):
        opts = blockdb(sstable_size=1 << 20)
        opts.validate()
        assert opts.compaction_style == COMPACTION_SELECTIVE
        assert opts.enable_seek_compaction
        assert opts.parallel_merging
        assert opts.lazy_deletion
        assert opts.bloom_reserved_mid_fraction == 0.40
        assert opts.bloom_reserved_last_fraction == 0.10
        manager = DeletionManager(SimulatedFS(), opts, None, None, None)
        assert manager.threshold == 12 * (1 << 20)

    def test_l2sm_preset(self):
        opts = l2sm_options(sstable_size=1 << 20)
        opts.validate()
        assert opts.compaction_style == COMPACTION_TABLE
        assert opts.filter_policy == FILTER_TABLE

    def test_common_paper_settings(self):
        for factory in (leveldb_like, rocksdb_like, blockdb, l2sm_options):
            opts = factory(sstable_size=1 << 20)
            assert opts.level0_slowdown_writes_trigger == 12
            assert opts.level0_stop_writes_trigger == 16
            assert opts.bloom_bits_per_key == 10
            assert opts.level_size_multiplier == 10
            assert opts.level0_size_factor == 8

    def test_preset_overrides(self):
        opts = leveldb_like(sstable_size=1 << 20, lazy_deletion=True)
        assert opts.lazy_deletion


def test_every_option_is_read_somewhere():
    """A field nothing reads is not an option: every ``Options`` field name
    appears in the engine's source outside ``options.py`` (as an attribute
    read, a keyword in a preset, or a ``JobGeometry`` copy)."""
    import dataclasses
    import re
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    source = "\n".join(
        path.read_text() for path in sorted(root.rglob("*.py")) if path.name != "options.py"
    )
    words = set(re.findall(r"\w+", source))
    unread = [f.name for f in dataclasses.fields(Options) if f.name not in words]
    assert unread == []


#: Fields no preset, experiment driver, tool, oracle leg, benchmark or
#: example sets, kept anyway — each with the reason.  Every other field
#: must have a caller (``test_every_option_has_a_caller``).
UNCALLED_OPTIONS = {
    "table_cache_capacity": "a memory budget",
    "paranoid_checks": "a safety check",
}


def test_every_option_has_a_caller():
    """A field only tests set is a constant with a configuration lattice
    attached: every ``Options`` field is set somewhere in ``src/`` (outside
    ``options.py``), ``oracle/``, ``benchmarks/`` or ``examples/`` — as a keyword
    (``f=``), a dict key (``"f":``) or a quoted name — unless
    :data:`UNCALLED_OPTIONS` says why not.  A copy of a value that already
    exists (``f=options.f``, ``"f": self._lru.capacity``) sets nothing."""
    import dataclasses
    import re
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    source = "\n".join(
        path.read_text()
        for folder in ("src", "oracle", "benchmarks", "examples")
        for path in sorted((repo / folder).rglob("*.py"))
        if path.name != "options.py"
    )
    uncalled = []
    for f in dataclasses.fields(Options):
        name = re.escape(f.name)
        settings = re.findall(
            rf"""(?<![\w.'"])(?:{name}=(?!=)|['"]{name}['"]\s*:)\s*([^,)}}\n]*)""", source
        )
        copies = [
            value
            for value in settings
            if re.fullmatch(rf"(self(\.\w+)+|\w+(\.\w+)*\.{name})", value.strip())
        ]
        quoted = re.search(rf"""['"]{name}['"](?!\s*:)""", source)
        if len(settings) == len(copies) and not quoted:
            uncalled.append(f.name)
    assert sorted(uncalled) == sorted(UNCALLED_OPTIONS)
