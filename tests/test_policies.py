"""Compaction-policy engine tests (DESIGN.md §14).

Covers the :class:`CompactionPolicy` strategy objects (scoring, input
selection, seek admission), the picker running under each policy and the
style routing beside it — including the property-style invariants: level
scores are monotone in level contents, L0 selection is transitively
closed, seek state survives ``forget_file``, round-robin wraps, and no two
policies leave the same tree.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_db, tiny_options
from repro.compaction import policy as policy_module
from repro.compaction.picker import CompactionPicker
from repro.compaction.policy import (
    LeveledPolicy,
    OneLevelingPolicy,
    TieredPolicy,
    make_policy,
)
from repro.core.db import DB
from repro.core.version import Version, VersionEdit
from repro.errors import InvalidArgumentError
from repro.options import (
    _COMPACTION_POLICIES,
    COMPACTION_BLOCK,
    COMPACTION_TABLE,
)
from repro.storage.fs import SimulatedFS
from test_version import meta


def _policy(name, **overrides):
    return make_policy(name, tiny_options(compaction_policy=name, **overrides))


def _version_with(level: int, sizes: list[int]) -> Version:
    """A version holding disjoint files of ``sizes`` at ``level``."""
    v = Version(5)
    for index, size in enumerate(sizes):
        lo = b"k%04d" % (index * 10)
        hi = b"k%04d" % (index * 10 + 5)
        v.apply(VersionEdit(new_files=[(level, meta(index + 1, lo, hi, size=size))]))
    return v


class TestMakePolicy:
    def test_all_names_construct(self):
        for name, cls in (
            ("leveled", LeveledPolicy),
            ("tiered", TieredPolicy),
            ("one_leveling", OneLevelingPolicy),
        ):
            assert isinstance(_policy(name), cls)

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_policy("universal", tiny_options())

    def test_options_validate_rejects_unknown_policy(self):
        with pytest.raises(InvalidArgumentError):
            tiny_options(compaction_policy="universal").validate()

    def test_picker_builds_policy_from_options(self):
        picker = CompactionPicker(tiny_options(compaction_policy="tiered"))
        assert picker.policy.name == "tiered"


class TestScoreMonotonicity:
    """Adding data to a level never lowers any policy's score for it —
    the property that makes every policy's trigger eventually fire."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["leveled", "tiered", "one_leveling"]),
        level=st.integers(min_value=0, max_value=3),
        sizes=st.lists(
            st.integers(min_value=1, max_value=50_000), min_size=1, max_size=8
        ),
    )
    def test_score_nondecreasing_as_files_arrive(self, name, level, sizes):
        policy = _policy(name)
        v = Version(5)
        last = policy.level_score(v, level)
        for index, size in enumerate(sizes):
            lo = b"k%04d" % (index * 10)
            hi = b"k%04d" % (index * 10 + 5)
            v.apply(
                VersionEdit(new_files=[(level, meta(index + 1, lo, hi, size=size))])
            )
            score = policy.level_score(v, level)
            assert score >= last
            last = score

    def test_tiered_due_later_than_leveled(self):
        """The overfill factor defers tiered's deeper-level trigger."""
        leveled = _policy("leveled")
        tiered = _policy("tiered")
        capacity = tiny_options().level_capacity_bytes(1)
        v = _version_with(1, [capacity + 1])
        assert leveled.level_score(v, 1) > 1.0
        assert tiered.level_score(v, 1) < 1.0
        v4 = _version_with(1, [capacity + 1] * 4)
        assert tiered.level_score(v4, 1) > 1.0


class TestInputSelection:
    def test_leveled_level0_transitive_closure(self):
        """L0 selection chains every file whose range overlaps the
        growing union — no overlapping L0 file may be left behind."""
        picker = CompactionPicker(tiny_options())
        v = Version(5)
        for number in range(4):
            v.apply(VersionEdit(new_files=[(0, meta(number + 1, b"a", b"m"))]))
        v.apply(VersionEdit(new_files=[(0, meta(9, b"l", b"z"))]))
        task = picker.pick(v)
        assert task.parent_level == 0
        assert len(task.parent_files) == 5

    def test_tiered_moves_whole_level(self, monkeypatch):
        monkeypatch.setattr(policy_module, "TIERED_OVERFILL", 2.0)
        options = tiny_options(compaction_policy="tiered")
        picker = CompactionPicker(options)
        capacity = options.level_capacity_bytes(1)
        v = _version_with(1, [capacity] * 3)  # 3x capacity > 2x overfill
        # An overlapping child, so the trivial-move degradation cannot kick in.
        v.apply(VersionEdit(new_files=[(2, meta(50, b"k0000", b"k9999"))]))
        task = picker.pick(v)
        assert task.parent_level == 1
        assert len(task.parent_files) == 3

    def test_tiered_degrades_to_round_robin_for_trivial_moves(self, monkeypatch):
        monkeypatch.setattr(policy_module, "TIERED_OVERFILL", 2.0)
        options = tiny_options(compaction_policy="tiered")
        picker = CompactionPicker(options)
        capacity = options.level_capacity_bytes(1)
        v = _version_with(1, [capacity] * 3)  # nothing at L2: pure moves
        task = picker.pick(v)
        assert task.parent_level == 1
        assert len(task.parent_files) == 1

    def test_round_robin_wraps_around(self):
        options = tiny_options()
        picker = CompactionPicker(options)
        size = options.level_capacity_bytes(1)
        v = Version(5)
        v.apply(
            VersionEdit(
                new_files=[
                    (1, meta(1, b"a", b"c", size=size // 2 + 1)),
                    (1, meta(2, b"e", b"g", size=size // 2 + 1)),
                ]
            )
        )
        picked = []
        for _ in range(3):
            task = picker.pick(v)
            picked.append(task.parent_files[0].file_number)
            picker.advance_pointer(task)
        assert picked == [1, 2, 1]

    def test_one_leveling_never_picks_deeper_levels(self):
        picker = CompactionPicker(tiny_options(compaction_policy="one_leveling"))
        v = _version_with(1, [10**9])  # grossly over any leveled capacity
        assert picker.pick(v) is None
        for number in range(4):
            v.apply(VersionEdit(new_files=[(0, meta(100 + number, b"a", b"z"))]))
        task = picker.pick(v)
        assert task.parent_level == 0
        assert len(task.parent_files) == 4


class TestPoliciesMeasureApart:
    def test_every_pair_of_policies_shapes_the_tree_differently(self):
        """A policy that leaves the same tree as another is dead or broken:
        on one seeded load over the policy bench's geometry, every pair of
        registered policies ends with a different files-per-level shape
        (12,000 puts over 4,000 keys; fewer puts leave ``tiered`` and
        ``one_leveling`` tied)."""
        from benchmarks.perf.compaction_policies import VALUE_SIZE, _options

        value = b"v" * VALUE_SIZE
        shapes = {}
        for name in _COMPACTION_POLICIES:
            rng = random.Random(1)
            db = DB(SimulatedFS(), _options(name))
            try:
                for _ in range(12_000):
                    db.put(b"user%012d" % rng.randrange(4_000), value)
                shapes[name] = db.num_files_per_level()
            finally:
                db.close()
        for a, b in itertools.combinations(shapes, 2):
            assert shapes[a] != shapes[b], (a, b, shapes[a])


class TestSeekAdmission:
    def test_forget_file_drops_seek_candidate(self):
        picker = CompactionPicker(tiny_options())
        picker.note_seek_exhausted(1, meta(7, b"a", b"c"))
        picker.forget_file(7)
        assert picker.seek_candidates == {}

    def test_one_leveling_vetoes_deep_seek_candidates(self):
        picker = CompactionPicker(tiny_options(compaction_policy="one_leveling"))
        picker.note_seek_exhausted(1, meta(7, b"a", b"c"))
        assert picker.seek_candidates == {}
        picker.note_seek_exhausted(0, meta(8, b"a", b"c"))
        assert 8 in picker.seek_candidates


class TestStyleRouting:
    def test_compaction_style_comes_from_options_under_every_policy(self):
        """Granularity is not a policy's: a size task below L0 runs
        ``Options.compaction_style`` whatever the policy, and L0 parents and
        seek tasks run Table Compaction."""
        task = type(
            "T",
            (),
            {
                "parent_level": 1,
                "child_level": 2,
                "reason": "size",
                "parent_files": [meta(98, b"a", b"z")],
                "child_files": [meta(99, b"a", b"z")],
            },
        )()
        for name in _COMPACTION_POLICIES:
            db = make_db(COMPACTION_BLOCK, compaction_policy=name)
            try:
                assert db.compaction_style_for(task) == COMPACTION_BLOCK
                task.reason = "seek"
                assert db.compaction_style_for(task) == COMPACTION_TABLE
                task.reason, task.parent_level = "size", 0
                assert db.compaction_style_for(task) == COMPACTION_TABLE
                task.parent_level = 1
            finally:
                db.close()
