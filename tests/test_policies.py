"""Compaction-policy engine and online-tuner tests (DESIGN.md §14).

Covers the :class:`CompactionPolicy` strategy objects (scoring, input
selection, seek admission, granularity routing), the picker running under
each policy, the live policy-switch protocol, and the tuner's hysteresis
state machine — including the property-style invariants: level scores are
monotone in level contents, L0 selection is transitively closed, seek
state survives ``forget_file``, round-robin wraps, and a steady workload
never makes the tuner flap.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_db, tiny_options
from repro.compaction import policy as policy_module
from repro.compaction.picker import CompactionPicker
from repro.compaction.policy import (
    LazyLeveledPolicy,
    LeveledPolicy,
    OneLevelingPolicy,
    TieredPolicy,
    make_policy,
)
from repro.compaction.tuner import CompactionTuner, WindowStats, decide
from repro.core.version import Version, VersionEdit
from repro.errors import InvalidArgumentError
from repro.metrics.stats import DBStats
from repro.options import (
    COMPACTION_BLOCK,
    COMPACTION_TABLE,
    POLICY_LAZY_LEVELED,
    POLICY_LEVELED,
    POLICY_TIERED,
)
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
            ("lazy_leveled", LazyLeveledPolicy),
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
        name=st.sampled_from(
            ["leveled", "tiered", "lazy_leveled", "one_leveling"]
        ),
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

    def test_lazy_leveled_delegates_by_level(self):
        options = tiny_options(compaction_policy="lazy_leveled")
        policy = make_policy("lazy_leveled", options)
        capacity1 = options.level_capacity_bytes(1)
        # Upper level: tiered scoring (overfill divides the score).
        v = _version_with(1, [capacity1 + 1])
        assert policy.level_score(v, 1) < 1.0
        # Last-merge levels (>= max_levels - 2): leveled scoring.
        capacity3 = options.level_capacity_bytes(3)
        v3 = _version_with(3, [capacity3 + 1])
        assert policy.level_score(v3, 3) > 1.0


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

    def test_policy_switch_drops_vetoed_candidates(self):
        options = tiny_options()
        picker = CompactionPicker(options)
        picker.note_seek_exhausted(1, meta(7, b"a", b"c"))
        picker.note_seek_exhausted(0, meta(8, b"a", b"c"))
        picker.set_policy(make_policy("one_leveling", options))
        assert list(picker.seek_candidates) == [8]


class TestGranularityRouting:
    def test_override_and_clear(self):
        policy = _policy("leveled")
        assert policy.granularity_for(2, COMPACTION_TABLE) == COMPACTION_TABLE
        policy.set_granularity(2, COMPACTION_BLOCK)
        assert policy.granularity_for(2, COMPACTION_TABLE) == COMPACTION_BLOCK
        assert policy.granularity_for(3, COMPACTION_TABLE) == COMPACTION_TABLE
        policy.set_granularity(2, None)
        assert policy.granularity_for(2, COMPACTION_TABLE) == COMPACTION_TABLE

    def test_unknown_style_rejected(self):
        with pytest.raises(InvalidArgumentError):
            _policy("leveled").set_granularity(1, "columnar")

    def test_db_routes_compaction_style_through_policy(self):
        db = make_db()
        try:
            for i in range(60):
                db.put(b"k%05d" % i, b"v" * 40)
            db.compact_all()
            task = type(
                "T",
                (),
                {
                    "parent_level": 1,
                    "child_level": 2,
                    "reason": "size",
                    "child_files": [meta(99, b"a", b"z")],
                },
            )()
            assert db.compaction_style_for(task) == COMPACTION_TABLE
            db.picker.policy.set_granularity(2, COMPACTION_BLOCK)
            assert db.compaction_style_for(task) == COMPACTION_BLOCK
        finally:
            db.close()


class TestPolicySwitch:
    def test_switch_preserves_data_and_counts(self):
        db = make_db()
        try:
            for i in range(150):
                db.put(b"k%05d" % i, b"v" * 40)
            assert db.switch_compaction_policy("tiered", reason="test")
            assert db.picker.policy.name == "tiered"
            assert db.stats.policy_switches == 1
            for i in range(150, 300):
                db.put(b"k%05d" % i, b"v" * 40)
            db.compact_all()
            for i in range(0, 300, 37):
                assert db.get(b"k%05d" % i) == b"v" * 40
            assert db.stats.compactions_by_policy.get("tiered", 0) > 0
        finally:
            db.close()

    def test_switch_to_same_policy_is_a_noop(self):
        db = make_db()
        try:
            assert not db.switch_compaction_policy("leveled")
            assert db.stats.policy_switches == 0
        finally:
            db.close()

    def test_switch_applies_granularity_overrides(self):
        db = make_db()
        try:
            db.switch_compaction_policy("tiered", granularity={2: COMPACTION_BLOCK})
            assert db.picker.policy.granularity_overrides() == {2: COMPACTION_BLOCK}
        finally:
            db.close()


class TestTunerDecide:
    """The pure decision rules, driven without an engine."""

    def _options(self, **overrides):
        return tiny_options(compaction_tuner=True, **overrides)

    def test_write_heavy_wants_tiered_with_block_mid_levels(self):
        decision = decide(
            WindowStats(writes=90, gets=10), self._options(), POLICY_LEVELED
        )
        assert decision.policy == POLICY_TIERED
        assert decision.granularity  # mid levels flip to block appends
        assert all(g == COMPACTION_BLOCK for g in decision.granularity.values())

    def test_read_heavy_wants_leveled_with_table_everywhere(self):
        decision = decide(
            WindowStats(writes=10, gets=90), self._options(), POLICY_TIERED
        )
        assert decision.policy == POLICY_LEVELED
        assert all(g == COMPACTION_TABLE for g in decision.granularity.values())

    def test_mixed_wants_lazy_leveled(self):
        decision = decide(
            WindowStats(writes=50, gets=50), self._options(), POLICY_LEVELED
        )
        assert decision.policy == POLICY_LAZY_LEVELED

    def test_stalls_lower_the_write_threshold(self):
        window = WindowStats(writes=60, gets=40, stalls=2)
        assert decide(window, self._options(), POLICY_LEVELED).policy == POLICY_TIERED

    def test_idle_window_stays_put(self):
        decision = decide(WindowStats(), self._options(), POLICY_TIERED)
        assert decision.policy == POLICY_TIERED

    def test_adapt_granularity_off_keeps_defaults(self):
        options = self._options(tuner_adapt_granularity=False)
        decision = decide(WindowStats(writes=90, gets=10), options, POLICY_LEVELED)
        assert decision.policy == POLICY_TIERED
        assert decision.granularity == {}


class _StubDB:
    """The minimal engine surface the tuner drives, with a scripted
    workload counter instead of real operations."""

    def __init__(self, options):
        self.options = options
        self.stats = DBStats()
        self.picker = CompactionPicker(options)
        self.switch_calls: list[str] = []

    def switch_compaction_policy(self, name, *, granularity=None, reason=""):
        changed = self.picker.policy.name != name
        if changed:
            self.picker.set_policy(make_policy(name, self.options))
        self.switch_calls.append(name)
        return changed


def _stub_tuner(**overrides) -> tuple[_StubDB, CompactionTuner]:
    settings = dict(
        compaction_tuner=True,
        tuner_window_ops=10,
        tuner_hysteresis_windows=2,
        tuner_cooldown_ops=0,
    )
    settings.update(overrides)
    options = tiny_options(**settings)
    db = _StubDB(options)
    return db, CompactionTuner(db)


def _run_window(db: _StubDB, tuner: CompactionTuner, *, writes: int, gets: int):
    """Feed exactly one tuner window of the given mix."""
    assert writes + gets == db.options.tuner_window_ops
    db.stats.user_writes += writes
    db.stats.gets += gets
    for _ in range(writes + gets):
        tuner.record_op()


class TestTunerHysteresis:
    def test_steady_workload_switches_at_most_once(self):
        """The no-flapping property: a steady mix converges to one policy
        after one switch and never moves again."""
        db, tuner = _stub_tuner()
        for _ in range(20):
            _run_window(db, tuner, writes=9, gets=1)
        assert tuner.switches == 1
        assert db.picker.policy.name == POLICY_TIERED
        assert sum(1 for _ in db.switch_calls) == 1

    def test_single_window_does_not_switch(self):
        db, tuner = _stub_tuner()  # hysteresis = 2
        _run_window(db, tuner, writes=9, gets=1)
        assert tuner.switches == 0
        assert db.picker.policy.name == POLICY_LEVELED

    def test_alternating_windows_never_flap(self):
        """A mix oscillating faster than the hysteresis horizon produces
        zero switches: agreement never reaches two in a row."""
        db, tuner = _stub_tuner()
        for index in range(20):
            if index % 2 == 0:
                _run_window(db, tuner, writes=9, gets=1)
            else:
                _run_window(db, tuner, writes=1, gets=9)
        assert tuner.switches == 0
        assert db.picker.policy.name == POLICY_LEVELED

    def test_cooldown_defers_the_second_switch(self):
        db, tuner = _stub_tuner(tuner_cooldown_ops=1000)
        for _ in range(4):
            _run_window(db, tuner, writes=9, gets=1)
        assert db.picker.policy.name == POLICY_TIERED  # first switch is free
        for _ in range(4):
            _run_window(db, tuner, writes=1, gets=9)
        assert tuner.switches == 1  # cooldown (1000 ops) still running
        assert db.picker.policy.name == POLICY_TIERED

    def test_debug_state_reports_machine(self):
        db, tuner = _stub_tuner()
        _run_window(db, tuner, writes=9, gets=1)
        state = tuner.debug_state()
        assert state["windows"] == 1
        assert state["pending"] == POLICY_TIERED
        assert state["agree"] == 1
        assert "write-heavy" in state["last_reason"]


class TestTunerIntegration:
    def test_steady_write_workload_converges_in_engine(self):
        """End to end: tuner on, steady write-heavy traffic, at most one
        live switch and the DB still serves every key."""
        db = make_db(
            compaction_tuner=True,
            tuner_window_ops=50,
            tuner_hysteresis_windows=2,
            tuner_cooldown_ops=0,
        )
        try:
            for i in range(600):
                db.put(b"k%05d" % (i % 200), b"v" * 40)
            assert db.stats.policy_switches <= 1
            assert db.picker.policy.name in (POLICY_LEVELED, POLICY_TIERED)
            db.compact_all()
            for i in range(200):
                assert db.get(b"k%05d" % i) == b"v" * 40
        finally:
            db.close()

    def test_tuner_off_by_default(self):
        db = make_db()
        try:
            assert db._tuner is None
        finally:
            db.close()
