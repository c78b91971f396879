"""Selective Compaction decision tests (Algorithm 4)."""

import pytest

from conftest import tiny_options
from repro.compaction.base import CompactionTask
from repro.compaction.parallel import SubtaskExecutor
from repro.compaction.selective import decide, run_selective_compaction
from repro.core.version import clone_metadata
from repro.keys import TYPE_VALUE, comparable_key
from repro.options import SelectiveThresholds
from test_block_compaction_unit import FakeEnv, k


def lenient_thresholds(n):
    return [SelectiveThresholds(max_dirty_ratio=0.9, min_valid_ratio=0.1, max_file_growth=10.0)] * n


@pytest.fixture
def env():
    options = tiny_options(compaction_style="selective")
    options.selective_thresholds = lenient_thresholds(options.max_levels)
    return FakeEnv(options)


def inline(env):
    """The sub-task executor a default (synchronous) DB would own."""
    return SubtaskExecutor(env.fs.stats, env.options)


def parent_for(keys, seq=900):
    return [(comparable_key(key, seq + i, TYPE_VALUE), b"P") for i, key in enumerate(keys)]


class TestDecide:
    def test_empty_slice_skips(self, env):
        meta = env.build([k(i) for i in range(10)], register=2)
        env.build([k(i) for i in range(100, 110)], register=3)  # make L2 non-last
        decision = decide(env, [], meta, 2)
        assert decision.compaction_type == "skip"
        assert decision.rule == "empty-slice"

    def test_low_dirty_ratio_chooses_block(self, env):
        env.build([k(i) for i in range(100, 110)], register=3)
        meta = env.build([k(i) for i in range(0, 40, 2)], register=2)
        decision = decide(env, parent_for([k(2)]), meta, 2)
        assert decision.compaction_type == "block"
        assert decision.dirty_ratio < 0.5
        assert decision.scan is not None

    def test_high_dirty_ratio_chooses_table(self, env):
        env.build([k(i) for i in range(100, 110)], register=3)
        env.options.selective_thresholds = [
            SelectiveThresholds(max_dirty_ratio=0.3, min_valid_ratio=0.0, max_file_growth=10.0)
        ] * env.options.max_levels
        meta = env.build([k(i) for i in range(0, 40, 2)], register=2)
        touches = [k(i) for i in range(0, 40, 2)]  # every block dirty
        decision = decide(env, parent_for(touches), meta, 2)
        assert decision.compaction_type == "table"
        assert decision.rule == "dirty-ratio"
        assert decision.dirty_ratio == pytest.approx(1.0)

    def test_oversized_file_chooses_table_split(self, env):
        """Prose semantics of the paper's MAX_VALID_SIZE rule."""
        env.build([k(i) for i in range(100, 110)], register=3)
        meta = env.build([k(i) for i in range(10)], register=2)
        bloated = clone_metadata(meta, file_size=env.options.max_file_size(2) + 1)
        decision = decide(env, parent_for([k(2)]), bloated, 2)
        assert decision.compaction_type == "table"
        assert decision.rule == "valid-size"

    def test_low_valid_ratio_chooses_table_gc(self, env):
        env.build([k(i) for i in range(100, 110)], register=3)
        env.options.selective_thresholds = [
            SelectiveThresholds(max_dirty_ratio=0.9, min_valid_ratio=0.5, max_file_growth=10.0)
        ] * env.options.max_levels
        meta = env.build([k(i) for i in range(10)], register=2)
        garbage_heavy = clone_metadata(meta, valid_bytes=meta.file_size // 10)
        decision = decide(env, parent_for([k(2)]), garbage_heavy, 2)
        assert decision.compaction_type == "table"
        assert decision.rule == "valid-ratio"

    def test_last_level_uses_strict_thresholds(self, env):
        """The deepest non-empty level gets the strict (space-saving)
        threshold set even when mid-level thresholds are lenient."""
        env.options.selective_thresholds = lenient_thresholds(env.options.max_levels)
        env.options.selective_thresholds[-1] = SelectiveThresholds(
            max_dirty_ratio=0.01, min_valid_ratio=0.0, max_file_growth=10.0
        )
        meta = env.build([k(i) for i in range(0, 40, 2)], register=2)  # deepest = 2
        decision = decide(env, parent_for([k(2)]), meta, 2)
        assert decision.compaction_type == "table"
        assert decision.rule == "dirty-ratio"


class TestRunSelective:
    def test_mixed_decisions_in_one_task(self, env):
        env.build([k(i) for i in range(200, 210)], register=3)  # L2 not last
        clean_child = env.build([k(i) for i in range(0, 40, 2)], register=2)
        dirty_child = env.build([k(i) for i in range(60, 100, 2)], register=2)
        parent_keys = [k(2)] + [k(i) for i in range(60, 100, 2)]
        parent = env.build(parent_keys, level=1, seq_start=900, register=1)
        env.options.selective_thresholds = [
            SelectiveThresholds(max_dirty_ratio=0.5, min_valid_ratio=0.0, max_file_growth=10.0)
        ] * env.options.max_levels
        task = CompactionTask(1, [parent], [clean_child, dirty_child])
        decisions = []
        result = run_selective_compaction(env, task, inline(env), decisions)
        by_file = {d.file_number: d.compaction_type for d in decisions}
        assert by_file[clean_child.file_number] == "block"
        assert by_file[dirty_child.file_number] == "table"
        assert result.block_subtasks == 1
        assert result.table_subtasks == 1
        updated = {n.file_number for _l, n in result.edit.updated_files}
        assert updated == {clean_child.file_number}
        deleted = {n for _l, n in result.edit.deleted_files}
        assert dirty_child.file_number in deleted
        assert parent.file_number in deleted

    def test_requires_children(self, env):
        parent = env.build([k(1)], level=1, register=1)
        with pytest.raises(ValueError):
            run_selective_compaction(env, CompactionTask(1, [parent], []), inline(env))

    def test_table_rewrite_merges_content(self, env):
        child = env.build([k(i) for i in range(0, 20, 2)], register=2)
        parent = env.build([k(i) for i in range(0, 20, 2)], level=1, seq_start=900, register=1)
        env.options.selective_thresholds = [
            SelectiveThresholds(max_dirty_ratio=0.0, min_valid_ratio=0.0, max_file_growth=10.0)
        ] * env.options.max_levels
        task = CompactionTask(1, [parent], [child])
        result = run_selective_compaction(env, task, inline(env))
        assert result.table_subtasks == 1
        new_files = [m for _l, m in result.edit.new_files]
        assert new_files
        # rewritten outputs contain exactly the 10 (deduped) keys
        assert sum(m.num_entries for m in new_files) == 10
