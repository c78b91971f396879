"""Model-based property testing of the whole engine.

A hypothesis-driven stateful test runs random interleavings of puts,
deletes, batches, flushes, manual compactions, scans, and reopen-after-crash
against every compaction style, comparing the DB to the oracle's acked-state
model (:class:`oracle.model.Model`) at each read — live and under every
pinned snapshot — and holding the catalog rule after every step.  This is
the strongest correctness statement in the suite: whatever compaction
rearranges on disk, reads never change.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from conftest import tiny_options
from oracle.model import Model, catalog_violations
from repro.core.db import DB
from repro.core.write_batch import WriteBatch
from repro.options import COMPACTION_BLOCK, COMPACTION_SELECTIVE, COMPACTION_TABLE
from repro.storage.fs import SimulatedFS
from repro.vlog import gc as vlog_gc

KEYS = st.integers(min_value=0, max_value=120)
VALUES = st.binary(min_size=0, max_size=80)


def _key(i: int) -> bytes:
    return f"key{i:04d}".encode()


class EngineMachine(RuleBasedStateMachine):
    style = COMPACTION_TABLE
    #: Extra Options fields a variant runs with.
    overrides: dict = {}
    #: Distinct keys a run touches (rule arguments are folded into it); a
    #: small space makes every flush overlap and overwrite the ones before.
    key_space = 121

    def _k(self, i: int) -> bytes:
        return _key(i % self.key_space)

    def _open(self, **reopen) -> DB:
        options = tiny_options(compaction_style=self.style, **{**self.overrides, **reopen})
        return DB(self.fs, options)

    @initialize()
    def setup(self):
        self.fs = SimulatedFS()
        self.db = self._open()
        self.model = Model()
        #: live snapshots with the model frozen at acquisition
        self.pinned: list[tuple] = []

    def teardown(self):
        if getattr(self, "db", None) is not None:
            self.db.close()

    # ------------------------------------------------------------- actions

    @rule(i=KEYS, value=VALUES)
    def put(self, i, value):
        self.db.put(self._k(i), value)
        self.model.apply(("put", self._k(i), value))

    @rule(i=KEYS)
    def delete(self, i):
        self.db.delete(self._k(i))
        self.model.apply(("delete", self._k(i)))

    @rule(ops=st.lists(st.tuples(st.booleans(), KEYS, VALUES), min_size=1, max_size=6))
    def batch(self, ops):
        batch = WriteBatch()
        entries = []
        for is_put, i, value in ops:
            if is_put:
                batch.put(self._k(i), value)
                entries.append(("put", self._k(i), value))
            else:
                batch.delete(self._k(i))
                entries.append(("delete", self._k(i), None))
        self.db.write(batch)
        self.model.apply(("batch", entries))

    @rule()
    def flush(self):
        self.db.flush()

    @rule()
    def compact_all(self):
        self.db.compact_all()

    @rule(separate=st.booleans())
    def crash_and_recover(self, separate):
        # abandon without close(); reopen over the same simulated disk.
        # Snapshots are handles on the old instance — they don't survive.
        # The store keeps the value format it was created with, whatever
        # the reopen's kv_separation says (DESIGN.md §13).
        self.pinned.clear()
        self.db = self._open(kv_separation=separate)

    @rule()
    def take_snapshot(self):
        if len(self.pinned) < 3:
            self.pinned.append((self.db.snapshot(), self.model.snapshot()))

    @rule()
    def release_oldest_snapshot(self):
        if self.pinned:
            snap, _frozen = self.pinned.pop(0)
            snap.close()

    @rule(i=KEYS)
    def check_snapshot_get(self, i):
        for snap, frozen in self.pinned:
            assert self.db.get(self._k(i), snapshot=snap) == frozen.get(self._k(i))

    @rule()
    def check_snapshot_scan(self):
        for snap, frozen in self.pinned:
            assert self.db.scan(snapshot=snap) == frozen.scan()

    # ----------------------------------------------------------- checks

    @rule(i=KEYS)
    def check_get(self, i):
        assert self.db.get(self._k(i)) == self.model.get(self._k(i))

    @rule(lo=KEYS, hi=KEYS)
    def check_scan(self, lo, hi):
        lo, hi = sorted((self._k(lo), self._k(hi)))
        assert self.db.scan(lo, hi) == self.model.scan(lo, hi)

    @rule(keys=st.lists(KEYS, min_size=1, max_size=8))
    def check_multi_get(self, keys):
        keys = [self._k(i) for i in keys]
        assert self.db.multi_get(keys) == {key: self.model.get(key) for key in keys}
        for snap, frozen in self.pinned:
            assert self.db.multi_get(keys, snapshot=snap) == {
                key: frozen.get(key) for key in keys
            }

    @invariant()
    def levels_disjoint_and_files_exist(self):
        if getattr(self, "db", None) is not None:
            assert catalog_violations(self.db) == []


_settings = settings(
    max_examples=12,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestTableStyleMachine(EngineMachine.TestCase):
    settings = _settings
EngineMachine.style = COMPACTION_TABLE


class _BlockMachine(EngineMachine):
    style = COMPACTION_BLOCK


class _SelectiveMachine(EngineMachine):
    style = COMPACTION_SELECTIVE


class _SeekHeavyMachine(EngineMachine):
    """A seek budget of one per file: every charged miss (gets) and every
    file a scan reads exhausts it, so L0/L1 seek compactions and deferred
    charges fire constantly under the dict oracle."""

    style = COMPACTION_SELECTIVE
    overrides = dict(seek_compaction_min_seeks=1)
    key_space = 3

    @initialize()
    def setup(self):
        """Start from overlapping L0 files, one per generation: generation g
        rewrites keys 0..g, so each file's top key is in no older file and
        a scan that starts there reads — and seek-exhausts — only the newer
        files.  Moving those down without the older ones is the stale-read
        hazard the picker's L0 expansion exists for."""
        super().setup()
        for generation in range(self.key_space):
            for i in range(generation + 1):
                self.put(i, b"generation-%d" % generation)
            self.flush()

    @invariant()
    def every_key_reads_as_the_model(self):
        # Three keys: cheap enough after every step, so the step that
        # reorders files wrongly is the step that fails.
        if getattr(self, "db", None) is not None:
            for i in range(self.key_space):
                assert self.db.get(self._k(i)) == self.model.get(self._k(i))


class _KvSeparatedMachine(EngineMachine):
    """Values of 16+ bytes move to the value log, whose 1 KiB heads roll
    every few puts and whose GC collects what overwrites and deletes
    killed: the catalog rule's value-log clause (every registered VLOG
    file exists) then holds after every step, across reopens."""

    style = COMPACTION_BLOCK
    overrides = dict(
        kv_separation=True,
        kv_separation_threshold=16,
        vlog_file_size=1024,
        vlog_gc_ratio=0.3,
        memtable_size=256,
    )
    key_space = 16

    @initialize()
    def setup(self):
        """Start with three generations of every key in the value log and
        a full compaction that found the older two dead, so sealed files
        past ``vlog_gc_ratio`` wait for the first GC round."""
        super().setup()
        for generation in range(3):
            for i in range(self.key_space):
                self.put(i, b"generation-%d " % generation * 3)
            self.flush()
        self.compact_all()

    @rule()
    def collect_garbage(self):
        """One GC round, as the write path runs it after a flush: a no-op
        unless a sealed file's dead share reached ``vlog_gc_ratio``."""
        vlog_gc.run_round(self.db)


class TestBlockStyleMachine(_BlockMachine.TestCase):
    settings = _settings


class TestSelectiveStyleMachine(_SelectiveMachine.TestCase):
    settings = _settings


class TestSeekHeavyMachine(_SeekHeavyMachine.TestCase):
    settings = settings(_settings, max_examples=120)


class TestKvSeparatedMachine(_KvSeparatedMachine.TestCase):
    settings = _settings
