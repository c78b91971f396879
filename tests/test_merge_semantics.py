"""Property tests for the compaction merge semantics — the correctness core.

``merge_live`` / ``merge_keep_newest`` must, for ANY set of versions and
ANY set of snapshot boundaries, preserve exactly what every relevant read
view can observe.  These tests compare against a brute-force model.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compaction.base import merge_keep_newest, merge_live
from repro.keys import (
    TYPE_DELETION,
    TYPE_VALUE,
    comparable_key,
    comparable_parts,
)

# Version universe: (key ordinal, sequence, is_delete) — unique (key, seq).
versions_st = st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 50), st.booleans()),
    max_size=40,
    unique_by=lambda t: (t[0], t[1]),
)
boundaries_st = st.lists(st.integers(0, 55), max_size=3, unique=True)


def entries_of(raw):
    """Sorted (comparable, value) stream from the raw version tuples."""
    out = []
    for ordinal, seq, is_del in raw:
        key = b"k%d" % ordinal
        vt = TYPE_DELETION if is_del else TYPE_VALUE
        value = b"" if is_del else b"v-%d-%d" % (ordinal, seq)
        out.append((comparable_key(key, seq, vt), value))
    return sorted(out)


def model_view(raw, at_sequence):
    """What a reader at ``at_sequence`` sees: {key: value} (tombstones absent)."""
    view = {}
    for ordinal, seq, is_del in sorted(raw, key=lambda t: t[1]):
        if seq <= at_sequence:
            key = b"k%d" % ordinal
            view[key] = None if is_del else b"v-%d-%d" % (ordinal, seq)
    return {k: v for k, v in view.items() if v is not None}


def read_view(entries, at_sequence):
    """Read {key: value} out of merged (comparable, value) rows."""
    view = {}
    for comparable, value in entries:
        user_key, seq, vt = comparable_parts(comparable)
        if seq <= at_sequence and user_key not in view:
            view[user_key] = None if vt == TYPE_DELETION else value
    return {k: v for k, v in view.items() if v is not None}


class TestMergeLiveProperties:
    @settings(max_examples=60)
    @given(versions_st, boundaries_st)
    def test_every_snapshot_view_preserved(self, raw, bounds):
        """After merging with tombstone dropping allowed, every snapshot's
        view and the live view are unchanged."""
        boundaries = sorted(bounds)
        merged = list(merge_live([entries_of(raw)], lambda _k: True, boundaries))
        live_seq = 10**6
        for at in boundaries + [live_seq]:
            assert read_view(merged, at) == model_view(raw, at), (raw, bounds, at)

    @settings(max_examples=40)
    @given(versions_st)
    def test_no_snapshots_drops_everything_stale(self, raw):
        merged = list(merge_live([entries_of(raw)], lambda _k: True))
        # exactly one surviving row per live key, no tombstones at all
        assert not any(comparable_parts(ck)[2] == TYPE_DELETION for ck, _v in merged)
        keys = [ck[0] for ck, _v in merged]
        assert keys == sorted(set(keys))
        assert read_view(merged, 10**6) == model_view(raw, 10**6)

    @settings(max_examples=40)
    @given(versions_st, boundaries_st)
    def test_protected_tombstones_survive(self, raw, bounds):
        """When tombstone dropping is forbidden (deeper levels may hold the
        key), deletes must keep shadowing at every view."""
        boundaries = sorted(bounds)
        merged = list(merge_live([entries_of(raw)], lambda _k: False, boundaries))
        for at in boundaries + [10**6]:
            got = read_view(merged, at)
            expected = model_view(raw, at)
            assert got == expected

    @settings(max_examples=40)
    @given(versions_st, boundaries_st)
    def test_output_sorted_and_unique(self, raw, bounds):
        merged = list(merge_live([entries_of(raw)], lambda _k: True, sorted(bounds)))
        comparables = [ck for ck, _v in merged]
        assert comparables == sorted(comparables)
        assert len(set(comparables)) == len(comparables)


class TestMergeKeepNewestProperties:
    @settings(max_examples=40)
    @given(versions_st, boundaries_st)
    def test_views_preserved_with_tombstones_intact(self, raw, bounds):
        boundaries = sorted(bounds)
        merged = list(merge_keep_newest([entries_of(raw)], boundaries))
        for at in boundaries + [10**6]:
            view = {}
            for comparable, value in merged:
                user_key, seq, vt = comparable_parts(comparable)
                if seq <= at and user_key not in view:
                    view[user_key] = None if vt == TYPE_DELETION else value
            got = {k: v for k, v in view.items() if v is not None}
            assert got == model_view(raw, at)

    @settings(max_examples=30)
    @given(versions_st)
    def test_multiple_sources_equal_single_concatenated(self, raw):
        """Merging split sources equals merging the union."""
        entries = entries_of(raw)
        split_a = entries[::2]
        split_b = entries[1::2]
        together = list(merge_keep_newest([entries]))
        apart = list(merge_keep_newest([iter(split_a), iter(split_b)]))
        assert together == apart
