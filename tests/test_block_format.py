"""Data-block encoder/parser tests, including prefix compression and
corruption detection."""

import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding import crc32c, encode_fixed32
from repro.errors import CorruptionError
from repro.keys import (
    TYPE_DELETION,
    TYPE_VALUE,
    comparable_from_internal,
    make_internal_key,
)
from repro.sstable.block import DataBlock, parse_block_raw
from repro.sstable.block_builder import BlockCutter
from repro.sstable.format import check_block_trailer, unwrap_block, wrap_block

from conftest import encode_block


def ik(user: bytes, seq: int = 1, vt: int = TYPE_VALUE) -> bytes:
    return make_internal_key(user, seq, vt)


def build(entries, restart_interval=16) -> DataBlock:
    return DataBlock.parse(encode_block(entries, restart_interval))


def cutter(emitted=None) -> BlockCutter:
    """A cutter with 4 KiB blocks collecting what it emits."""
    sink = [] if emitted is None else emitted
    return BlockCutter(4096, 16, lambda *block: sink.append(block))


def ck(user: bytes, seq: int = 1, vt: int = TYPE_VALUE):
    return comparable_from_internal(ik(user, seq, vt))


class TestBuilderBasics:
    def test_empty_block_parses(self):
        # A cutter given no entries emits no block; the empty payload — a
        # restart array of one offset — still parses.
        assert cutter().cut() == 0
        block = DataBlock.parse(struct.pack("<II", 0, 1))
        assert len(block) == 0
        assert block.get(b"k", 100) == (False, None)

    def test_roundtrip_preserves_order_and_values(self):
        entries = [(ik(f"k{i:03d}".encode()), f"v{i}".encode()) for i in range(50)]
        block = build(entries)
        assert len(block) == 50
        decoded = [(k, v) for k, v in block.entries()]
        assert [v for _, v in decoded] == [v for _, v in entries]
        assert decoded[0][0] == comparable_from_internal(entries[0][0])

    def test_duplicate_key_rejected(self):
        blocks = cutter()
        blocks.add_run([(ck(b"k", 5), b"v")])
        with pytest.raises(ValueError):
            blocks.add_run([(ck(b"k", 5), b"v2")])

    def test_restart_interval_one_disables_sharing(self):
        entries = [(ik(f"prefix{i:02d}".encode()), b"v") for i in range(10)]
        shared = build(entries, restart_interval=16)
        unshared = build(entries, restart_interval=1)
        assert unshared.serialized_size > shared.serialized_size
        assert list(unshared.entries()) == list(shared.entries())

    def test_size_estimate_tracks_growth(self):
        blocks = cutter()
        empty = blocks.size_estimate
        blocks.add_run([(ck(b"key1"), b"x" * 100)])
        assert blocks.size_estimate > empty + 100

    def test_reset_clears_state(self):
        emitted = []
        blocks = cutter(emitted)
        blocks.add_run([(ck(b"a"), b"v")])
        assert blocks.cut() == len(emitted[0][0])
        assert blocks.cut() == 0  # nothing pending after a cut
        blocks.add_run([(ck(b"b"), b"v")])  # a fresh block after the cut
        assert blocks.first_key == ik(b"b")
        blocks.cut()
        assert [block[1:4] for block in emitted] == [
            (ik(b"a"), ik(b"a"), 1),
            (ik(b"b"), ik(b"b"), 1),
        ]

    def test_first_last_key_tracking(self):
        blocks = cutter()
        blocks.add_run([(ck(b"aaa"), b""), (ck(b"bbb"), b"")])
        assert blocks.first_key == ik(b"aaa")
        assert blocks.last_key == ik(b"bbb")

    def test_invalid_restart_interval(self):
        with pytest.raises(ValueError):
            BlockCutter(4096, 0, lambda *block: None)


class TestBlockSearch:
    def test_get_finds_each_key(self):
        entries = [(ik(f"k{i:03d}".encode(), seq=i + 1), f"v{i}".encode()) for i in range(20)]
        block = build(entries)
        for i in range(20):
            assert block.get(f"k{i:03d}".encode(), 1000) == (True, f"v{i}".encode())

    def test_get_missing_between_keys(self):
        block = build([(ik(b"a"), b"1"), (ik(b"c"), b"2")])
        assert block.get(b"b", 100) == (False, None)
        assert block.get(b"z", 100) == (False, None)
        assert block.get(b"0", 100) == (False, None)

    def test_tombstone_visible(self):
        block = build([(ik(b"k", 5, TYPE_DELETION), b"")])
        assert block.get(b"k", 100) == (True, None)

    def test_version_visibility(self):
        block = build([(ik(b"k", 9), b"new"), (ik(b"k", 4), b"old")])
        assert block.get(b"k", 100) == (True, b"new")
        assert block.get(b"k", 5) == (True, b"old")
        assert block.get(b"k", 3) == (False, None)

    def test_entries_from(self):
        entries = [(ik(f"k{i}".encode()), b"") for i in range(5)]
        block = build(entries)
        seek = comparable_from_internal(ik(b"k2", 10**9))
        got = [k[0] for k, _ in block.entries_from(seek)]
        assert got == [b"k2", b"k3", b"k4"]

    def test_user_keys(self):
        block = build([(ik(b"a"), b""), (ik(b"b"), b"")])
        assert block.user_keys() == [b"a", b"b"]


class TestTrailerAndCorruption:
    def test_wrap_unwrap_roundtrip(self):
        payload = b"some block payload"
        assert unwrap_block(wrap_block(payload)) == payload

    def test_checksum_detects_flips(self):
        raw = bytearray(wrap_block(b"some block payload"))
        raw[3] ^= 0xFF
        with pytest.raises(CorruptionError):
            unwrap_block(bytes(raw))

    def test_checksum_can_be_skipped(self):
        raw = bytearray(wrap_block(b"some block payload"))
        raw[3] ^= 0xFF
        assert unwrap_block(bytes(raw), verify_checksum=False) != b"some block payload"

    def test_unknown_compression_rejected(self):
        raw = bytearray(wrap_block(b"payload"))
        raw[-5] = 1
        with pytest.raises(CorruptionError):
            unwrap_block(bytes(raw))
        # The trailer's type byte is always 0: even a well-formed zlib
        # stream of a real block, tagged type 1 under a correct checksum,
        # is corruption on every decode path, not a block to inflate.
        payload = encode_block([(ik(b"k%03d" % i), b"v" * 20) for i in range(20)], 16)
        stream = zlib.compress(payload)
        tagged = stream + bytes([1]) + encode_fixed32(crc32c(stream))
        for decode in (
            unwrap_block,
            check_block_trailer,
            parse_block_raw,
            lambda raw: parse_block_raw(raw, lazy=True),
        ):
            with pytest.raises(CorruptionError, match="compression type 1"):
                decode(tagged)

    def test_short_block_rejected(self):
        with pytest.raises(CorruptionError):
            unwrap_block(b"abc")

    def test_parse_garbage_rejected(self):
        with pytest.raises(CorruptionError):
            DataBlock.parse(b"\x01")
        with pytest.raises(CorruptionError):
            # restart count larger than payload
            DataBlock.parse(b"\xff\xff\xff\xff")


class TestProperties:
    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=16), st.binary(max_size=64)),
            min_size=1,
            max_size=60,
            unique_by=lambda t: t[0],
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_roundtrip_property(self, pairs, restart_interval):
        pairs.sort(key=lambda t: t[0])
        entries = [(ik(k, seq=5), v) for k, v in pairs]
        block = build(entries, restart_interval)
        assert len(block) == len(pairs)
        for k, v in pairs:
            assert block.get(k, 100) == (True, v)
