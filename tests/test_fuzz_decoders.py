"""Decoder fuzzing: arbitrary bytes never crash a parser.

Every on-disk decoder must either return a value or raise
:class:`CorruptionError` — no IndexError/ValueError/struct.error leaks.
This is the property that makes the engine's corruption story coherent:
anything a damaged disk can hand us maps to one exception type.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bloom.bloom import BloomFilter
from repro.core.manifest import decode_edit
from repro.core.write_batch import WriteBatch
from repro.errors import CorruptionError
from repro.sstable.block import DataBlock
from repro.sstable.filter_block import deserialize_filter
from repro.sstable.format import FOOTER_SIZE, Footer, unwrap_block
from repro.sstable.index import IndexBlock
from repro.vlog import (
    POINTER_SIZE,
    decode_pointer,
    decode_record,
    encode_pointer,
    encode_record,
    salvage_scan,
)

blobs = st.binary(max_size=300)

FUZZ = settings(max_examples=150)


class TestDecoderFuzz:
    @FUZZ
    @given(blobs)
    def test_unwrap_block(self, data):
        try:
            unwrap_block(data)
        except CorruptionError:
            pass

    @FUZZ
    @given(blobs)
    @example(b"")
    @example(b"\x00" * 8)
    def test_data_block_parse(self, data):
        try:
            DataBlock.parse(data)
        except CorruptionError:
            pass

    @FUZZ
    @given(blobs)
    def test_index_block(self, data):
        try:
            IndexBlock.deserialize(data)
        except CorruptionError:
            pass

    @FUZZ
    @given(st.binary(min_size=FOOTER_SIZE, max_size=FOOTER_SIZE))
    def test_footer(self, data):
        try:
            Footer.deserialize(data)
        except CorruptionError:
            pass

    @FUZZ
    @given(blobs)
    def test_footer_wrong_size(self, data):
        if len(data) != FOOTER_SIZE:
            with pytest.raises(CorruptionError):
                Footer.deserialize(data)

    @FUZZ
    @given(blobs)
    def test_write_batch(self, data):
        try:
            WriteBatch.deserialize(data)
        except CorruptionError:
            pass

    @FUZZ
    @given(blobs)
    def test_manifest_edit(self, data):
        try:
            decode_edit(data)
        except CorruptionError:
            pass

    # A bloom blob whose header says "no bits, six probes" / "64 bits, no
    # probes": both used to decode, and the first then died in may_contain.
    _NO_BITS = b"\x00" * 18 + b"\x06"
    _NO_PROBES = b"\x00\x40" + b"\x00" * 17 + b"\x00" * 8

    @FUZZ
    @given(blobs)
    @example(b"\x01\x13" + _NO_BITS)  # a table filter wrapping it
    @example(b"\x02\x01\x00\x13" + _NO_BITS)  # a block filter wrapping it
    @example(b"\x01\x1b" + _NO_PROBES)
    def test_filter_blob(self, data):
        try:
            flt = deserialize_filter(data)
        except CorruptionError:
            return
        # What decodes must also be usable: a filter is decoded to be asked.
        flt.may_contain(b"key")
        flt.may_contain_in_block(0, b"key")

    @FUZZ
    @given(blobs)
    @example(_NO_BITS)
    @example(_NO_PROBES)
    def test_bloom_filter(self, data):
        try:
            flt = BloomFilter.deserialize(data)
        except CorruptionError:
            return
        flt.may_contain(b"key")

    @FUZZ
    @given(blobs)
    @example(b"")
    @example(b"\x00" * POINTER_SIZE)
    def test_vlog_pointer(self, data):
        try:
            decode_pointer(data)
        except CorruptionError:
            pass

    @FUZZ
    @given(blobs)
    @example(b"\x00" * 8)
    def test_vlog_record(self, data):
        try:
            decode_record(data)
        except CorruptionError:
            pass

    @FUZZ
    @given(blobs)
    def test_vlog_salvage_scan(self, data):
        # salvage_scan never raises on arbitrary bytes: it returns the
        # records it can prove intact and the prefix length that holds them.
        records, intact = salvage_scan(data)
        assert 0 <= intact <= len(data)
        for offset, length, _key, _value in records:
            assert offset + length <= intact


class TestMutatedRoundTrips:
    """Valid blobs with one byte flipped: decode must stay contained."""

    @settings(max_examples=100)
    @given(st.integers(0, 10**6), st.integers(0, 255))
    def test_mutated_index_block(self, position, flip):
        from repro.keys import TYPE_VALUE, make_internal_key
        from repro.sstable.index import IndexEntry

        entries = [
            IndexEntry(
                make_internal_key(b"a%02d" % i, 1, TYPE_VALUE),
                make_internal_key(b"b%02d" % i, 2, TYPE_VALUE),
                i * 100,
                90,
                4,
            )
            for i in range(5)
        ]
        blob = bytearray(IndexBlock(entries).serialize())
        blob[position % len(blob)] ^= flip or 1
        try:
            IndexBlock.deserialize(bytes(blob))
        except CorruptionError:
            pass

    @settings(max_examples=100)
    @given(st.integers(0, 10**6), st.integers(1, 255))
    def test_mutated_write_batch(self, position, flip):
        blob = bytearray(
            WriteBatch().put(b"key-one", b"value-one").delete(b"key-two").serialize(9)
        )
        blob[position % len(blob)] ^= flip
        try:
            WriteBatch.deserialize(bytes(blob))
        except CorruptionError:
            pass

    @settings(max_examples=100)
    @given(st.integers(0, 10**6), st.integers(1, 255))
    def test_mutated_vlog_record(self, position, flip):
        """A flipped bit anywhere in a framed record must fail the CRC (or
        the frame decode) — it can never return corrupted payload bytes."""
        blob = bytearray(encode_record(b"user-key", b"value-payload" * 3))
        blob[position % len(blob)] ^= flip
        try:
            key, value, _end = decode_record(bytes(blob))
        except CorruptionError:
            return
        # Only a flip that restores an identical frame may decode; any
        # successful decode must return the original payload.
        assert (key, value) == (b"user-key", b"value-payload" * 3)

    @settings(max_examples=100)
    @given(st.integers(0, 10**6), st.integers(1, 255))
    def test_mutated_vlog_pointer(self, position, flip):
        blob = bytearray(encode_pointer(3, 4096, 128))
        blob[position % len(blob)] ^= flip
        try:
            decode_pointer(bytes(blob))
        except CorruptionError:
            pass

    @settings(max_examples=100)
    @given(st.integers(0, 40))
    def test_truncated_vlog_record_never_reads_past(self, cut):
        """Every strict prefix of a frame is rejected, so a torn tail can
        never yield a partial value."""
        blob = encode_record(b"key", b"v" * 24)
        if cut < len(blob):
            with pytest.raises(CorruptionError):
                decode_record(blob[:cut])
