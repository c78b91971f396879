"""Bloom filter tests: correctness, false-positive bounds, reserved bits."""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom.bloom import BloomFilter, _hash_pair, probes_for_bits_per_key
from repro.bloom.reserved import ReservedBloomFilter, build_filter
from repro.errors import CorruptionError


def _keys(n, tag=b"k"):
    return [tag + f"{i:08d}".encode() for i in range(n)]


class TestBloomFilter:
    def test_no_false_negatives(self):
        keys = _keys(500)
        flt = build_filter(keys, bits_per_key=10)
        assert all(flt.may_contain(k) for k in keys)

    def test_false_positive_rate_bounded(self):
        keys = _keys(2000)
        flt = build_filter(keys, bits_per_key=10)
        probes = [b"absent" + f"{i:08d}".encode() for i in range(2000)]
        fpr = sum(flt.may_contain(p) for p in probes) / len(probes)
        # Theoretical FPR at 10 bits/key is ~1%; allow generous slack.
        assert fpr < 0.05

    def test_more_bits_fewer_false_positives(self):
        keys = _keys(1000)
        probes = [b"absent" + f"{i:06d}".encode() for i in range(3000)]
        fpr = {}
        for bpk in (4, 16):
            flt = build_filter(keys, bits_per_key=bpk)
            fpr[bpk] = sum(flt.may_contain(p) for p in probes)
        assert fpr[16] < fpr[4]

    def test_capacity_enforced(self):
        flt = BloomFilter(capacity=2, bits_per_key=10)
        flt.add(b"a")
        flt.add(b"b")
        with pytest.raises(OverflowError):
            flt.add(b"c")
        assert flt.remaining_capacity() == 0

    def test_empty_filter(self):
        flt = BloomFilter(capacity=0, bits_per_key=10)
        assert not flt.may_contain(b"anything")

    def test_probe_count_formula(self):
        assert probes_for_bits_per_key(10) == 6
        assert probes_for_bits_per_key(1) == 1
        assert probes_for_bits_per_key(100) == 30  # clamped

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=-1, bits_per_key=10)
        with pytest.raises(ValueError):
            BloomFilter(capacity=10, bits_per_key=0)

    @settings(max_examples=25)
    @given(st.lists(st.binary(min_size=1, max_size=30), min_size=1, max_size=100, unique=True))
    def test_no_false_negatives_property(self, keys):
        flt = build_filter(keys, bits_per_key=10)
        assert all(flt.may_contain(k) for k in keys)


class TestSerialization:
    def test_roundtrip_preserves_behaviour(self):
        keys = _keys(100)
        flt = build_filter(keys, bits_per_key=10)
        clone = BloomFilter.deserialize(flt.serialize())
        assert type(clone) is BloomFilter
        assert all(clone.may_contain(k) for k in keys)
        assert clone.num_bits == flt.num_bits
        assert clone.num_keys == flt.num_keys

    def test_reserved_roundtrip_preserves_class_and_headroom(self):
        flt = ReservedBloomFilter(100, bits_per_key=10, reserved_fraction=0.4)
        for k in _keys(100):
            flt.add(k)
        clone = BloomFilter.deserialize(flt.serialize())
        assert isinstance(clone, ReservedBloomFilter)
        assert clone.can_absorb(40)
        assert not clone.can_absorb(41)
        assert clone.initial_keys == 100

    def test_corrupt_blob_rejected(self):
        with pytest.raises(CorruptionError):
            BloomFilter.deserialize(b"short")
        flt = build_filter(_keys(10), bits_per_key=10)
        blob = bytearray(flt.serialize())
        blob[0] = 9  # unknown kind
        with pytest.raises(CorruptionError):
            BloomFilter.deserialize(bytes(blob))
        with pytest.raises(CorruptionError):
            BloomFilter.deserialize(flt.serialize()[:-1])  # truncated bits

    def test_unusable_header_rejected_at_decode(self):
        """A header a check cannot work with — no bits to take a position
        modulo, a probe count outside what any builder writes — is
        corruption when decoded, not a ZeroDivisionError (or a filter that
        admits everything) at the first ``may_contain``."""
        header = bytearray(build_filter([], bits_per_key=10).serialize()[:19])
        header[1:5] = (0).to_bytes(4, "little")  # num_bits = 0, and no bit bytes
        with pytest.raises(CorruptionError):
            BloomFilter.deserialize(bytes(header))
        blob = bytearray(build_filter(_keys(10), bits_per_key=10).serialize())
        for probes in (0, 31, 255):
            blob[18] = probes
            with pytest.raises(CorruptionError):
                BloomFilter.deserialize(bytes(blob))
        for probes in (1, 30):
            blob[18] = probes
            assert BloomFilter.deserialize(bytes(blob)).num_probes == probes


class TestKeyHash:
    """A lookup hashes its key once and hands the pair to every filter."""

    @pytest.mark.parametrize("reserved_fraction", [0.0, 0.4])
    def test_passed_hash_gives_the_same_answers(self, reserved_fraction):
        keys = _keys(200)
        flt = build_filter(keys[:100], bits_per_key=10, reserved_fraction=reserved_fraction)
        for k in keys:
            assert flt.may_contain(k, _hash_pair(k)) == flt.may_contain(k)
        assert all(flt.may_contain(k, _hash_pair(k)) for k in keys[:100])

    def test_hash_pair_is_two_crcs_with_a_nonzero_step(self):
        for k in _keys(50) + [b""]:
            h1, h2 = _hash_pair(k)
            assert h1 == zlib.crc32(k)
            assert h2 == (zlib.crc32(b"\x9e\x37\x79\xb9" + k + b"\x85\xeb\xca\x6b") or 0x5BD1E995)
            assert 0 <= h1 < 2**32 and 0 < h2 < 2**32

    def test_probe_positions_wrap_at_32_bits(self):
        """A check tests bits (h1 + i*h2 mod 2**32) mod num_bits — the
        positions ``add_many`` sets with a running masked sum — also for a
        hash pair whose sum wraps on the first step."""
        flt = BloomFilter(capacity=64, bits_per_key=10)
        pair = (0xFFFFFFF0, 0xFFFFFFFE)
        assert not flt.may_contain(b"ignored", pair)
        h1, h2 = pair
        for probe in range(flt.num_probes):
            pos = h1 % flt.num_bits
            flt._bits[pos >> 3] |= 1 << (pos & 7)
            h1 = (h1 + h2) & 0xFFFFFFFF
            # Every probe's bit must be set before the filter admits the pair.
            assert flt.may_contain(b"ignored", pair) == (probe == flt.num_probes - 1)


class TestReservedBits:
    def test_headroom_absorbs_appends(self):
        flt = ReservedBloomFilter(100, bits_per_key=10, reserved_fraction=0.4)
        for k in _keys(100):
            flt.add(k)
        assert flt.can_absorb(40)
        for k in _keys(40, tag=b"new"):
            flt.add(k)
        assert all(flt.may_contain(k) for k in _keys(40, tag=b"new"))
        with pytest.raises(OverflowError):
            flt.add(b"one-too-many")

    def test_reserved_bits_memory_overhead(self):
        plain = build_filter(_keys(100), bits_per_key=10)
        reserved = build_filter(_keys(100), bits_per_key=10, reserved_fraction=0.4)
        assert reserved.memory_bytes() > plain.memory_bytes()
        assert isinstance(reserved, ReservedBloomFilter)
        # 40% more capacity -> ~40% more bits
        assert reserved.num_bits == pytest.approx(plain.num_bits * 1.4, rel=0.05)
        assert reserved.reserved_bits() == reserved.num_bits - plain.num_bits

    def test_fpr_maintained_after_absorbing(self):
        """The whole point of reserving: appended keys don't degrade the FPR
        beyond the designed rate."""
        flt = ReservedBloomFilter(1000, bits_per_key=10, reserved_fraction=0.4)
        for k in _keys(1000):
            flt.add(k)
        for k in _keys(400, tag=b"appended"):
            flt.add(k)
        probes = [b"absent" + f"{i:06d}".encode() for i in range(2000)]
        fpr = sum(flt.may_contain(p) for p in probes) / len(probes)
        assert fpr < 0.05

    def test_zero_fraction_equals_plain_capacity(self):
        flt = ReservedBloomFilter(50, bits_per_key=10, reserved_fraction=0.0)
        assert flt.capacity == 50
        assert not flt.can_absorb(1) or flt.num_keys < 50

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError):
            ReservedBloomFilter(10, 10, -0.1)
