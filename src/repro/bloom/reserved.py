"""Reserved-bits Bloom filter (Section IV-D of the paper).

Block Compaction appends new keys to existing SSTables, which would force a
filter rebuild on every compaction.  BlockDB instead sizes the filter for
``initial_keys * (1 + reserved_fraction)`` keys at construction time: the
reserved headroom absorbs appended keys at the original false-positive rate.
The paper reserves 40% headroom at middle levels and 10% at the last level.

When an append would exceed the headroom the caller rebuilds the filter from
the table's live keys (and pays that cost); :meth:`can_absorb` lets the
compaction decide up front.
"""

from __future__ import annotations

from .bloom import BloomFilter


class ReservedBloomFilter(BloomFilter):
    """Bloom filter with append headroom."""

    _KIND = 1

    def _initial_keys_field(self) -> int:
        return self.initial_keys

    def __init__(self, initial_keys: int, bits_per_key: int, reserved_fraction: float):
        if reserved_fraction < 0:
            raise ValueError("reserved_fraction must be >= 0")
        capacity = initial_keys + int(initial_keys * reserved_fraction)
        super().__init__(capacity=max(capacity, initial_keys), bits_per_key=bits_per_key)
        self.initial_keys = initial_keys

    def can_absorb(self, extra_keys: int) -> bool:
        """True when ``extra_keys`` more keys fit without a rebuild."""
        return self.remaining_capacity() >= extra_keys

    def reserved_bits(self) -> int:
        """Extra bits allocated beyond what ``initial_keys`` alone needs —
        the additional table-cache memory the paper measures in Fig 15."""
        base = max(64, self.initial_keys * self.bits_per_key)
        return self.num_bits - base


def build_filter(
    keys: list[bytes],
    bits_per_key: int,
    reserved_fraction: float = 0.0,
) -> BloomFilter:
    """Construct a filter over ``keys``.

    With ``reserved_fraction > 0`` the result is a
    :class:`ReservedBloomFilter` sized with append headroom; otherwise a
    plain exactly-sized :class:`BloomFilter`.
    """
    if reserved_fraction > 0:
        flt: BloomFilter = ReservedBloomFilter(len(keys), bits_per_key, reserved_fraction)
    else:
        flt = BloomFilter(len(keys), bits_per_key)
    flt.add_many(keys)
    return flt
