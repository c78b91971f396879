"""Bloom filters.

LevelDB-style double-hashing filters: two 32-bit hashes of the key derive
``k`` probe positions.  Hashing uses salted CRC-32 so results are stable
across processes (Python's builtin ``hash`` is randomized).

:class:`BloomFilter` is the fixed filter used for table- and block-based
policies; :class:`ReservedBloomFilter` (Section IV-D of the paper) allocates
extra bits sized for a fraction of future keys so Block Compaction can append
new keys to an SSTable without rebuilding its filter.
"""

from __future__ import annotations

from zlib import crc32

from ..encoding import decode_fixed32, encode_fixed32
from ..errors import CorruptionError

_SALT1 = b"\x9e\x37\x79\xb9"
_SALT2 = b"\x85\xeb\xca\x6b"
_MIN_BITS = 64


def _hash_pair(key: bytes) -> tuple[int, int]:
    """Two independent 32-bit hashes of ``key`` — everything a filter
    check needs to know about it.  A lookup computes the pair once and
    hands it to every filter it asks (``may_contain(key, key_hash)``)."""
    # ``or``: guard against a degenerate zero step for double hashing.
    return crc32(key), crc32(_SALT1 + key + _SALT2) or 0x5BD1E995


def probes_for_bits_per_key(bits_per_key: int) -> int:
    """Optimal probe count ``k = bits_per_key * ln 2``, clamped to [1, 30]."""
    return max(1, min(30, int(bits_per_key * 0.69)))


class BloomFilter:
    """A fixed-capacity Bloom filter.

    ``capacity`` is the number of keys the bit array was sized for; adding
    more than ``capacity`` keys raises (callers decide when to rebuild).
    """

    def __init__(self, capacity: int, bits_per_key: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if bits_per_key < 1:
            raise ValueError("bits_per_key must be >= 1")
        self.capacity = capacity
        self.bits_per_key = bits_per_key
        self.num_probes = probes_for_bits_per_key(bits_per_key)
        self.num_bits = max(_MIN_BITS, capacity * bits_per_key)
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.num_keys = 0

    def add(self, key: bytes) -> None:
        """Insert ``key``; raises when the filter is at capacity."""
        self.add_many((key,))

    def add_many(self, keys) -> None:
        """Insert every key of the sequence ``keys`` — the builders' bulk
        path: one capacity check and one pass over the bit array, instead
        of a call, a check and a hash-helper call per key.  Raises, adding
        nothing, when the keys do not all fit."""
        if self.num_keys + len(keys) > self.capacity:
            raise OverflowError(
                f"bloom filter at capacity ({self.capacity} keys); rebuild required"
            )
        bits = self._bits
        nbits = self.num_bits
        probes = range(self.num_probes)
        for key in keys:
            # _hash_pair, inlined.
            h1 = crc32(key)
            h2 = crc32(_SALT1 + key + _SALT2) or 0x5BD1E995
            for _ in probes:
                pos = h1 % nbits
                bits[pos >> 3] |= 1 << (pos & 7)
                h1 = (h1 + h2) & 0xFFFFFFFF
        self.num_keys += len(keys)

    def remaining_capacity(self) -> int:
        return self.capacity - self.num_keys

    def may_contain(self, key: bytes, key_hash: tuple[int, int] | None = None) -> bool:
        """False means definitely absent; True means possibly present.
        ``key_hash`` is ``_hash_pair(key)`` when the caller already has it."""
        h1, h2 = key_hash or _hash_pair(key)
        bits = self._bits
        nbits = self.num_bits
        # Probe i tests bit (h1 + i*h2 mod 2**32) mod nbits; the range does
        # the running sum.
        for h in range(h1, h1 + self.num_probes * h2, h2):
            pos = (h & 0xFFFFFFFF) % nbits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    # -- serialization -------------------------------------------------------
    # [kind:1][num_bits:4][capacity:4][num_keys:4][initial_keys:4]
    # [bits_per_key:1][num_probes:1][bits]
    # kind 0 = plain, 1 = reserved-bits (initial_keys meaningful).

    _KIND = 0
    _HEADER_SIZE = 1 + 4 * 4 + 2

    def _initial_keys_field(self) -> int:
        return 0

    def serialize(self) -> bytes:
        """Encode the filter per the header layout above."""
        out = bytearray()
        out.append(self._KIND)
        out += encode_fixed32(self.num_bits)
        out += encode_fixed32(self.capacity)
        out += encode_fixed32(self.num_keys)
        out += encode_fixed32(self._initial_keys_field())
        out.append(self.bits_per_key & 0xFF)
        out.append(self.num_probes & 0xFF)
        out += self._bits
        return bytes(out)

    @staticmethod
    def deserialize(data: bytes) -> "BloomFilter":
        """Decode a filter blob, restoring the concrete subclass."""
        if len(data) < BloomFilter._HEADER_SIZE:
            raise CorruptionError("bloom filter blob too short")
        kind = data[0]
        num_bits = decode_fixed32(data, 1)
        capacity = decode_fixed32(data, 5)
        num_keys = decode_fixed32(data, 9)
        initial_keys = decode_fixed32(data, 13)
        bits_per_key = data[17]
        num_probes = data[18]
        bit_bytes = data[BloomFilter._HEADER_SIZE :]
        if len(bit_bytes) != (num_bits + 7) // 8:
            raise CorruptionError("bloom filter bit array size mismatch")
        # A check takes positions modulo num_bits, num_probes of them.
        if num_bits == 0:
            raise CorruptionError("bloom filter with an empty bit array")
        if not 1 <= num_probes <= 30:
            raise CorruptionError(f"bloom filter probe count {num_probes} outside [1, 30]")
        if kind == 0:
            flt = BloomFilter.__new__(BloomFilter)
        elif kind == 1:
            from .reserved import ReservedBloomFilter

            flt = ReservedBloomFilter.__new__(ReservedBloomFilter)
            flt.initial_keys = initial_keys
        else:
            raise CorruptionError(f"unknown bloom filter kind {kind}")
        flt.capacity = capacity
        flt.bits_per_key = bits_per_key
        flt.num_probes = num_probes
        flt.num_bits = num_bits
        flt._bits = bytearray(bit_bytes)
        flt.num_keys = num_keys
        return flt

    def memory_bytes(self) -> int:
        """Resident size of the bit array (what the table cache accounts)."""
        return len(self._bits)

    def __len__(self) -> int:
        return self.num_keys
