"""Extended index block (paper Fig 3).

Conventional LevelDB index entries store one separator key per data block.
Block Compaction must *classify* blocks (clean vs dirty) and detect key-range
gaps between blocks, so each entry stores both boundary keys of its block:

* ``Key String`` — the largest key of the block (stored in full);
* ``Shared Size`` / ``Non-Shared String`` — the smallest key, encoded as the
  length of the prefix it shares with the largest key plus the differing
  suffix (the paper's space optimization);
* ``Value Size`` / ``Offset`` — the block's payload size and file offset.

We add one implementation extension: ``num_entries`` per block, needed to
size rebuilt bloom filters and to track live-entry counts across appends
(documented in DESIGN.md).

Entries are kept sorted by key; within one SSTable, block key ranges never
overlap, so a point lookup binary-searches the ``largest`` keys and then
checks the candidate's ``smallest`` bound — rejecting keys that fall in a
gap *without any disk I/O*, which is the read-path benefit the paper claims
for the widened entries.
"""

from __future__ import annotations

import bisect
import struct
from typing import Iterator

from ..encoding import decode_varint, decode_varint3, encode_varint
from ..errors import CorruptionError
from ..keys import user_key_of

#: One- and two-byte varints (values under 0x80), packed in one call.
_BYTE = struct.Struct("<B").pack
_TWO_BYTES = struct.Struct("<BB").pack


class IndexEntry:
    """Metadata for one valid data block.

    A slotted record built once per block written or decoded; never mutated
    once built."""

    __slots__ = ("smallest", "largest", "offset", "size", "num_entries")

    def __init__(self, smallest: bytes, largest: bytes, offset: int, size: int, num_entries: int):
        self.smallest = smallest  # internal key of the block's first entry
        self.largest = largest  # internal key of the block's last entry
        self.offset = offset  # file offset of the block payload
        self.size = size  # payload size (trailer excluded)
        self.num_entries = num_entries

    def _fields(self) -> tuple[bytes, bytes, int, int, int]:
        return (self.smallest, self.largest, self.offset, self.size, self.num_entries)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not IndexEntry:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"IndexEntry(smallest={self.smallest!r}, largest={self.largest!r}, "
            f"offset={self.offset}, size={self.size}, num_entries={self.num_entries})"
        )

    @property
    def smallest_user_key(self) -> bytes:
        return user_key_of(self.smallest)

    @property
    def largest_user_key(self) -> bytes:
        return user_key_of(self.largest)

    def covers_user_key(self, user_key: bytes) -> bool:
        """True when ``user_key`` lies within this block's key range."""
        return self.smallest_user_key <= user_key <= self.largest_user_key


class IndexBlock:
    """An ordered collection of :class:`IndexEntry` with O(log n) lookup."""

    def __init__(self, entries: list[IndexEntry], largest_user_keys: list[bytes] | None = None):
        """``largest_user_keys`` — each entry's largest user key, when the
        caller already holds them (a section writer indexes blocks by them)
        — spares re-splitting every entry's largest internal key."""
        self.entries = entries
        if largest_user_keys is None:
            largest_user_keys = [e.largest_user_key for e in entries]
        self._largest_user_keys = largest_user_keys
        self._serialized_size: int | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[IndexEntry]:
        return iter(self.entries)

    def find_candidate(self, user_key: bytes) -> IndexEntry | None:
        """The unique block that may contain ``user_key``, or None.

        Returns None both when the key is beyond the table and when it falls
        in a gap between blocks — the case the extended entries prune.
        """
        idx = bisect.bisect_left(self._largest_user_keys, user_key)
        if idx >= len(self.entries):
            return None
        entry = self.entries[idx]
        if entry.smallest_user_key <= user_key:
            return entry
        return None

    def first_overlapping(self, user_key: bytes) -> int:
        """Index of the first block whose largest user key is >= ``user_key``
        (``len(self)`` when none) — the compaction cursor primitive."""
        return bisect.bisect_left(self._largest_user_keys, user_key)

    def total_valid_bytes(self) -> int:
        return sum(e.size for e in self.entries)

    def total_entries(self) -> int:
        return sum(e.num_entries for e in self.entries)

    def smallest_key(self) -> bytes | None:
        return self.entries[0].smallest if self.entries else None

    def largest_key(self) -> bytes | None:
        return self.entries[-1].largest if self.entries else None

    # -- serialization (paper Fig 3 field order) ------------------------------

    def serialize(self) -> bytes:
        """Encode all entries in the paper's Fig 3 field order."""
        varint = encode_varint
        from_bytes = int.from_bytes
        parts = [varint(len(self.entries))]
        for e in self.entries:
            smallest = e.smallest
            largest = e.largest
            # The shared prefix, as encoding.shared_prefix_len computes it:
            # the highest set bit of one XOR marks the first differing byte.
            limit = min(len(smallest), len(largest))
            shared = limit - (
                (
                    (from_bytes(smallest[:limit], "big") ^ from_bytes(largest[:limit], "big"))
                    .bit_length()
                    + 7
                )
                >> 3
            )
            non_shared = len(smallest) - shared
            key_len = len(largest)
            if key_len < 0x80 and non_shared < 0x80:
                # shared <= key_len: the three key varints are a byte each.
                head, middle = _BYTE(key_len), _TWO_BYTES(shared, non_shared)
            else:
                head, middle = varint(key_len), varint(shared) + varint(non_shared)
            parts += (
                head,
                largest,
                middle,
                smallest[shared:],
                varint(e.size),
                varint(e.offset),
                varint(e.num_entries),
            )
        payload = b"".join(parts)
        self._serialized_size = len(payload)
        return payload

    @classmethod
    def deserialize(cls, payload: bytes) -> "IndexBlock":
        """Decode an index-block payload (inverse of :meth:`serialize`)."""
        count, offset = decode_varint(payload, 0)
        entries: list[IndexEntry] = []
        for _ in range(count):
            key_size, offset = decode_varint(payload, offset)
            largest = payload[offset : offset + key_size]
            if len(largest) != key_size:
                raise CorruptionError("index entry key overruns payload")
            offset += key_size
            shared, offset = decode_varint(payload, offset)
            non_shared_size, offset = decode_varint(payload, offset)
            non_shared = payload[offset : offset + non_shared_size]
            if len(non_shared) != non_shared_size:
                raise CorruptionError("index entry suffix overruns payload")
            offset += non_shared_size
            if shared > len(largest):
                raise CorruptionError("index entry shares more bytes than its key has")
            smallest = largest[:shared] + non_shared
            size, block_offset, num_entries, offset = decode_varint3(payload, offset)
            entries.append(IndexEntry(smallest, largest, block_offset, size, num_entries))
        block = cls(entries)
        block._serialized_size = len(payload)
        return block

    def memory_bytes(self) -> int:
        """Resident size, approximated by the serialized size (what the
        table cache accounts for Fig 15)."""
        if self._serialized_size is None:
            self._serialized_size = len(self.serialize())
        return self._serialized_size
