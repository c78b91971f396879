"""The range router and its crash-consistent ``ROUTER`` catalog.

A :class:`RouterMap` is an immutable ordered list of :class:`ShardSpec`
entries — shard *i* owns the key range ``[upper(i-1), upper(i))`` with the
first shard unbounded below and the last unbounded above.  Routing is a
binary search over the exclusive upper bounds.

Persistence mirrors the engine's own manifest/CURRENT protocol
(DESIGN.md §10): every router edit writes a complete snapshot to a fresh
``ROUTER-%06d`` generation file, syncs it, and then atomically swaps the
``ROUTER.CURRENT`` pointer (write temp → sync → rename).  A crash at any
point leaves the pointer naming either the old or the new generation,
both of which are fully-synced snapshots — the same pointer-file helper
``CURRENT`` uses, validated by the same crash-point harness.  Shard
directories not named by the live snapshot are orphans from an
interrupted split/merge and are garbage-collected on reopen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..core.manifest import read_pointer, write_pointer
from ..errors import CorruptionError, InvalidArgumentError
from ..storage.fs import FileSystem

#: Pointer file naming the live ROUTER generation (the catalog's CURRENT).
ROUTER_CURRENT = "ROUTER.CURRENT"
_ROUTER_PREFIX = "ROUTER-"
_FORMAT_VERSION = 1


def router_file_name(epoch: int) -> str:
    return f"{_ROUTER_PREFIX}{epoch:06d}"


def shard_dir_name(shard_id: int) -> str:
    return f"shard-{shard_id:06d}"


@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity and exclusive upper key bound (None = +inf)."""

    name: str
    upper: bytes | None


class RouterMap:
    """Immutable key→shard map.  Edits build a new map (see :meth:`split`
    and :meth:`merge`); :class:`~repro.sharding.sharded_db.ShardedDB` swaps
    the live reference under its router write-lock."""

    __slots__ = ("specs", "next_shard_id", "epoch")

    def __init__(self, specs: tuple[ShardSpec, ...], *, next_shard_id: int, epoch: int = 0):
        if not specs:
            raise InvalidArgumentError("router map needs at least one shard")
        if specs[-1].upper is not None:
            raise InvalidArgumentError("last shard must be unbounded above")
        for i in range(len(specs) - 1):
            upper = specs[i].upper
            if upper is None:
                raise InvalidArgumentError("only the last shard may be unbounded")
            nxt = specs[i + 1].upper
            if nxt is not None and upper >= nxt:
                raise InvalidArgumentError("shard bounds must be strictly increasing")
        if len({spec.name for spec in specs}) != len(specs):
            raise InvalidArgumentError("duplicate shard names in router map")
        self.specs = tuple(specs)
        self.next_shard_id = next_shard_id
        self.epoch = epoch

    @classmethod
    def initial(cls, shards: int, boundaries: list[bytes] | None = None) -> "RouterMap":
        """A fresh N-shard map.  ``boundaries`` (len N-1, sorted) supplies
        the split keys; without them the byte keyspace is divided uniformly
        by first byte — callers with structured keys (tenant prefixes)
        should pass real boundaries."""
        if shards < 1:
            raise InvalidArgumentError("shards must be >= 1")
        if boundaries is None:
            boundaries = [bytes([(256 * i) // shards]) for i in range(1, shards)]
        if len(boundaries) != shards - 1:
            raise InvalidArgumentError(
                f"{shards} shards need {shards - 1} boundaries, got {len(boundaries)}"
            )
        uppers = [bytes(b) for b in boundaries] + [None]
        specs = tuple(
            ShardSpec(shard_dir_name(i), uppers[i]) for i in range(shards)
        )
        return cls(specs, next_shard_id=shards, epoch=0)

    def __len__(self) -> int:
        return len(self.specs)

    def shard_for(self, key: bytes) -> int:
        """Index of the shard owning ``key`` (binary search over bounds)."""
        specs = self.specs
        lo, hi = 0, len(specs) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            upper = specs[mid].upper
            if upper is not None and key >= upper:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def lower(self, index: int) -> bytes | None:
        """Inclusive lower bound of shard ``index`` (None = -inf)."""
        return None if index == 0 else self.specs[index - 1].upper

    def split(self, index: int, split_key: bytes) -> tuple["RouterMap", ShardSpec, ShardSpec]:
        """New map with shard ``index`` replaced by two children at
        ``split_key``; returns (map, left_spec, right_spec)."""
        spec = self.specs[index]
        lower = self.lower(index)
        if lower is not None and split_key <= lower:
            raise InvalidArgumentError("split key at or below shard lower bound")
        if spec.upper is not None and split_key >= spec.upper:
            raise InvalidArgumentError("split key at or above shard upper bound")
        left = ShardSpec(shard_dir_name(self.next_shard_id), split_key)
        right = ShardSpec(shard_dir_name(self.next_shard_id + 1), spec.upper)
        specs = self.specs[:index] + (left, right) + self.specs[index + 1 :]
        return (
            RouterMap(specs, next_shard_id=self.next_shard_id + 2, epoch=self.epoch + 1),
            left,
            right,
        )

    def merge(self, index: int) -> tuple["RouterMap", ShardSpec]:
        """New map with adjacent shards ``index`` and ``index+1`` replaced by
        one child covering their union; returns (map, child_spec)."""
        if index + 1 >= len(self.specs):
            raise InvalidArgumentError("merge needs a right neighbour")
        child = ShardSpec(shard_dir_name(self.next_shard_id), self.specs[index + 1].upper)
        specs = self.specs[:index] + (child,) + self.specs[index + 2 :]
        return (
            RouterMap(specs, next_shard_id=self.next_shard_id + 1, epoch=self.epoch + 1),
            child,
        )

    def to_json(self) -> bytes:
        """Serialize the map for a ``ROUTER-%06d`` catalog snapshot."""
        return json.dumps(
            {
                "version": _FORMAT_VERSION,
                "epoch": self.epoch,
                "next_shard_id": self.next_shard_id,
                "shards": [
                    {
                        "name": spec.name,
                        "upper": spec.upper.hex() if spec.upper is not None else None,
                    }
                    for spec in self.specs
                ],
            },
            indent=0,
        ).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes) -> "RouterMap":
        """Parse a catalog snapshot, raising ``CorruptionError`` on any
        malformed or unknown-version document."""
        try:
            doc = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptionError(f"unreadable ROUTER snapshot: {exc}") from exc
        if doc.get("version") != _FORMAT_VERSION:
            raise CorruptionError(f"unknown ROUTER format version {doc.get('version')!r}")
        specs = tuple(
            ShardSpec(
                entry["name"],
                bytes.fromhex(entry["upper"]) if entry["upper"] is not None else None,
            )
            for entry in doc["shards"]
        )
        return cls(specs, next_shard_id=doc["next_shard_id"], epoch=doc["epoch"])


def save_router(fs: FileSystem, rmap: RouterMap) -> None:
    """Persist ``rmap`` as a new generation and swap the pointer to it.

    Write ordering: snapshot appended and synced first, then the pointer
    swapped (:func:`~repro.core.manifest.write_pointer`) — so the pointer
    can never name a generation a crash could have emptied.  Superseded
    generations are deleted after the swap (a crash mid-cleanup just
    leaves garbage the next :func:`load_router` removes).
    """
    name = router_file_name(rmap.epoch)
    snapshot = fs.create_file(name, category="manifest")
    snapshot.append(rmap.to_json(), category="manifest")
    snapshot.sync()
    snapshot.close()

    write_pointer(fs, ROUTER_CURRENT, name)

    for stale in list(fs.list_dir()):
        if stale.startswith(_ROUTER_PREFIX) and stale != name:
            fs.delete_file(stale)


def load_router(fs: FileSystem) -> RouterMap | None:
    """The live map, or None for a fresh store.  Also garbage-collects
    superseded generation files left by a crash mid-cleanup."""
    name = read_pointer(fs, ROUTER_CURRENT)
    if name is None:
        return None
    if not fs.exists(name):
        raise CorruptionError(f"ROUTER.CURRENT names missing snapshot {name!r}")
    handle = fs.open_random(name)
    try:
        snapshot = handle.read(0, handle.size(), category="manifest", sequential=True)
    finally:
        handle.close()
    rmap = RouterMap.from_json(snapshot)
    for stale in list(fs.list_dir()):
        if stale.startswith(_ROUTER_PREFIX) and stale != name:
            fs.delete_file(stale)
    return rmap
