#!/usr/bin/env python3
"""Anatomy of a Block Compaction (paper Fig 2, Algorithms 1-3).

Builds a parent SSTable and a child SSTable by hand, then walks one Block
Compaction step by step: classifying clean vs dirty blocks with the
extended index (FindDirtyBlocks), merging dirty blocks (UpdateBlock),
emitting gap keys as brand-new blocks, and appending the rebuilt index —
printing what happened to every block, and comparing the bytes written
against what Table Compaction would have paid.

Run:  python examples/compaction_anatomy.py
"""

from repro.cache.block_cache import BlockCache
from repro.cache.table_cache import TableCache
from repro.compaction.block_compaction import block_compact_file, find_dirty_blocks
from repro.core.version import Version, new_file_metadata
from repro.keys import TYPE_VALUE, comparable_key, make_internal_key
from repro.metrics.stats import DBStats
from repro.options import Options
from repro.sstable import TableBuilder
from repro.storage.fs import SimulatedFS


class Env:
    """A minimal CompactionEnv (what the engine hands to the algorithms)."""

    def __init__(self):
        self.options = Options(
            block_size=256,
            sstable_size=8192,
            memtable_size=8192,
            max_levels=4,
            bloom_reserved_mid_fraction=0.4,
        )
        self.fs = SimulatedFS()
        self.table_cache = TableCache(self.fs, self.options)
        self.block_cache = BlockCache(1 << 20)
        self.version = Version(self.options.max_levels)
        self.stats = DBStats()
        self._next_file = 0

    def new_file_number(self) -> int:
        self._next_file += 1
        return self._next_file

    def snapshot_boundaries(self) -> list[int]:
        return []  # no live snapshots in this walkthrough


def key(i: int) -> bytes:
    return b"%05d" % i


def main() -> None:
    env = Env()

    # Child SSTable at L(i+1): keys 0, 2, 4, ..., 78 (several 256 B blocks).
    number = env.new_file_number()
    builder = TableBuilder(env.fs, f"{number:06d}.sst", env.options, level=2)
    for seq, i in enumerate(range(0, 80, 2), start=1):
        builder.add(make_internal_key(key(i), seq, TYPE_VALUE), b"child-value-" + key(i))
    child_info = builder.finish()
    child_meta = new_file_metadata(number, child_info)
    reader = env.table_cache.get(child_meta.file_number, child_meta.file_name())

    print("== child SSTable ==")
    print(f"file: {child_meta.file_name()}  size: {child_meta.file_size} B  "
          f"entries: {child_meta.num_entries}  blocks: {len(reader.index)}")
    for i, entry in enumerate(reader.index.entries):
        print(f"  block {i}: keys [{entry.smallest_user_key.decode()} .. "
              f"{entry.largest_user_key.decode()}]  {entry.size} B @ {entry.offset}")

    # Parent keys: one update inside block 1, plus the paper's Fig 2 case —
    # keys that fall in no block's range ("51"-style gap keys).
    gap = reader.index.entries[1].largest_user_key + b"g"  # between blocks 1 and 2
    beyond = key(99)  # beyond the last block
    inside = reader.index.entries[1].smallest_user_key  # dirties block 1
    parent = sorted(
        [
            (comparable_key(inside, 900, TYPE_VALUE), b"UPDATED"),
            (comparable_key(gap, 901, TYPE_VALUE), b"GAP-KEY"),
            (comparable_key(beyond, 902, TYPE_VALUE), b"BEYOND"),
        ]
    )
    print("\n== selected (parent) keys ==")
    for ck, value in parent:
        print(f"  {ck[0].decode()} -> {value.decode()}")

    # Algorithm 3: classify blocks without reading any data.
    scan = find_dirty_blocks([ck[0] for ck, _ in parent], reader.index)
    print("\n== FindDirtyBlocks (Algorithm 3) ==")
    print(f"dirty blocks: {[e.offset for e in scan.dirty_entries]}  "
          f"dirty bytes: {scan.dirty_bytes}  "
          f"dirty ratio: {scan.dirty_ratio(child_meta.valid_bytes):.2f}")

    # Algorithms 1+2: the compaction itself.
    written_before = env.fs.stats.bytes_written
    new_meta, stats = block_compact_file(env, parent, child_meta, child_level=2)
    written = env.fs.stats.bytes_written - written_before

    print("\n== BlockCompaction (Algorithms 1-2) ==")
    print(f"clean blocks reused : {stats.clean_blocks}")
    print(f"dirty blocks merged : {stats.dirty_blocks}")
    print(f"new blocks appended : {stats.new_blocks}  (gap keys become new blocks)")
    print(f"filter rebuilt      : {stats.filter_rebuilt}  "
          f"(reserved bits absorbed the new keys)" if not stats.filter_rebuilt else "")
    print(f"bytes written       : {written} B")
    print(f"file grew           : {child_meta.file_size} -> {new_meta.file_size} B "
          f"(obsolete: {new_meta.obsolete_bytes} B)")

    table_compaction_cost = child_meta.file_size  # full rewrite
    print(f"\nTable Compaction would have rewritten the whole file: "
          f"~{table_compaction_cost} B -> Block Compaction wrote "
          f"{written / table_compaction_cost:.0%} of that.")

    # Verify the merged view.
    reader.reload()
    print("\n== reads after compaction ==")
    for probe, expect in [(inside, b"UPDATED"), (gap, b"GAP-KEY"), (beyond, b"BEYOND"),
                          (key(0), b"child-value-" + key(0))]:
        found, value = reader.lookup(probe, 10**9)[:2]
        status = "OK" if (found and value == expect) else "FAIL"
        print(f"  get({probe.decode()}) = {value!r:30}  [{status}]")


if __name__ == "__main__":
    main()
