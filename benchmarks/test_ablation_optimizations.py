"""Ablation — each of BlockDB's design choices, toggled individually.

Not a paper figure; DESIGN.md calls out the design decisions and this bench
quantifies what each one buys:

* **compaction grain** — table-only vs pure block vs selective (the WA /
  space-amplification trade-off of Sections III-IV);
* **Parallel Merging** — simulated-time speedup at identical I/O volume;
* **Lazy Deletion** — directory-scan count and time;
* **reserved bloom bits** — filter rebuilds avoided vs filter memory paid.
"""

import random

import pytest

from conftest import emit
from repro.core.db import DB
from repro.baselines.presets import blockdb
from repro.storage.fs import SimulatedFS
from repro.ycsb.runner import load_db
from repro.ycsb.workloads import DEFAULT_KEY_SIZE


def build_variant(scale, **overrides) -> DB:
    options = blockdb(
        sstable_size=scale.sstable_size,
        block_cache_capacity=scale.cache_bytes(20),
        block_size=scale.block_size,
        **overrides,
    )
    return DB(SimulatedFS(), options)


VARIANTS = [
    ("BlockDB (full)", {}),
    ("table compaction only", {"compaction_style": "table"}),
    ("pure block compaction", {"compaction_style": "block"}),
    (
        "pure block, no parallel merging",
        {"compaction_style": "block", "parallel_merging": False},
    ),
    ("no parallel merging", {"parallel_merging": False}),
    ("no lazy deletion", {"lazy_deletion": False}),
    (
        "no reserved bloom bits",
        {"bloom_reserved_mid_fraction": 0.0, "bloom_reserved_last_fraction": 0.0},
    ),
]


def run_ablation(scale):
    num_keys = scale.num_keys(20)
    dataset = num_keys * (DEFAULT_KEY_SIZE + scale.value_size)
    rows = []
    outcomes = {}
    for name, overrides in VARIANTS:
        db = build_variant(scale, **overrides)
        load_db(db, num_keys, value_size=scale.value_size, seed=0)
        rows.append(
            [
                name,
                round(db.io_stats.sim_time_s, 4),
                round(db.stats.write_amplification(), 2),
                round(db.stats.space_amplification(dataset), 2),
                db.stats.obsolete_scans,
                db.stats.filter_rebuilds,
                db.stats.filter_absorbs,
            ]
        )
        outcomes[name] = db.stats
        db.close()
    return rows, outcomes


def test_ablation(benchmark, scale):
    rows, outcomes = benchmark.pedantic(lambda: run_ablation(scale), rounds=1, iterations=1)
    emit(
        "Ablation — BlockDB optimizations, 20 GB-equivalent load",
        ["variant", "sim s", "WA", "SA", "dir scans", "filter rebuilds", "filter absorbs"],
        rows,
    )
    data = {row[0]: row for row in rows}

    # Compaction grain: table has the worst WA and best SA; pure block the
    # reverse; selective (full BlockDB) sits between on space while keeping
    # most of the WA win.
    assert data["BlockDB (full)"][2] < data["table compaction only"][2]
    assert data["pure block compaction"][2] <= data["BlockDB (full)"][2] * 1.05
    assert data["pure block compaction"][3] >= data["BlockDB (full)"][3]

    # Parallel merging: same logical work, more simulated time without it —
    # in the block style as in the selective one.
    assert data["no parallel merging"][1] >= data["BlockDB (full)"][1]
    assert data["no parallel merging"][2] == pytest.approx(data["BlockDB (full)"][2], rel=0.01)
    assert data["pure block compaction"][1] < data["pure block, no parallel merging"][1]
    assert data["pure block compaction"][2] == data["pure block, no parallel merging"][2]

    # Lazy deletion batches directory scans.
    assert data["BlockDB (full)"][4] < data["no lazy deletion"][4]

    # Reserved bits avoid filter rebuilds entirely unless headroom runs out;
    # without them every block compaction rebuilds.
    assert data["BlockDB (full)"][5] < data["no reserved bloom bits"][5]
    assert data["BlockDB (full)"][6] > 0
