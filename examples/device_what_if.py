#!/usr/bin/env python3
"""What-if analysis: how storage hardware changes BlockDB's advantage.

The engine charges every I/O to an analytic device model, so the same
deterministic run can be priced on different hardware.  This example loads
identical data into LevelDB- and BlockDB-configured engines on three device
profiles and shows where block-grained compaction pays off most:

* on bandwidth-poor devices, avoiding rewrites is a large win;
* on devices with painful random reads, Block Compaction gives some of the
  win back (dirty-block fetches and scattered valid blocks are random I/O)
  — the trade-off the paper's Section III-D cost model describes.

Run:  python examples/device_what_if.py
"""

import random

from repro import DB, DeviceModel, SimulatedFS, blockdb, leveldb_like
from repro.metrics import format_table

PROFILES = {
    # name: (profile, note)
    "SATA SSD (paper)": DeviceModel(),  # Intel D3-S4610 defaults
    "NVMe SSD": DeviceModel(
        seq_read_bandwidth=3500e6,
        seq_write_bandwidth=3000e6,
        random_read_latency=20e-6,
        internal_parallelism=32,
    ),
    "disk-like (slow seeks)": DeviceModel(
        seq_read_bandwidth=200e6,
        seq_write_bandwidth=180e6,
        random_read_latency=5e-3,
        internal_parallelism=1,
    ),
}


def run(options, device) -> float:
    db = DB(SimulatedFS(device=device), options)
    ordinals = list(range(8000))
    random.Random(1).shuffle(ordinals)
    for i in ordinals:
        db.put(f"user{i:08d}".encode(), b"v" * 1024)
    elapsed = db.io_stats.sim_time_s
    db.close()
    return elapsed


def main() -> None:
    rows = []
    for name, device in PROFILES.items():
        level_t = run(leveldb_like(sstable_size=64 * 1024, block_cache_capacity=1 << 20), device)
        block_t = run(blockdb(sstable_size=64 * 1024, block_cache_capacity=1 << 20), device)
        rows.append(
            [
                name,
                round(level_t, 3),
                round(block_t, 3),
                f"{1 - block_t / level_t:.1%}",
            ]
        )
        print(f"  {name}: done")
    print()
    print(
        format_table(
            ["device", "LevelDB (sim s)", "BlockDB (sim s)", "BlockDB saves"],
            rows,
            title="8 MB uniform load priced on three device profiles",
        )
    )


if __name__ == "__main__":
    main()
