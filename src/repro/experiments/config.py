"""Scaled experimental setup shared by every figure/table driver.

The paper loads 40/80 GB (40/80 million 1 KB pairs) onto a datacenter SSD.
A pure-Python engine must scale that down; we keep every *ratio* the
behaviour depends on and shrink only the totals:

=====================  ================  =======================
quantity               paper             this reproduction
=====================  ================  =======================
key / value size       32 B / 1 KB       32 B / 1 KB  (unchanged)
block size             4 KB              4 KB         (unchanged)
SSTable = memtable     16 MB             64 KB
L0 = L1 capacity       8 x SSTable       8 x SSTable  (unchanged)
level fan-out a        10                10           (unchanged)
"1 GB" of load         1 M pairs         ``keys_per_gb`` pairs (default 1000)
block cache            10 % of data      10 % of data (unchanged)
=====================  ================  =======================

Because values still dwarf keys, blocks still hold ~4 pairs, and the level
geometry is identical, amplification ratios and win/lose orderings carry
over; only absolute byte counts shrink.  "Running time" is simulated device
time (see :mod:`repro.storage.device_model`).

Environment knobs (read once at import): ``REPRO_KEYS_PER_GB`` scales
dataset sizes, ``REPRO_OPS_FACTOR`` scales request counts — set both higher
for a slower, closer-to-paper run of the benchmark suite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..baselines.l2sm import L2SMDB
from ..baselines.presets import blockdb, l2sm_options, leveldb_like, rocksdb_like
from ..core.db import DB
from ..options import Options
from ..storage.fs import SimulatedFS

#: The four systems of the paper's evaluation, in its plotting order.
SYSTEMS = ("LevelDB", "RocksDB", "L2SM", "BlockDB")

KEYS_PER_GB = int(os.environ.get("REPRO_KEYS_PER_GB", "1000"))
OPS_FACTOR = float(os.environ.get("REPRO_OPS_FACTOR", "1.0"))


@dataclass(frozen=True)
class ExperimentScale:
    """Size parameters for one experiment family."""

    sstable_size: int = 64 * 1024
    block_size: int = 4096
    value_size: int = 1024
    keys_per_gb: int = KEYS_PER_GB
    cache_fraction: float = 0.10

    def num_keys(self, paper_gb: int) -> int:
        """Loaded pairs standing in for a paper dataset of ``paper_gb``."""
        return paper_gb * self.keys_per_gb

    def num_ops(self, paper_millions: int) -> int:
        """Request count standing in for ``paper_millions`` M operations.

        The paper issues one request per loaded pair (40 M requests over
        40 M keys); we keep that 1:1 ratio times ``OPS_FACTOR``."""
        return max(1, int(paper_millions * self.keys_per_gb * OPS_FACTOR))

    def cache_bytes(self, paper_gb: int) -> int:
        """Block cache sized at 10 % of the dataset (Section V-F)."""
        return int(self.num_keys(paper_gb) * self.value_size * self.cache_fraction)


DEFAULT_SCALE = ExperimentScale()


def options_for(name: str, scale: ExperimentScale, cache_bytes: int, **overrides) -> Options:
    """Preset options for system ``name`` at this scale."""
    factories = {
        "LevelDB": leveldb_like,
        "RocksDB": rocksdb_like,
        "L2SM": l2sm_options,
        "BlockDB": blockdb,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise KeyError(f"unknown system {name!r}; expected one of {SYSTEMS}") from None
    # Scale the seek-budget floor with the SSTable size so the experiments
    # keep the paper's touches-per-budget ratio (LevelDB's floor of 100 is
    # calibrated for multi-MiB files; a 64 KiB file deserves ~4).
    overrides.setdefault(
        "seek_compaction_min_seeks",
        max(2, round(100 * scale.sstable_size / (16 * 1024 * 1024))),
    )
    return factory(
        sstable_size=scale.sstable_size,
        block_cache_capacity=cache_bytes,
        block_size=scale.block_size,
        **overrides,
    )


def make_system(
    name: str,
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    paper_gb: int = 40,
    **overrides,
) -> DB:
    """A fresh instance of system ``name`` on its own simulated device."""
    opts = options_for(name, scale, scale.cache_bytes(paper_gb), **overrides)
    fs = SimulatedFS()
    if name == "L2SM":
        return L2SMDB(fs, opts)
    return DB(fs, opts)


@dataclass
class LoadOutcome:
    """Scalars captured from one bulk load (shared by Figs 5-8, 15, 17-18)."""

    system: str
    paper_gb: int
    num_keys: int
    sim_time_s: float
    wall_time_s: float
    write_amplification: float
    per_level_write_bytes: list[int] = field(default_factory=list)
    files_per_level: list[int] = field(default_factory=list)
    index_memory_bytes: int = 0
    filter_memory_bytes: int = 0
    space_amplification: float = 0.0
    throughput_curve: list = field(default_factory=list)


@dataclass
class WorkloadOutcome:
    """Scalars captured from one request-mix run (Figs 11-14, 16)."""

    system: str
    workload: str
    write_mode: str
    zipf: float | None
    sim_time_s: float
    ops: int
    reads_found: int
    block_cache_misses: int
    block_cache_hits: int
    scan_entries: int = 0
    #: Running time with compaction/flush I/O overlapping the foreground —
    #: the measure matching the paper's threaded setup (Figs 11-13, 16).
    overlapped_time_s: float = 0.0
