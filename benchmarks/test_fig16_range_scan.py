"""Fig 16 — range-scan workloads (SCAN-RO/RH/BA/WH).

Paper result: BlockDB outperforms the others; LevelDB/L2SM/BlockDB benefit
from seek compaction collapsing levels under scan pressure while RocksDB
(no seek compaction) keeps its full height and pays more reads per scan.

Reproduced shape: on SCAN-RO the paper's ordering holds exactly — BlockDB
fastest, RocksDB slowest.  On the write-bearing mixes BlockDB remains the
best *seek-compacting* engine (vs LevelDB/L2SM), but in this simulation
RocksDB's static tree keeps its block cache warm and avoids collapse churn,
which can put it ahead — a scale artifact of the measurement window; see
EXPERIMENTS.md for the discussion.

BlockDB matches LevelDB/L2SM on SCAN-WH rather than beating them by 10 %:
that margin (0.45 s against 0.57 s) was LevelDB compacting seek-exhausted
L0 files one at a time, rewriting L1 once per file — the picker bug that
also returned stale reads.  With L0 seek candidates compacted together
LevelDB takes 0.41 s and BlockDB 0.43 s (EXPERIMENTS.md, Fig 16).
"""

from conftest import emit
from repro.experiments import fig16_range_scan

# 10 paper-M requests; doubled to compensate the default REPRO_OPS_FACTOR of
# 0.5 so the level collapse amortizes as it does in the paper's 10M-op runs.
OPS_PAPER_MILLIONS = 20


def test_fig16_range_scan(benchmark, scale):
    headers, rows = benchmark.pedantic(
        lambda: fig16_range_scan(scale, ops_paper_millions=OPS_PAPER_MILLIONS),
        rounds=1,
        iterations=1,
    )
    emit("Fig 16 — scan workloads, running time (simulated s, overlapped)", headers, rows)

    names = headers[1:]
    data = {row[0]: dict(zip(names, row[1:])) for row in rows}

    # SCAN-RO: the paper's ordering — BlockDB at (or within noise of) the
    # best, RocksDB clearly the worst.
    ro = {s: data[s]["SCAN-RO"] for s in data}
    assert ro["BlockDB"] <= min(ro.values()) * 1.03
    assert ro["RocksDB"] == max(ro.values())
    assert ro["RocksDB"] > ro["LevelDB"] * 1.05  # tall tree costs real time

    # Write-bearing mixes: BlockDB at least matches the other
    # seek-compacting engines (5% tolerance — all three are near-ties at
    # this scale; see the module docstring for SCAN-WH).
    for mix in ("SCAN-RH", "SCAN-BA", "SCAN-WH"):
        assert data["BlockDB"][mix] <= data["LevelDB"][mix] * 1.05
        assert data["BlockDB"][mix] <= data["L2SM"][mix] * 1.05
