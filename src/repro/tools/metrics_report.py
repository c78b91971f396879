"""Offline per-level metrics from a store's manifest (no DB open).

Replays the live manifest into a bare :class:`~repro.core.version.Version`
and reports what the catalog alone can prove: per-level file counts,
file/valid/obsolete bytes, garbage ratios, space amplification, and which
on-disk ``.sst`` files are live vs awaiting lazy deletion.  Write
amplification needs cumulative I/O counters that only a running DB
accumulates, so this report states space amplification (the persisted
quantity) and labels it as such.

CLI::

    python -m repro.tools metrics <store-dir>
    python -m repro.tools metrics <sharded-store-root>
    python -m repro.tools metrics --cache-report BENCH_read_scaling.json
    python -m repro.tools metrics --policy-report BENCH_compaction_policies.json

A sharded store root (a ``LocalShardStore`` directory, recognized by its
``_router/`` catalog) is replayed shard by shard: the report aggregates
every shard's per-level storage with a per-shard breakdown table keyed by
the router's committed map.  The ``--cache-report`` form renders the
per-shard cache hit/miss counters a benchmark report captured
(``benchmarks/perf/read_scaling.py``) — cache state is runtime-only, so
it travels via the report JSON rather than the manifest.  The
``--policy-report`` form does the same for compaction-policy counters
(per-policy compaction breakdown, tuner switches) captured by
``benchmarks/perf/compaction_policies.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..core.manifest import read_current, replay_manifest
from ..core.version import Version, VersionEdit
from ..metrics.report import format_table, human_bytes
from ..options import Options
from ..storage.fs import FileSystem


@dataclass
class StoreReplay:
    """A store's catalog state, reconstructed offline from its manifest."""

    manifest_name: str
    version: Version
    edits: int = 0
    log_number: int | None = None
    next_file_number: int | None = None
    last_sequence: int | None = None
    #: ``.sst`` files present in the directory but absent from the live
    #: version — garbage awaiting the engine's lazy deletion sweep.
    garbage_files: list[str] = field(default_factory=list)
    #: Live catalog entries whose file is missing on disk (corruption).
    missing_files: list[str] = field(default_factory=list)


def replay_store(fs: FileSystem) -> StoreReplay:
    """Rebuild the live version from ``fs``'s CURRENT manifest.

    Raises ``ValueError`` when the directory has no CURRENT file (it is not
    a store, or the DB never committed a version).
    """
    current = read_current(fs)
    if current is None:
        raise ValueError("no CURRENT file: not a store directory or never opened")
    edits: list[VersionEdit] = replay_manifest(fs, current)

    # Size the version to whatever the manifest actually references, so the
    # tool reads stores written with any ``max_levels`` setting.
    max_level = 0
    for edit in edits:
        for level, _ in edit.new_files + edit.updated_files:
            max_level = max(max_level, level)
        for level, _ in edit.deleted_files:
            max_level = max(max_level, level)
    version = Version(max(Options.max_levels, max_level + 1))

    replay = StoreReplay(manifest_name=current, version=version, edits=len(edits))
    for edit in edits:
        version.apply(edit)
        if edit.log_number is not None:
            replay.log_number = edit.log_number
        if edit.next_file_number is not None:
            replay.next_file_number = edit.next_file_number
        if edit.last_sequence is not None:
            replay.last_sequence = edit.last_sequence

    from ..vlog import parse_vlog_file_name, vlog_file_name

    live_names = {meta.file_name() for _, meta in version.all_files()}
    live_vlog = {vlog_file_name(number) for number in version.vlog}
    on_disk = set(fs.list_dir())
    replay.garbage_files = sorted(
        name
        for name in on_disk
        if (name.endswith(".sst") and name not in live_names)
        or (parse_vlog_file_name(name) is not None and name not in live_vlog)
    )
    replay.missing_files = sorted((live_names | live_vlog) - on_disk)
    return replay


def vlog_utilization(fs: FileSystem, replay: StoreReplay) -> list[dict]:
    """Per-value-log-file utilization from the manifest's garbage ledger.

    One dict per registered vlog file: its on-disk size, the dead bytes
    compactions have journaled against it, and the live remainder.  The
    ledger is GC's scheduling heuristic — dead counts reset on repair and
    lag the newest drops — so ratios are advisory, not exact."""
    from ..errors import FileSystemError
    from ..vlog import vlog_file_name

    rows = []
    for number in sorted(replay.version.vlog):
        name = vlog_file_name(number)
        dead = replay.version.vlog[number]
        try:
            size = fs.file_size(name)
        except (FileSystemError, OSError):
            size = 0
        rows.append(
            {
                "file": name,
                "number": number,
                "size": size,
                "dead_bytes": dead,
                "live_bytes": max(0, size - dead),
                "dead_ratio": (dead / size) if size else 0.0,
            }
        )
    return rows


def format_store_report(fs: FileSystem) -> str:
    """The ``metrics`` subcommand's full plain-text report."""
    replay = replay_store(fs)
    version = replay.version

    rows = []
    for level in range(version.num_levels):
        files = version.files_at(level)
        if not files and level > version.deepest_nonempty_level():
            continue
        file_bytes = version.level_file_bytes(level)
        valid = version.level_valid_bytes(level)
        obsolete = version.level_obsolete_bytes(level)
        appends = sum(f.append_count for f in files)
        rows.append(
            [
                f"L{level}",
                len(files),
                human_bytes(file_bytes),
                human_bytes(valid),
                human_bytes(obsolete),
                f"{obsolete / file_bytes:.1%}" if file_bytes else "-",
                appends,
            ]
        )
    total_file = version.total_file_bytes()
    total_valid = sum(
        version.level_valid_bytes(level) for level in range(version.num_levels)
    )
    rows.append(
        [
            "total",
            version.num_files(),
            human_bytes(total_file),
            human_bytes(total_valid),
            human_bytes(total_file - total_valid),
            f"{(total_file - total_valid) / total_file:.1%}" if total_file else "-",
            "",
        ]
    )
    table = format_table(
        ["level", "files", "file bytes", "valid", "obsolete", "garbage", "appends"],
        rows,
        title="Per-level storage (from manifest replay)",
    )

    lines = [
        f"CURRENT -> {replay.manifest_name} ({replay.edits} edits)",
        f"log={replay.log_number} next_file={replay.next_file_number} "
        f"last_seq={replay.last_sequence}",
        "",
        table,
        "",
        # Space amplification against live payload; write amplification is a
        # runtime counter the manifest does not persist.
        f"space amplification (file bytes / valid bytes): "
        f"{total_file / total_valid:.3f}" if total_valid else
        "space amplification: n/a (no valid bytes)",
    ]
    vlog_rows = vlog_utilization(fs, replay)
    if vlog_rows:
        vrows = []
        vlog_size = vlog_dead = 0
        for row in vlog_rows:
            vrows.append(
                [
                    row["file"],
                    human_bytes(row["size"]),
                    human_bytes(row["live_bytes"]),
                    human_bytes(row["dead_bytes"]),
                    f"{row['dead_ratio']:.1%}" if row["size"] else "-",
                ]
            )
            vlog_size += row["size"]
            vlog_dead += row["dead_bytes"]
        vrows.append(
            [
                "total",
                human_bytes(vlog_size),
                human_bytes(max(0, vlog_size - vlog_dead)),
                human_bytes(vlog_dead),
                f"{vlog_dead / vlog_size:.1%}" if vlog_size else "-",
            ]
        )
        lines.append("")
        lines.append(
            format_table(
                ["vlog file", "size", "live", "dead", "dead %"],
                vrows,
                title="Value-log utilization (from manifest garbage ledger)",
            )
        )
    if replay.garbage_files:
        shown = ", ".join(replay.garbage_files[:8])
        more = len(replay.garbage_files) - 8
        lines.append(
            f"garbage files awaiting lazy deletion "
            f"({len(replay.garbage_files)}): {shown}"
            + (f", +{more} more" if more > 0 else "")
        )
    if replay.missing_files:
        lines.append(
            f"MISSING live files ({len(replay.missing_files)}): "
            + ", ".join(replay.missing_files)
        )
    return "\n".join(lines)


def is_sharded_store(root: str) -> bool:
    """True when ``root`` is a ``LocalShardStore`` directory (it carries
    the router catalog in its ``_router/`` subdirectory)."""
    from ..sharding.router import ROUTER_CURRENT
    from ..sharding.store import ROOT_DIR

    return os.path.isfile(os.path.join(root, ROOT_DIR, ROUTER_CURRENT))


def format_sharded_store_report(root: str) -> str:
    """Aggregate per-level metrics across every shard of a sharded store.

    Loads the committed router map, replays each live shard's manifest,
    and prints one per-shard breakdown row (key range, files, bytes,
    garbage ratio) plus the aggregate totals — all offline, no DB open.
    """
    from ..sharding.router import load_router
    from ..sharding.store import ROOT_DIR
    from ..storage.fs import LocalFS

    rmap = load_router(LocalFS(os.path.join(root, ROOT_DIR)))
    if rmap is None:
        raise ValueError(f"{root}: no committed router map")

    rows = []
    total_files = total_bytes = total_valid = 0
    total_vlog = total_vlog_dead = 0
    replays = []
    for index, spec in enumerate(rmap.specs):
        shard_fs = LocalFS(os.path.join(root, spec.name))
        replay = replay_store(shard_fs)
        replays.append((spec, replay))
        version = replay.version
        file_bytes = version.total_file_bytes()
        valid = sum(
            version.level_valid_bytes(level)
            for level in range(version.num_levels)
        )
        vlog_rows = vlog_utilization(shard_fs, replay)
        vlog_bytes = sum(row["size"] for row in vlog_rows)
        vlog_dead = sum(row["dead_bytes"] for row in vlog_rows)
        lower = rmap.lower(index)
        rows.append(
            [
                spec.name,
                (lower.hex() if lower else "-inf"),
                (spec.upper.hex() if spec.upper is not None else "+inf"),
                version.num_files(),
                human_bytes(file_bytes),
                human_bytes(valid),
                f"{(file_bytes - valid) / file_bytes:.1%}" if file_bytes else "-",
                human_bytes(vlog_bytes) if vlog_rows else "-",
                f"{vlog_dead / vlog_bytes:.1%}" if vlog_bytes else "-",
            ]
        )
        total_files += version.num_files()
        total_bytes += file_bytes
        total_valid += valid
        total_vlog += vlog_bytes
        total_vlog_dead += vlog_dead
    rows.append(
        [
            "total", "", "",
            total_files,
            human_bytes(total_bytes),
            human_bytes(total_valid),
            f"{(total_bytes - total_valid) / total_bytes:.1%}" if total_bytes else "-",
            human_bytes(total_vlog) if total_vlog else "-",
            f"{total_vlog_dead / total_vlog:.1%}" if total_vlog else "-",
        ]
    )
    table = format_table(
        [
            "shard", "lower", "upper", "files", "file bytes", "valid",
            "garbage", "vlog bytes", "vlog dead",
        ],
        rows,
        title="Per-shard storage (from router + manifest replay)",
    )

    lines = [
        f"router epoch {rmap.epoch}: {len(rmap.specs)} shards",
        "",
        table,
        "",
        f"aggregate space amplification: {total_bytes / total_valid:.3f}"
        if total_valid else "aggregate space amplification: n/a (no valid bytes)",
    ]
    for spec, replay in replays:
        if replay.missing_files:
            lines.append(
                f"{spec.name}: MISSING live files "
                f"({len(replay.missing_files)}): "
                + ", ".join(replay.missing_files)
            )
    return "\n".join(lines)


def format_cache_report(report: dict) -> str:
    """Per-shard cache counters from a read-scaling benchmark report.

    ``report`` is the parsed ``BENCH_read_scaling.json`` dict; each
    scenario carries aggregate block/table cache hit/miss counts plus
    ``table_cache.shard_hits`` when the cache is sharded.  The table shows
    shard balance — the signal sharded caches exist for (DESIGN.md §9).
    """
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        raise ValueError("report has no 'scenarios' section: not a read-scaling report")

    rows = []
    for name, entry in scenarios.items():
        block = entry.get("block_cache", {})
        table = entry.get("table_cache", {})
        shard_hits = table.get("shard_hits") or []
        if shard_hits:
            busiest = max(shard_hits)
            total = sum(shard_hits)
            balance = f"{busiest / total:.1%}" if total else "-"
        else:
            balance = "-"
        rows.append(
            [
                name,
                entry.get("reader_threads", "-"),
                block.get("shards", "-"),
                block.get("hits", 0),
                block.get("misses", 0),
                table.get("shards", "-"),
                table.get("hits", 0),
                table.get("misses", 0),
                balance,
            ]
        )
    table_text = format_table(
        [
            "scenario", "readers",
            "bc shards", "bc hits", "bc misses",
            "tc shards", "tc hits", "tc misses", "busiest tc shard",
        ],
        rows,
        title="Cache shard counters (from benchmark report)",
    )

    lines = [table_text]
    speedups = {k: v for k, v in report.items() if k.startswith("speedup_")}
    if speedups:
        lines.append("")
        lines.append(
            "read speedup vs 1 reader thread: "
            + "  ".join(f"{k.removeprefix('speedup_')}={v}x" for k, v in speedups.items())
        )
    return "\n".join(lines)


def format_policy_report(report: dict) -> str:
    """Per-policy compaction breakdown from a policy-matrix benchmark report.

    ``report`` is the parsed ``BENCH_compaction_policies.json`` dict
    (``benchmarks/perf/compaction_policies.py``); each scenario carries the
    configured policy, write amplification, throughput, and the runtime
    counters the manifest never persists: completed compactions per
    picking policy (``compactions_by_policy``) and the tuner's lifetime
    switch count.  The per-policy column shows which policies actually ran
    the work — for static scenarios a single name, for tuner scenarios the
    mix its switches produced.
    """
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        raise ValueError(
            "report has no 'scenarios' section: not a compaction-policies report"
        )

    rows = []
    for name, entry in scenarios.items():
        by_policy = entry.get("compactions_by_policy") or {}
        breakdown = (
            " ".join(f"{k}={v}" for k, v in sorted(by_policy.items())) or "-"
        )
        wa = entry.get("write_amplification")
        rows.append(
            [
                name,
                entry.get("policy", "-"),
                f"{wa:.3f}" if isinstance(wa, (int, float)) else "-",
                entry.get("ops_per_sec", "-"),
                entry.get("p99_write_us", "-"),
                entry.get("policy_switches", 0),
                breakdown,
            ]
        )
    table_text = format_table(
        [
            "scenario", "policy", "WA", "ops/s", "p99 write us",
            "switches", "compactions by policy",
        ],
        rows,
        title="Compaction-policy counters (from benchmark report)",
    )

    lines = [table_text]
    ratios = {k: v for k, v in report.items() if k.startswith("wa_ratio_")}
    if ratios:
        lines.append("")
        lines.append(
            "WA ratios vs leveled baseline: "
            + "  ".join(
                f"{k.removeprefix('wa_ratio_')}={v}x" for k, v in sorted(ratios.items())
            )
        )
    return "\n".join(lines)


def format_serve_report(report: dict) -> str:
    """Overload-arm comparison from a serving-robustness benchmark report.

    ``report`` is the parsed ``BENCH_serving_robustness.json`` dict
    (``benchmarks/perf/serving_robustness.py``); each arm carries tail
    latency and goodput under the same 4x-capacity open-loop load, with
    admission control the only difference.  The ratio lines at the bottom
    are what the benchmark's ``--check`` gate enforces (DESIGN.md §15).
    """
    arms = report.get("arms")
    if not isinstance(arms, dict) or not arms:
        raise ValueError(
            "report has no 'arms' section: not a serving-robustness report"
        )

    rows = []
    for name, arm in arms.items():
        rows.append(
            [
                name,
                "on" if arm.get("admission_control") else "off",
                arm.get("offered_ops_per_sec", "-"),
                arm.get("completed", "-"),
                arm.get("shed", 0),
                arm.get("p50_ms", "-"),
                arm.get("p99_ms", "-"),
                arm.get("goodput_ops_per_sec", "-"),
            ]
        )
    table_text = format_table(
        [
            "arm", "admission", "offered/s", "completed", "shed",
            "p50 ms", "p99 ms", "goodput/s",
        ],
        rows,
        title="Serving robustness under overload (from benchmark report)",
    )
    lines = [table_text]
    p99 = report.get("p99_ratio_controlled_over_uncontrolled")
    goodput = report.get("goodput_ratio_controlled_over_uncontrolled")
    if p99 is not None and goodput is not None:
        lines.append("")
        lines.append(
            f"controlled/uncontrolled: p99 {p99}x  goodput {goodput}x"
        )
    return "\n".join(lines)
