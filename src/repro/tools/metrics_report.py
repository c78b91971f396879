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
    python -m repro.tools metrics --bench-report BENCH_read_scaling.json

A sharded store root (a ``LocalShardStore`` directory, recognized by its
``_router/`` catalog) is replayed shard by shard: the report aggregates
every shard's per-level storage with a per-shard breakdown table keyed by
the router's committed map.  The ``--bench-report`` form renders any
report ``benchmarks/perf/run.py`` writes — its arms, metrics and gates —
which is how runtime-only state (per-shard cache counters, compactions
per policy, tail latency under overload) travels: in the report JSON
rather than the manifest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..core.manifest import CURRENT_FILE, read_pointer, replay_manifest
from ..core.version import Version, VersionEdit
from ..metrics.amplification import VlogRow, level_rows, vlog_utilization
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
    current = read_pointer(fs, CURRENT_FILE)
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


def format_store_report(fs: FileSystem) -> str:
    """The ``metrics`` subcommand's full plain-text report."""
    replay = replay_store(fs)
    version = replay.version

    levels = level_rows(version)
    rows = [
        [
            f"L{row.level}",
            row.files,
            human_bytes(row.file_bytes),
            human_bytes(row.valid_bytes),
            human_bytes(row.obsolete_bytes),
            _share(row.obsolete_bytes, row.file_bytes),
            row.appends,
        ]
        for row in levels[: version.deepest_nonempty_level() + 1]
    ]
    total_file = version.total_file_bytes()
    total_valid = sum(row.valid_bytes for row in levels)
    rows.append(
        [
            "total",
            version.num_files(),
            human_bytes(total_file),
            human_bytes(total_valid),
            human_bytes(total_file - total_valid),
            _share(total_file - total_valid, total_file),
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
    vlog_rows = vlog_utilization(fs, version)
    if vlog_rows:
        total = VlogRow(
            "total",
            sum(row.size for row in vlog_rows),
            sum(row.dead_bytes for row in vlog_rows),
        )
        lines.append("")
        lines.append(
            format_table(
                ["vlog file", "size", "live", "dead", "dead %"],
                [
                    [
                        row.file,
                        human_bytes(row.size),
                        human_bytes(row.live_bytes),
                        human_bytes(row.dead_bytes),
                        _share(row.dead_bytes, row.size),
                    ]
                    for row in vlog_rows + [total]
                ],
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

    def cells(files, file_bytes, valid, vlog_bytes, vlog_dead, has_vlog):
        return [
            files,
            human_bytes(file_bytes),
            human_bytes(valid),
            _share(file_bytes - valid, file_bytes),
            human_bytes(vlog_bytes) if has_vlog else "-",
            _share(vlog_dead, vlog_bytes),
        ]

    rows, missing = [], []
    totals = [0] * 5
    for index, spec in enumerate(rmap.specs):
        shard_fs = LocalFS(os.path.join(root, spec.name))
        replay = replay_store(shard_fs)
        version = replay.version
        vlog_rows = vlog_utilization(shard_fs, version)
        shard = (
            version.num_files(),
            version.total_file_bytes(),
            sum(row.valid_bytes for row in level_rows(version)),
            sum(row.size for row in vlog_rows),
            sum(row.dead_bytes for row in vlog_rows),
        )
        totals = [total + value for total, value in zip(totals, shard)]
        lower = rmap.lower(index)
        rows.append([
            spec.name,
            lower.hex() if lower else "-inf",
            spec.upper.hex() if spec.upper is not None else "+inf",
            *cells(*shard, bool(vlog_rows)),
        ])
        if replay.missing_files:
            missing.append(
                f"{spec.name}: MISSING live files "
                f"({len(replay.missing_files)}): "
                + ", ".join(replay.missing_files)
            )
    rows.append(["total", "", "", *cells(*totals, bool(totals[3]))])
    table = format_table(
        [
            "shard", "lower", "upper", "files", "file bytes", "valid",
            "garbage", "vlog bytes", "vlog dead",
        ],
        rows,
        title="Per-shard storage (from router + manifest replay)",
    )
    total_bytes, total_valid = totals[1], totals[2]
    return "\n".join([
        f"router epoch {rmap.epoch}: {len(rmap.specs)} shards",
        "",
        table,
        "",
        f"aggregate space amplification: {total_bytes / total_valid:.3f}"
        if total_valid else "aggregate space amplification: n/a (no valid bytes)",
        *missing,
    ])


def _share(part: int, whole: int) -> str:
    """``part / whole`` as a percentage, or ``-`` when ``whole`` is 0."""
    return f"{part / whole:.1%}" if whole else "-"


def format_bench_report(report: dict) -> str:
    """A ``benchmarks/perf/run.py`` report: one row per arm (its scalar
    fields; nested ones stay in the JSON), then one per metric with the
    bound it is gated at, if any."""
    if not isinstance(report, dict):
        report = {}
    arms, metrics = report.get("arms"), report.get("metrics")
    meta, gate_list = report.get("meta", {}), report.get("gates", [])
    if not (
        isinstance(arms, dict)
        and all(isinstance(arm, dict) for arm in arms.values())
        and isinstance(metrics, dict)
        and isinstance(meta, dict)
        and isinstance(gate_list, list)
        and all(isinstance(gate, dict) and "metric" in gate for gate in gate_list)
    ):
        raise ValueError(
            "not a benchmark report: needs 'arms' and 'metrics' objects "
            "(and, if present, a 'meta' object and a 'gates' list)"
        )
    columns: list[str] = []
    for arm in arms.values():
        columns += [
            key for key, value in arm.items()
            if key not in columns and isinstance(value, (str, int, float, bool, type(None)))
        ]
    arm_rows = [
        [name] + ["-" if arm.get(key) is None else arm[key] for key in columns]
        for name, arm in arms.items()
    ]
    gates = {gate["metric"]: gate for gate in gate_list}
    metric_rows = []
    for name in list(metrics) + [name for name in gates if name not in metrics]:
        gate = gates.get(name, {})
        ok = gate.get("ok")
        metric_rows.append([
            name,
            metrics.get(name, "-"),
            gate.get("better", "-"),
            gate.get("bound", "-"),
            "-" if ok is None else "ok" if ok else "FAIL",
        ])
    title = f"{report.get('suite', 'benchmark')} (" + ", ".join(
        f"{key}={value}" for key, value in meta.items()
    ) + ")"
    return "\n".join([
        format_table(["arm"] + columns, arm_rows, title=title),
        "",
        format_table(["metric", "value", "better", "bound", "gate"], metric_rows),
    ])
