"""CLI for the store-inspection tools.

Usage::

    python -m repro.tools <store-dir> <file.sst> [--entries [N]]
    python -m repro.tools <store-dir> --manifest
    python -m repro.tools metrics <store-dir>
    python -m repro.tools metrics --bench-report BENCH_<suite>.json
    python -m repro.tools timeline <trace.jsonl> [--json] [--width N] [--fs]

The first two forms are the original table/manifest dumpers; ``metrics``
replays a store's manifest into a per-level amplification report without
opening the DB (or renders a ``benchmarks/perf`` report), ``timeline``
renders an exported trace (JSONL from ``Tracer.export_jsonl``) as an
ASCII Gantt chart or span JSON.  (The crash-point and serving chaos
checkers are not store inspection; they live outside the engine, in the
top-level ``oracle`` package.)
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import FileSystemError
from ..obs.timeline import build_spans, load_events, render_timeline, spans_to_json
from ..storage.fs import LocalFS
from .metrics_report import (
    format_bench_report,
    format_sharded_store_report,
    format_store_report,
    is_sharded_store,
)
from .sst_dump import describe_manifest, describe_table, dump_table

def build_parser() -> argparse.ArgumentParser:
    """The legacy CLI argument schema (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description="Inspect BlockDB store files offline.",
    )
    parser.add_argument("store", help="store directory (a LocalFS root)")
    parser.add_argument("file", nargs="?", help="table file name, e.g. 000012.sst")
    parser.add_argument("--manifest", action="store_true", help="dump the manifest instead")
    parser.add_argument(
        "--entries",
        nargs="?",
        const=50,
        type=int,
        metavar="N",
        help="also decode up to N live entries (default 50)",
    )
    return parser


def build_metrics_parser() -> argparse.ArgumentParser:
    """Argument schema for ``metrics`` (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools metrics",
        description="Per-level storage metrics from manifest replay (no DB open).",
    )
    parser.add_argument("store", nargs="?", help="store directory (a LocalFS root)")
    parser.add_argument(
        "--bench-report",
        metavar="PATH",
        help="render a benchmarks/perf report (BENCH_<suite>.json) instead "
        "of a store",
    )
    return parser


def build_timeline_parser() -> argparse.ArgumentParser:
    """Argument schema for ``timeline`` (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools timeline",
        description="Render an exported JSONL trace as a compaction timeline.",
    )
    parser.add_argument("trace", help="trace file (JSONL from Tracer.export_jsonl)")
    parser.add_argument(
        "--json", action="store_true", help="print reconstructed spans as JSON"
    )
    parser.add_argument(
        "--width", type=int, default=72, metavar="N", help="chart width in columns"
    )
    parser.add_argument(
        "--fs", action="store_true", help="include per-I/O fs.read/fs.write lanes"
    )
    return parser


def _run_metrics(argv: list[str]) -> int:
    args = build_metrics_parser().parse_args(argv)
    if args.bench_report:
        try:
            with open(args.bench_report, encoding="utf-8") as handle:
                report = format_bench_report(json.load(handle))
        except (OSError, ValueError) as exc:
            print(exc, file=sys.stderr)
            return 2
        print(report)
        return 0
    if not args.store:
        print("either a store directory or --bench-report is required", file=sys.stderr)
        return 2
    try:
        if is_sharded_store(args.store):
            report = format_sharded_store_report(args.store)
        else:
            report = format_store_report(LocalFS(args.store))
    except (ValueError, FileSystemError) as exc:
        print(exc, file=sys.stderr)
        return 2
    print(report)
    return 0


def _run_timeline(argv: list[str]) -> int:
    args = build_timeline_parser().parse_args(argv)
    try:
        events = load_events(args.trace)
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 2
    spans = build_spans(events)
    if args.json:
        shown = spans if args.fs else [
            s for s in spans if not s.name.startswith(("fs.read", "fs.write"))
        ]
        print(json.dumps(spans_to_json(shown), indent=2))
    else:
        print(render_timeline(spans, width=args.width, include_fs=args.fs))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: dispatch a subcommand, else the legacy dumpers."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "metrics":
        return _run_metrics(argv[1:])
    if argv and argv[0] == "timeline":
        return _run_timeline(argv[1:])

    args = build_parser().parse_args(argv)
    fs = LocalFS(args.store)
    if args.manifest:
        for line in describe_manifest(fs):
            print(line)
        return 0
    if not args.file:
        print("either a table file name or --manifest is required")
        return 2
    print(describe_table(fs, args.file).summary())
    if args.entries:
        print(f"\nfirst {args.entries} live entries:")
        for user_key, sequence, value_type, value in dump_table(fs, args.file, limit=args.entries):
            kind = "put" if value_type == 1 else "del"
            shown = value[:32] + (b"..." if len(value) > 32 else b"")
            print(f"  {kind} seq={sequence:<8} {user_key!r} = {shown!r}")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; the Unix convention is a
        # quiet exit, not a traceback.
        sys.stderr.close()
        raise SystemExit(0)
