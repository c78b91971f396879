"""Smoke tests for the hot-path perf harness (``benchmarks/perf``).

These do not assert absolute performance — only that the harness runs end
to end in quick mode, emits a well-formed report, and that ``--check``
passes against a just-written baseline and fails against a doctored one —
and that the opcode counter (``opcodes.py``) counts the same twice and
gates the read paths that have a reference arm.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
HARNESS_PATH = PERF_DIR / "harness.py"


def _load(name: str, path: Path):
    """Import a perf script from its file path (benchmarks/ is not a
    package on sys.path during tests)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    return _load("perf_harness", HARNESS_PATH)


@pytest.fixture(scope="module")
def quick_report(harness, tmp_path_factory):
    """One quick-mode run shared by the assertions below."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_hotpaths.json"
    status = harness.main(["--quick", "--output", str(out)])
    assert status == 0
    return harness, out, json.loads(out.read_text())


EXPECTED_PATHS = {
    "varint_roundtrip",
    "block_encode",
    "block_decode",
    "block_decode_raw",
    "merge_visible",
    "compaction_merge",
    "catalog_apply",
    "section_finish_open",
    "seq_fill",
    "point_get",
    "multi_get",
    "scan",
    "scan_short",
    "full_compaction",
    "traced_point_get",
}


def test_quick_run_covers_all_paths(quick_report):
    """Quick mode measures every hot path and records sane numbers."""
    _harness, _out, report = quick_report
    assert set(report["paths"]) == EXPECTED_PATHS
    for name, entry in report["paths"].items():
        assert entry["ops_per_sec"] > 0, name
        assert entry["ns_per_op"] > 0, name
    # Micro paths and the read paths carry an in-process reference arm.
    for name in ("varint_roundtrip", "block_decode", "merge_visible",
                 "compaction_merge", "catalog_apply", "section_finish_open",
                 "scan_short", "point_get", "multi_get"):
        assert report["paths"][name]["speedup_vs_reference"] > 0


def test_check_passes_against_own_baseline(quick_report):
    """A report checked against itself shows no regression.  Only its
    ratios are compared: the wall-clock observability ceiling is gated by
    CI's ``harness.py --quick --check`` (and doctored below), since one
    timed run under host load can cross it on any tree."""
    harness, out, report = quick_report
    ratios_only = json.loads(json.dumps(report))
    ratios_only["paths"]["traced_point_get"].pop("overhead_vs_plain")
    assert harness.check_against_baseline(ratios_only, out) == 0


def test_check_fails_on_observability_overhead(quick_report):
    """A traced point get slower than the ceiling makes --check fail even
    when every ratio matches its baseline."""
    harness, out, report = quick_report
    doctored = json.loads(json.dumps(report))
    doctored["paths"]["traced_point_get"]["overhead_vs_plain"] = harness.OVERHEAD_CEILING * 1.1
    assert harness.check_against_baseline(doctored, out) == 1


def test_check_fails_on_regression(quick_report, tmp_path):
    """Inflating a baseline speedup beyond tolerance makes --check fail."""
    harness, _out, report = quick_report
    doctored = json.loads(json.dumps(report))
    entry = doctored["paths"]["varint_roundtrip"]
    entry["speedup_vs_reference"] = entry["speedup_vs_reference"] * 10
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(doctored))
    assert harness.check_against_baseline(report, baseline) == 1


def test_check_without_baseline_is_ok(quick_report, tmp_path):
    """Missing baseline file: nothing to compare, exit 0."""
    harness, _out, report = quick_report
    assert harness.check_against_baseline(report, tmp_path / "missing.json") == 0


def test_opcode_counts_repeat_exactly():
    """The deterministic CPU metric is deterministic: two runs of
    ``opcodes.measure()`` — each building its stores from scratch — give
    the same count for every path.  And it gates the paths that have a
    reference arm, as counts under this one interpreter (3.11 and 3.12
    compile the same source differently; the ratio of two counts cancels
    that): the bisected, single-stream scan, the point read that asks each
    component once, and the batch read built on it each execute fewer
    bytecodes than ``_reference``'s walk on the same store."""
    opcodes = _load("perf_opcodes", PERF_DIR / "opcodes.py")
    first = opcodes.measure()
    assert first == opcodes.measure()
    assert list(first) == [
        "put", "get_memtable", "get_cached", "get_cold", "scan_20",
        "scan_seek_50", "scan_seek_50_linear", "multi_get_8",
        "get_absent", "get_cached_tree", "get_cached_tree_linear",
        "multi_get_8_linear", "multi_get_64",
    ]
    assert all(count > 0 for count in first.values())
    assert first["get_memtable"] < first["get_absent"] < first["get_cached"]
    assert first["get_cached"] < first["get_cached_tree"] < first["get_cold"]
    assert first["scan_seek_50"] <= 0.70 * first["scan_seek_50_linear"]
    assert first["get_cached_tree"] <= 0.80 * first["get_cached_tree_linear"]
    # 0.85, not ISSUE 23's 0.75: this store is one full level under five
    # empty ones, and both walks ask each of those about every key.
    assert first["multi_get_8"] <= 0.85 * first["multi_get_8_linear"]
    # A batch costs less per key as it grows, never more.
    assert first["multi_get_64"] < 8 * first["multi_get_8"]
