"""Tests for the perf runner (``benchmarks/perf/run.py``) and its suites.

These do not assert absolute performance — only that the hot-path suite
runs end to end in quick mode and emits a well-formed report, that its
gates pass against its own report and fail against a doctored one, that
every bound a suite's metric table sets is enforced by ``--check`` and
compared by ``--baseline``, that two quick suites run, gate and render end
to end — and that the opcode counter (``opcodes.py``) counts the same twice
and gates the read paths that have a reference arm.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.tools.__main__ import main as tools_main

PERF_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


def _load(name: str, path: Path):
    """Import a perf script from its file path (benchmarks/ is not a
    package on sys.path during tests)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def runner():
    """``run.py``, which puts the suites on ``sys.path`` as it loads."""
    return _load("perf_run", PERF_DIR / "run.py")


@pytest.fixture(scope="module")
def quick_report(runner, tmp_path_factory):
    """One quick-mode hot-path run shared by the assertions below."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_hotpaths.json"
    status = runner.main(["hotpaths", "--quick", "--output", str(out)])
    assert status == 0
    return runner, importlib.import_module("hotpaths"), json.loads(out.read_text())


EXPECTED_PATHS = {
    "varint_roundtrip",
    "block_encode",
    "block_decode",
    "block_decode_raw",
    "merge_visible",
    "compaction_merge",
    "catalog_apply",
    "section_finish_open",
    "memtable_fill",
    "seq_fill",
    "scan",
    "full_compaction",
    "traced_point_get",
}


def test_quick_run_covers_all_paths(quick_report):
    """Quick mode measures every hot path and records sane numbers."""
    _runner, _hotpaths, report = quick_report
    assert set(report) == {"suite", "meta", "arms", "metrics", "gates"}
    assert set(report["arms"]) == EXPECTED_PATHS
    for name, entry in report["arms"].items():
        assert entry["ops_per_sec"] > 0, name
        assert entry["ns_per_op"] > 0, name
    # The micro paths carry an in-process reference arm.
    for name in ("varint_roundtrip", "block_decode", "merge_visible",
                 "compaction_merge", "catalog_apply", "section_finish_open",
                 "memtable_fill"):
        assert report["metrics"][f"{name}.speedup_vs_reference"] > 0


def _speedup_gates(runner, hotpaths, metrics: dict, committed: dict) -> list[dict]:
    """The gates on the speedups alone.  The wall-clock observability
    ceiling is gated by CI's ``run.py hotpaths --quick --check`` (and
    doctored below), since one timed run under host load can cross it on
    any tree."""
    gates = runner.evaluate(hotpaths.METRICS, metrics, True, committed)
    return [g for g in gates if g["metric"] != "traced_point_get.overhead_vs_plain"]


def test_check_passes_against_own_baseline(quick_report):
    """A report checked against itself as the committed one passes every
    speedup gate."""
    runner, hotpaths, report = quick_report
    gates = _speedup_gates(runner, hotpaths, report["metrics"], report["metrics"])
    assert len(gates) == len(hotpaths.REFERENCE_ARMED)
    assert runner.failed(gates) == 0


def test_check_fails_on_observability_overhead(quick_report):
    """A traced point get slower than the ceiling fails the check even
    when every ratio matches its committed one."""
    runner, hotpaths, report = quick_report
    doctored = dict(report["metrics"])
    doctored["traced_point_get.overhead_vs_plain"] = hotpaths.OVERHEAD_CEILING * 1.1
    assert runner.failed(runner.evaluate(hotpaths.METRICS, doctored, True, report["metrics"])) == 1


def test_check_fails_on_regression(quick_report):
    """Inflating a committed speedup beyond tolerance fails the check."""
    runner, hotpaths, report = quick_report
    committed = dict(report["metrics"])
    committed["varint_roundtrip.speedup_vs_reference"] *= 10
    gates = _speedup_gates(runner, hotpaths, report["metrics"], committed)
    assert [g["metric"] for g in gates if not g["ok"]] == ["varint_roundtrip.speedup_vs_reference"]


def test_check_without_baseline_is_ok(quick_report):
    """No committed report: the speedups have nothing to be gated against
    but ``memtable_fill``'s quick-mode floor, a fixed bound."""
    runner, hotpaths, report = quick_report
    gates = _speedup_gates(runner, hotpaths, report["metrics"], {})
    assert [(g["metric"], g["bound"], g["ok"]) for g in gates] == [
        ("memtable_fill.speedup_vs_reference", hotpaths.MEMTABLE_FILL_FLOOR, True)
    ]


def test_every_gated_metric_is_compared_by_baseline(runner):
    """For every suite and every metric its table gates: a report that
    moves only that metric 30% the wrong way fails ``--baseline``; a report
    sitting exactly on every bound passes ``--check``, except a strict
    bound, which a value equal to it fails and a value just past it
    passes.  Runs no suite."""
    strict_count = 0
    for name in runner.SUITES:
        table = importlib.import_module(name).METRICS
        baseline = {metric: 10.0 for metric in table}
        for quick in (True, False):
            gated = {
                metric: runner.Metric(*row) for metric, row in table.items()
                if (runner.Metric(*row).quick if quick else runner.Metric(*row).full) is not None
            }
            assert gated, name
            for metric, row in gated.items():
                worse = dict(baseline)
                worse[metric] *= 0.7 if row.better == "higher" else 1.3
                compared = runner.compare(table, worse, baseline)
                assert [g["metric"] for g in compared if not g["ok"]] == [metric], (name, metric)
            # On the bound ("committed" bounds resolve against this
            # committed report, so sit on theirs too).
            bounds = {g["metric"]: g["bound"] for g in runner.evaluate(table, {}, quick, baseline)}
            assert set(bounds) == set(gated), name
            gates = {g["metric"]: g for g in runner.evaluate(table, bounds, quick, baseline)}
            for metric, row in gated.items():
                assert gates[metric]["ok"] is not row.strict, (name, metric)
                if row.strict:
                    nudge = 1.001 if row.better == "higher" else 0.999
                    past = dict(bounds, **{metric: bounds[metric] * nudge})
                    assert runner.failed(runner.evaluate(table, past, quick, baseline)) == 0
                    strict_count += 1
    assert strict_count == 2  # kv's WA, quick and full


def test_value_size_rejected_by_suites_that_ignore_it(runner, capsys):
    """``--value-size`` is a usage error for a suite whose ``run`` takes
    none, and is refused before the suite runs."""
    for name in ("kv_separation", "compaction_scaling", "compaction_policies",
                 "serving_robustness"):
        with pytest.raises(SystemExit) as exc:
            runner.main([name, "--quick", "--value-size", "4096"])
        assert exc.value.code == 2
        assert "takes no --value-size" in capsys.readouterr().err


def test_unreadable_baseline_is_a_usage_error(runner, tmp_path, capsys):
    """A ``--baseline`` that is missing or holds no report's ``metrics``
    exits 2 before the suite runs."""
    not_a_report = tmp_path / "list.json"
    not_a_report.write_text("[1, 2]")
    for path in (tmp_path / "missing.json", not_a_report):
        with pytest.raises(SystemExit) as exc:
            runner.main(["kv_separation", "--quick", "--baseline", str(path)])
        assert exc.value.code == 2
        assert "cannot read baseline" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["kv_separation", "read_scaling"])
def test_quick_suite_writes_gates_and_renders(runner, suite, tmp_path, capsys):
    """A quick suite runs end to end through the runner: its report has
    the one schema and a gate per bounded metric, and ``repro.tools
    metrics --bench-report`` renders it."""
    out = tmp_path / f"BENCH_{suite}.json"
    assert runner.main([suite, "--quick", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["suite"] == suite and report["meta"]["quick"] is True
    table = importlib.import_module(suite).METRICS
    assert set(report["metrics"]) == set(table)
    assert {g["metric"] for g in report["gates"]} == {
        metric for metric, row in table.items() if runner.Metric(*row).quick is not None
    }
    capsys.readouterr()
    assert tools_main(["metrics", "--bench-report", str(out)]) == 0
    rendered = capsys.readouterr().out
    for name in list(report["arms"]) + list(report["metrics"]):
        assert name in rendered


def test_opcode_counts_repeat_exactly():
    """The deterministic CPU metric is deterministic: two runs of
    ``opcodes.measure()`` — each building its stores from scratch — give
    the same count for every path.  And it gates the paths that have a
    reference arm, as counts under this one interpreter (3.11 and 3.12
    compile the same source differently; the ratio of two counts cancels
    that): the bisected, single-stream scan, the point read that asks each
    component once, and the batch read built on it each execute fewer
    bytecodes than ``_reference``'s walk on the same store — and so does
    the table build, against ``build_table_bytes`` on the same entries."""
    opcodes = _load("perf_opcodes", PERF_DIR / "opcodes.py")
    # The ``load`` row (~40 M bytecodes, seconds to count) is left out.
    first = opcodes.measure(load=False)
    assert first == opcodes.measure(load=False)
    assert list(first) == [
        "put", "get_memtable", "get_cached", "get_cold", "scan_20",
        "scan_seek_50", "scan_seek_50_linear", "multi_get_8",
        "get_absent", "get_cached_tree", "get_cached_tree_linear",
        "multi_get_8_linear", "multi_get_64", "table_build", "write_batch_8",
    ]
    assert all(count > 0 for count in first.values())
    assert first["get_memtable"] < first["get_absent"] < first["get_cached"]
    assert first["get_cached"] < first["get_cached_tree"] < first["get_cold"]
    assert first["scan_seek_50"] <= 0.70 * first["scan_seek_50_linear"]
    # 0.72 and 0.78 since the one-frame filter check and the inlined key
    # packing (0.66 and 0.70 measured on 3.11); the reference walks check
    # the same filters, so part of that saving is on both sides.
    assert first["get_cached_tree"] <= 0.72 * first["get_cached_tree_linear"]
    # Looser than the get: this store is one full level under five empty
    # ones, and both walks ask each of those about every key.
    assert first["multi_get_8"] <= 0.78 * first["multi_get_8_linear"]
    # A batch costs less per key as it grows, never more.
    assert first["multi_get_64"] < 8 * first["multi_get_8"]
    # The build path: one output table from merged entries through the run
    # loop, against the same entries through the reference per-entry build.
    assert first["table_build"] <= 0.57 * opcodes.count_table_build_reference()
