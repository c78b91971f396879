"""One runner for every ``benchmarks/perf`` suite.

::

    python benchmarks/perf/run.py SUITE [--quick] [--check] [--baseline PATH]
                                        [--output PATH] [--value-size N]

A suite is a module beside this one that exports two things:

* ``run(quick)`` — or ``run(quick, value_size)`` when its workloads take a
  value size — returning ``{"arms": {arm: {field: value}}, "metrics":
  {metric: number}}``;
* ``METRICS``, its metric table: ``metric -> (better, quick bound, full
  bound[, strict])``.  ``better`` is ``"higher"`` or ``"lower"``.  A bound
  of ``None`` reports the metric without gating it.  A strict bound fails
  a value equal to it.

The report is ``{"suite", "meta", "arms", "metrics", "gates"}``, where each
gate is ``{"metric", "better", "bound", "value", "ok"}``.  ``--check`` exits
1 when a gate fails.  ``--baseline PATH`` compares every declared metric
with a prior report's, in its declared direction, and exits 1 when one is
more than :data:`TOLERANCE` worse; absolute numbers are compared too, so
the prior report must come from the same machine.  A run without
``--check`` or ``--baseline`` writes ``BENCH_<suite>.json`` at the repo
root; with either, the report is written only to an explicit ``--output``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import platform
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT, ROOT / "src", Path(__file__).resolve().parent):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

SUITES = (
    "concurrency",
    "read_scaling",
    "compaction_scaling",
    "sharding",
    "kv_separation",
    "compaction_policies",
    "serving_robustness",
)
TOLERANCE = 0.20
DEFAULT_VALUE_SIZE = 100


class Metric(NamedTuple):
    """One row of a suite's metric table."""

    better: str
    quick: float | None
    full: float | None
    strict: bool = False


def _gate(name: str, better: str, bound: float, value, strict: bool = False) -> dict:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        ok = False
    elif better == "higher":
        ok = value > bound if strict else value >= bound
    else:
        ok = value < bound if strict else value <= bound
    return {"metric": name, "better": better, "bound": bound, "value": value, "ok": ok}


def evaluate(table: dict, metrics: dict, quick: bool) -> list[dict]:
    """The gates ``table`` sets on ``metrics`` in this mode."""
    gates = []
    for name, row in table.items():
        metric = Metric(*row)
        bound = metric.quick if quick else metric.full
        if bound is not None:
            gates.append(_gate(name, metric.better, bound, metrics.get(name), metric.strict))
    return gates


def compare(table: dict, metrics: dict, baseline: dict) -> list[dict]:
    """``--baseline``: one gate per declared metric ``baseline`` has, at
    :data:`TOLERANCE` short of its value."""
    gates = []
    for name, row in table.items():
        reference = baseline.get(name)
        if isinstance(reference, (int, float)) and not isinstance(reference, bool):
            better = Metric(*row).better
            bound = reference * (1 - TOLERANCE) if better == "higher" else reference / (1 - TOLERANCE)
            gates.append(_gate(name, better, bound, metrics.get(name)))
    return gates


def failed(gates: list[dict]) -> int:
    """The exit status of a set of gates: 1 when any fails."""
    return int(not all(gate["ok"] for gate in gates))


def load_metrics(path: Path) -> dict:
    """The ``metrics`` section of the report at ``path``."""
    report = json.loads(path.read_text())
    metrics = report.get("metrics") if isinstance(report, dict) else None
    if not isinstance(metrics, dict):
        raise ValueError(f"{path} has no 'metrics' section")
    return metrics


def _print_gates(title: str, gates: list[dict]) -> None:
    print(f"\n{title}:")
    for gate in gates:
        print(
            f"  {'ok  ' if gate['ok'] else 'FAIL'}  {gate['metric']} = {gate['value']}"
            f"  ({gate['better']} is better, bound {gate['bound']:.4g})"
        )


def main(argv: list[str] | None = None) -> int:
    """Run one suite; write its report and/or gate on it."""
    parser = argparse.ArgumentParser(description="Run one benchmarks/perf suite.")
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--check", action="store_true", help="exit 1 when a gate fails")
    parser.add_argument(
        "--baseline", type=Path, metavar="PATH",
        help="exit 1 when a metric is more than 20%% worse than in this prior "
        "report from the same machine",
    )
    parser.add_argument(
        "--output", type=Path, metavar="PATH",
        help="report path (default: BENCH_<suite>.json at the repo root, "
        "written only without --check and --baseline)",
    )
    parser.add_argument(
        "--value-size", type=int, metavar="BYTES",
        help=f"value payload size, for suites whose workloads take one "
        f"(default {DEFAULT_VALUE_SIZE})",
    )
    args = parser.parse_args(argv)

    suite = importlib.import_module(args.suite)
    takes_value_size = "value_size" in inspect.signature(suite.run).parameters
    if args.value_size is not None and not takes_value_size:
        parser.error(f"suite {args.suite} takes no --value-size")
    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_metrics(args.baseline)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read baseline: {exc}")
    meta = {"python": platform.python_version(), "quick": args.quick, "tolerance": TOLERANCE}
    if takes_value_size:
        meta["value_size"] = (
            DEFAULT_VALUE_SIZE if args.value_size is None else args.value_size
        )
        result = suite.run(args.quick, meta["value_size"])
    else:
        result = suite.run(args.quick)
    gates = evaluate(suite.METRICS, result["metrics"], args.quick)
    report = {"suite": args.suite, "meta": meta, **result, "gates": gates}
    _print_gates("gates", gates)

    status = 0
    if baseline is not None:
        compared = compare(suite.METRICS, result["metrics"], baseline)
        _print_gates(f"vs {args.baseline}", compared)
        status = failed(compared)
    if args.check:
        status = max(status, failed(gates))
    output = args.output
    if output is None and not args.check and baseline is None:
        output = ROOT / f"BENCH_{args.suite}.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nwrote {output}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
