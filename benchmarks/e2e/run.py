#!/usr/bin/env python3
"""The repo's one benchmark: six workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py --workload read_zipf_cold --seed 1

runs the workload twice — an untraced pass for the end-to-end metrics and
the exact counters, then a traced pass over the first fifth of the op
list for per-layer times — prints every metric with its unit, checks
every result against an oracle, and ends with one JSON line.  With
``--trace 0`` / ``--trace 1`` that line carries only the end-to-end /
only the per-layer metrics named in ``BENCHMARK.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import resource
import statistics
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT}/src/repro not found: the benchmark runs the repo's own source")
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import noise  # noqa: E402
import runner  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    BASE_SECONDS, GET, KEY_SIZE, PUT, ROUNDS, SCAN, VALUE_SIZE, WORKLOADS,
)

#: Rounds the traced pass replays: the first fifth of the op list.
TRACED_ROUNDS = ROUNDS // 5
#: What a run has measured so far, for the deadline handler to print.
_partial: dict = {}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ passes


def _run_probe(probe, host) -> tuple[object, object]:
    """Run a probe (an ``Inputs`` of its own) start to finish on a store of
    its own; returns its samples and its oracle."""
    oracle = runner.Oracle(probe.keys)
    oracle.loaded(probe.load)
    target, _, warm = runner.set_up(probe, host)
    try:
        oracle.check(probe.warm, warm)
        return runner.run_rounds(target, probe.rounds, oracle, host), oracle
    finally:
        target.close()


def untraced_pass(inputs, seed: int, *, setups: int, probes: bool) -> dict:
    """End-to-end metrics and exact counters, tracing off."""
    host = runner.HostClock()
    oracle = runner.Oracle(inputs.keys)
    oracle.loaded(inputs.load)
    # Set up several times: the median is the metric, the last store is the
    # one measured.  Set-up is deterministic, so every repetition builds the
    # same store.  A set-up too short to time well is repeated more often.
    setup_seconds: list[float] = []
    while True:
        target, took, warm = runner.set_up(inputs, host)
        setup_seconds.append(took)
        enough = setups == 1 or sum(setup_seconds) >= 0.5 or len(setup_seconds) >= 50
        if len(setup_seconds) >= setups and enough:
            break
        target.close()
    try:
        oracle.check(inputs.warm, warm)
        start = layers.snapshot(target)
        samples = runner.run_rounds(target, inputs.rounds, oracle, host)
        end = layers.snapshot(target)
        engines = target.engines()
        user_bytes = sum(db.stats.user_bytes_written for db in engines)
        live_bytes = oracle.count * (KEY_SIZE + VALUE_SIZE)
        state = {
            "write_amplification":
                sum(db.stats.sst_bytes_written() for db in engines) / user_bytes,
            "space_amplification":
                sum(db.stats.max_space_bytes for db in engines) / live_bytes,
            "sim_device_s": end["io.sim_time_s"],
        }
        counts = layers.counts(target, start, end, samples.put_sim_s)
        counts["trace.host_speed"] = statistics.median(r.scale for r in samples.rounds)
        for kind, name in ((PUT, "put"), (GET, "get"), (SCAN, "scan")):
            counts[f"tail.{name}_p99_us"] = (
                samples.p99_us(kind) if samples.count(kind) else 0.0
            )
        digest = target.digest()
    finally:
        target.close()
    runner.read_back(target, oracle, seed)
    probed = _run_probe(inputs.probe, host) if probes and inputs.probe else None
    return {
        "oracles": [oracle] + ([probed[1]] if probed else []),
        "samples": samples, "probes": probed[0] if probed else None,
        "setup_seconds": setup_seconds, "state": state, "counts": counts,
        "digest": digest,
    }


def traced_pass(inputs, workload: str, seed: int, untraced_samples) -> dict:
    """Per-layer times over the first fifth of the op list, wrappers on."""
    host = runner.HostClock()
    oracle = runner.Oracle(inputs.keys)
    oracle.loaded(inputs.load)
    target, took, warm = runner.set_up(inputs, host)
    recorder = tracing.Recorder()
    try:
        oracle.check(inputs.warm, warm)
        before = layers.snapshot(target)
        with recorder:
            samples = runner.run_rounds(
                target, inputs.rounds[:TRACED_ROUNDS], oracle, host
            )
        written = layers.snapshot(target)["compaction_bytes_written"]
    finally:
        target.close()
    summary = tracing.Summary(recorder)
    times = layers.times(
        summary,
        scale=samples.mean_scale(),
        traced_op_ns=samples.op_ns(TRACED_ROUNDS),
        untraced_op_ns=untraced_samples.op_ns(TRACED_ROUNDS),
        traced_wall_ns=sum(r.wall_ns * r.scale for r in samples.rounds),
        compaction_bytes=written - before["compaction_bytes_written"],
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}.jsonl"
    recorder.write_jsonl(path, {"workload": workload, "seed": seed})
    return {
        "oracles": [oracle], "times": times, "summary": summary, "setup_s": took,
        "trace_file": path, "still_patched": recorder.still_patched(),
    }


# ----------------------------------------------------------------- metrics


def end_to_end(untraced: dict) -> tuple[dict[str, float], dict[str, str]]:
    """The end-to-end metrics and, per latency metric, where its samples
    came from.  An op type the timed mix lacks is measured by the probe
    that follows the timed phase, so every workload reports every metric."""
    samples, probes = untraced["samples"], untraced["probes"]
    metrics = {
        "setup_s": statistics.median(untraced["setup_seconds"]),
        "ops_per_s": samples.ops_per_s(),
    }
    notes = {"setup_s": f"median of {len(untraced['setup_seconds'])} set-ups"}
    for kind, name in ((PUT, "put"), (GET, "get"), (SCAN, "scan")):
        source, where = (samples, "timed") if samples.count(kind) else (probes, "probe")
        metrics[f"{name}_p50_us"] = source.p50_us(kind)
        notes[f"{name}_p50_us"] = f"{source.count(kind)} {where} samples"
    metrics.update(untraced["state"])
    # ru_maxrss is KiB on Linux.
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, notes


def run_workload(
    name: str, seed: int, *, seconds: float = BASE_SECONDS, scale: float = 1.0,
    trace: str = "both", setups: int = 3,
) -> dict:
    """Run one workload in this process; returns the result document."""
    inputs = WORKLOADS[name].build(seed, scale, seconds / BASE_SECONDS)
    _partial.update(workload=name, seed=seed, stage="untraced pass")
    # "both" gets its last set-up sample from the traced pass; --trace 1
    # reports no set-up time.
    untraced = untraced_pass(
        inputs, seed, setups={"0": setups, "both": max(1, setups - 1), "1": 1}[trace],
        probes=trace != "1",
    )
    oracles = untraced["oracles"]
    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    info = {"digest": untraced["digest"]}
    if trace != "1":
        metrics, notes = end_to_end(untraced)
    if trace != "0":
        _partial.update(stage="traced pass")
        traced = traced_pass(inputs, name, seed, untraced["samples"])
        oracles += traced["oracles"]
        if trace == "both":
            # The traced pass set up once more: one more sample, no more work.
            set_ups = untraced["setup_seconds"] + [traced["setup_s"]]
            metrics["setup_s"] = statistics.median(set_ups)
            notes["setup_s"] = f"median of {len(set_ups)} set-ups"
        metrics.update(untraced["counts"])
        metrics.update(traced["times"])
        info.update(
            trace_file=str(traced["trace_file"]),
            still_patched=traced["still_patched"],
            layer_self_ns=dict(traced["summary"].layer_self),
            # Exact only where one thread runs the whole request.
            layer_self_ns_by_op={} if inputs.served else {
                op: dict(by_layer)
                for op, by_layer in traced["summary"].layer_self_by_op.items()
            },
        )
    attempted = sum(o.attempted for o in oracles)
    failed = sum(o.failed for o in oracles)
    # Emit exactly what BENCHMARK.json names for this mode, in its order.
    declared = spec()
    named = (declared["end_to_end"] if trace != "1" else []) + (
        declared["per_layer"] if trace != "0" else []
    )
    if set(metrics) != {m["name"] for m in named}:
        raise RuntimeError(
            "metrics measured and BENCHMARK.json disagree: "
            f"{sorted(set(metrics) ^ {m['name'] for m in named})}"
        )
    return {
        "workload": name,
        "seed": seed,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "first_failure": next((o.first_failure for o in oracles if o.first_failure), None),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in named
        },
        "notes": notes,
        "info": info,
    }


# ------------------------------------------------------------------ output


def print_result(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}")
    print(f"  {WORKLOADS[result['workload']].why}")
    for name, m in result["metrics"].items():
        note = result["notes"].get(name)
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']:<8}" + (f"  ({note})" if note else ""))
    info = result["info"]
    if "layer_self_ns" in info:
        total = sum(info["layer_self_ns"].values()) or 1
        print("  layer self time, traced pass (share of all spans):")
        for layer, ns in sorted(info["layer_self_ns"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<16} {ns / 1e6:>10.1f} ms  {ns / total:6.1%}")
        for op, by_layer in sorted(info["layer_self_ns_by_op"].items()):
            op_total = sum(by_layer.values()) or 1
            shares = ", ".join(
                f"{layer} {ns / op_total:.0%}"
                for layer, ns in sorted(by_layer.items(), key=lambda kv: -kv[1])[:5]
            )
            print(f"    {op:<10} {shares}")
        print(f"  trace written to {info['trace_file']}")
    if info.get("digest"):
        print(f"  fs digest {info['digest']}")
    failed_share = result["failed"] / result["attempted"]
    print(f"  failed_op_share {failed_share:.6g}  ({result['failed']} of {result['attempted']})")
    if result["first_failure"]:
        print(f"  first failure: {result['first_failure']}")
    # The contract's result line: last on stdout, exactly these keys.
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def _arm_deadline(seconds: float) -> None:
    """No run may hang: dump every thread's stack, print what was measured
    so far, and exit 3 once ``seconds`` have passed."""
    faulthandler.dump_traceback_later(max(1.0, seconds - 1.0), exit=False)

    def expire() -> None:
        print(f"deadline of {seconds:.0f}s exceeded; partial: {json.dumps(_partial)}",
              file=sys.stderr, flush=True)
        os._exit(3)

    timer = threading.Timer(seconds, expire)
    timer.daemon = True
    timer.start()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase the op counts are scaled to "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--deadline", type=float, default=150.0,
                        help="seconds before a run is killed with exit code 3")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run N times in fresh processes (seeds SEED..SEED+N-1) "
                        "and write a set file")
    parser.add_argument("--out", type=Path, help="set file --repeat writes")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("SET_A", "SET_B"),
                        help="apply the bounds of BENCHMARK.json to two set files")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]

    if args.compare:
        return noise.compare(*args.compare, spec())
    if args.selftest:
        _arm_deadline(args.deadline)
        return selftest.main(spec(), run_workload)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.repeat:
        out = args.out or OUT / "set.json"
        return noise.repeat(
            [sys.executable, str(HERE / "run.py")], names, args.repeat, args.seed,
            seconds, args.trace, out,
        )
    if len(names) > 1:
        # Fresh process per workload: peak RSS and import state do not carry over.
        return noise.run_each([sys.executable, str(HERE / "run.py")], names, args.seed,
                              seconds, args.trace)
    _arm_deadline(args.deadline)
    result = run_workload(names[0], args.seed, seconds=seconds, trace=args.trace)
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
