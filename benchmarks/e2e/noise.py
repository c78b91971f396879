"""Sets of runs: how much a metric varies between runs of one commit, and
whether two sets differ by more than the benchmark's bound.

``repeat`` runs a workload N times in fresh processes, each with another
seed, and writes a set file; ``compare`` reads two set files and labels
every workload x end-to-end metric ``ok``, ``regressed`` or ``unresolved``
(the spread between quartiles is wider than the bound, so the sets cannot
tell).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: A run is killed by its own deadline first; this only bounds a wedged child.
CHILD_TIMEOUT_S = 200


def _run(command: list[str], workload: str, seed: int, seconds: float, trace: str,
         *, echo: bool) -> dict:
    """One run in a fresh process; returns its result line."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", trace],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if echo:
        sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.rstrip().rsplit("\n", 1)[-1])


def run_each(command: list[str], workloads: list[str], seed: int, seconds: float,
             trace: str) -> int:
    """Every workload once, each in its own process."""
    for workload in workloads:
        _run(command, workload, seed, seconds, trace, echo=True)
    return 0


def summarize(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    )
    return {
        "median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
        "spread": (q3 - q1) / median if median else 0.0, "values": values,
    }


def repeat(command: list[str], workloads: list[str], runs: int, seed: int,
           seconds: float, trace: str, out: Path) -> int:
    doc: dict = {"runs": runs, "first_seed": seed, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        by_metric: dict[str, list[float]] = {}
        failed = 0
        for i in range(runs):
            started = time.perf_counter()
            result = _run(command, workload, seed + i, seconds, trace, echo=False)
            failed += result["failed"]
            for name, m in result["metrics"].items():
                by_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed + i}: "
                  f"{'ok' if result['correct'] else 'INCORRECT'} "
                  f"in {time.perf_counter() - started:.1f}s", flush=True)
        doc["workloads"][workload] = {
            "failed": failed,
            "metrics": {name: summarize(values) for name, values in by_metric.items()},
        }
        for name, s in doc["workloads"][workload]["metrics"].items():
            print(f"  {name:<44} median {s['median']:>14.6g}  spread {s['spread']:7.2%}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1))
    print(f"set written to {out}")
    return 0


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Label each workload x end-to-end metric; non-zero exit unless all ok."""
    set_a, set_b = (json.loads(p.read_text())["workloads"] for p in (path_a, path_b))
    verdicts = {"ok": 0, "regressed": 0, "unresolved": 0}
    for workload in set_a:
        if workload not in set_b:
            continue
        print(workload)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = set_a[workload]["metrics"].get(name)
            b = set_b[workload]["metrics"].get(name)
            if a is None or b is None:
                continue
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if metric["better"] == "lower" else -change
            spread = max(a["spread"], b["spread"])
            # Set-up time is compared on medians only (its spread is not gated).
            if spread > bound and name != "setup_s":
                verdict = "unresolved"
            else:
                verdict = "regressed" if worse > bound else "ok"
            verdicts[verdict] += 1
            print(f"  {name:<22} {a['median']:>12.5g} -> {b['median']:>12.5g} "
                  f"{metric['unit']:<6} worse by {worse:+7.2%}  spread {spread:6.2%}  "
                  f"bound {bound:.0%}  {verdict}")
        if set_a[workload]["failed"] or set_b[workload]["failed"]:
            verdicts["regressed"] += 1
            print("  failed ops in a set: regressed")
    print(", ".join(f"{n} {v}" for v, n in verdicts.items()))
    return 0 if verdicts["regressed"] == verdicts["unresolved"] == 0 else 1
