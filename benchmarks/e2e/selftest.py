"""``run.py --selftest``: the benchmark checks itself at 1/20 size.

Asserts that every workload and metric ``BENCHMARK.json`` names is
emitted (and nothing else), that names are well formed, that the exact
counters and the file-system digest repeat bit-for-bit for one seed and
(where the timed mix writes) change with another, that every traced entry point is the original object
again after the traced pass, and that space amplification is measured
against live data.
"""

from __future__ import annotations

import re
import threading
import time

from workloads import WORKLOADS

SCALE = 1 / 20
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: Exact on the five engine workloads; two connections interleave on the sixth.
_EXACT = ("write_amplification", "space_amplification", "sim_device_s")
#: Engine workloads whose timed mix writes, so the seed reaches the stored bytes.
_WRITERS = ("load_random", "mixed_update_rw", "scan_short_rh")


def _values(result: dict, names) -> dict:
    return {n: result["metrics"][n]["value"] for n in names}


def main(spec: dict, run_workload) -> int:
    started = time.perf_counter()
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")]
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for w in spec["workloads"]:
        check(w["why"] == WORKLOADS[w["name"]].why, f"{w['name']}: why differs")
    for name in [*e2e, *per_layer, *WORKLOADS]:
        check(bool(_NAME.match(name)), f"bad name {name!r}")
    check("setup_s" in e2e, "setup_s missing from end_to_end")

    for name in WORKLOADS:
        both = run_workload(name, 1, scale=SCALE, trace="both", setups=1)
        again = run_workload(name, 1, scale=SCALE, trace="1", setups=1)
        other = run_workload(name, 2, scale=SCALE, trace="0", setups=1)
        check(list(both["metrics"]) == e2e + per_layer,
              f"{name}: emitted metrics differ from BENCHMARK.json")
        check(list(again["metrics"]) == per_layer, f"{name}: --trace 1 metric set")
        check(list(other["metrics"]) == e2e, f"{name}: --trace 0 metric set")
        for result in (both, again, other):
            check(result["correct"] and result["failed"] == 0,
                  f"{name}: {result['failed']} failed ops ({result['first_failure']})")
        check(all(v != 0 for v in _values(other, e2e).values()),
              f"{name}: an end-to-end metric is 0")
        check(not both["info"]["still_patched"],
              f"{name}: still patched after the traced pass: {both['info']['still_patched']}")
        if name != "serve_mixed":
            check(_values(both, counted) == _values(again, counted),
                  f"{name}: count metrics differ between two runs of seed 1")
            check(both["info"]["digest"] == again["info"]["digest"],
                  f"{name}: fs digest differs between two runs of seed 1")
        build = WORKLOADS[name].build
        check(build(1, SCALE, 1.0).rounds != build(2, SCALE, 1.0).rounds,
              f"{name}: seeds 1 and 2 give the same requests")
        if name in _WRITERS:
            check(both["info"]["digest"] != other["info"]["digest"],
                  f"{name}: fs digest is the same for seeds 1 and 2")
            check(_values(both, _EXACT) != _values(other, _EXACT),
                  f"{name}: exact metrics are the same for seeds 1 and 2")
        if name == "mixed_update_rw":
            check(both["metrics"]["space_amplification"]["value"] >= 1,
                  "mixed_update_rw: space_amplification < 1")
        print(f"selftest {name}: {'ok' if not problems else problems[-1]}", flush=True)

    stray = [t.name for t in threading.enumerate()
             if t is not threading.main_thread() and not t.daemon]
    check(not stray, f"threads still running: {stray}")
    took = time.perf_counter() - started
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest {'FAILED' if problems else 'passed'} in {took:.1f}s")
    return 1 if problems else 0
