#!/usr/bin/env python3
"""Self-test of tools/bench_compare.py (ctest `bench_compare_tests`).

Builds small rdsim_bench results and ledgers in a temporary directory and
checks the exit status of each comparison: equal exact fields pass, any
difference in them fails, allocation counts may fall but not rise, timings
never fail, and bad input is a usage error.

Exit status: 0 all pass, 1 failures.
"""
import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOL = REPO_ROOT / "tools" / "bench_compare.py"


def result(**overrides):
    metrics = {
        "net.stream.segments_tx_per_sim_s": 2476.6,
        "net.stream.retx_ratio": 0.0431,
        "net.netem.depth_mean": 62.68,
        "core.frames_displayed_ratio": 0.9722,
        "check.run_success_rate": 1.0,
        "check.contract_violations_per_run": 0.0,
        "util.allocs_per_tick": 3.27,
        "net.pool.fresh_ratio": 0.13,
        "core.step_us_per_sim_s": 2500.0,
        "sim_rtf": 400.0,
    }
    metrics.update(overrides)
    return {"digest": "a52d58a315ed1425", "correct": True, "attempted": 96, "failed": 0,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}


def run(tmp, *docs):
    paths = []
    for i, doc in enumerate(docs):
        path = Path(tmp) / f"in{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return subprocess.run([sys.executable, str(TOOL), *paths], capture_output=True,
                          text=True).returncode


def main():
    base = result()
    digest_drift = copy.deepcopy(base)
    digest_drift["digest"] = "0000000000000000"
    incorrect = copy.deepcopy(base)
    incorrect["correct"] = False
    cases = [
        ("identical results", (base, result()), 0),
        ("timings move freely", (base, result(**{"core.step_us_per_sim_s": 9000.0,
                                                "sim_rtf": 10.0})), 0),
        ("allocations fall", (base, result(**{"util.allocs_per_tick": 1.75,
                                             "net.pool.fresh_ratio": 0.007})), 0),
        ("allocations rise", (base, result(**{"util.allocs_per_tick": 3.28})), 1),
        ("pool fresh ratio rises", (base, result(**{"net.pool.fresh_ratio": 0.2})), 1),
        ("digest differs", (base, digest_drift), 1),
        ("head incorrect", (base, incorrect), 1),
        ("retx ratio differs", (base, result(**{"net.stream.retx_ratio": 0.0432})), 1),
        ("depth mean differs", (base, result(**{"net.netem.depth_mean": 62.69})), 1),
        ("frames ratio differs", (base, result(**{"core.frames_displayed_ratio": 0.97})), 1),
        ("ledger, equal sides", ({"runs": {"parent": {"w": base}, "head": {"w": result()}},
                                  "ab": {"seed_14": [
                                      {"side": "parent", "workload": "w", "sim_rtf": 400.0},
                                      {"side": "head", "workload": "w", "sim_rtf": 500.0}]}},),
         0),
        ("ledger, digest drift", ({"runs": {"parent": {"w": base},
                                            "head": {"w": digest_drift}}},), 1),
        ("ledger without runs", ({"ab": {}},), 2),
        ("not a result", ({"x": 1}, {"y": 2}), 2),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, docs, expected in cases:
            got = run(tmp, *docs)
            ok = got == expected
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {got}, expected {expected}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
