#!/usr/bin/env python3
"""Compare a base and a head rdsim_bench result.

    python3 tools/bench_compare.py BENCH_rdsim.json
        names the change the ledger measures (its `change` field), compares
        its runs.parent with runs.head, workload by workload, and reports the
        medians of its interleaved A/B runs (`ab`)
    python3 tools/bench_compare.py BASE.json HEAD.json
        compares two rdsim_bench results (the JSON line a run prints last)

Three kinds of field:
  - exact: the digest and the deterministic counts and ratios below must be
    equal; any difference fails;
  - only-fall: allocation counts may stay or fall, never rise;
  - timings: reported as advisory deltas in each metric's worse direction,
    against the BENCHMARK.json bound where the metric has one.
A field absent from both sides is skipped; absent from one side, it fails.

Exit status: 0 when every exact field matches and no only-fall field rose,
1 otherwise, 2 on a usage or input error.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXACT = [
    "net.stream.segments_tx_per_sim_s",
    "net.stream.retx_ratio",
    "net.stream.hol_stall_ms_per_sim_s",
    "net.netem.drop_ratio",
    "net.netem.depth_mean",
    "net.fifo.depth_mean",
    "core.frames_displayed_ratio",
    "check.run_success_rate",
    "check.contract_violations_per_run",
]
ONLY_FALL = ["util.allocs_per_tick", "net.pool.fresh_ratio"]


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise SystemExit(f"bench_compare: cannot read {path}: {e}") from None


def spec():
    """Metric name -> {"better", "bound"?} from BENCHMARK.json."""
    data = load(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m for m in data["end_to_end"] + data["per_layer"]}


def describe(worse):
    """'3.1% worse' or '15.0% better', from a worse-direction change."""
    if worse == 0:
        return "same"
    return f"{abs(worse):.1%} {'worse' if worse > 0 else 'better'}"


def worse_by(name, base, head, metrics):
    """Relative change of head against base in the metric's worse direction."""
    if not base:
        return 0.0
    change = (head - base) / abs(base)
    return -change if metrics.get(name, {}).get("better") == "higher" else change


def value(result, name):
    metric = result.get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def compare(label, base, head, metrics):
    """Prints one workload's comparison; returns the list of hard failures."""
    failures = []
    print(f"{label}:")

    def check(name, b, h, ok, rule):
        if b is None and h is None:
            return
        if b is None or h is None or not ok(b, h):
            failures.append(f"{label} {name}: {b} -> {h} ({rule})")
            print(f"  FAIL {name:38} {b} -> {h} ({rule})")
        else:
            print(f"  ok   {name:38} {h}")

    check("digest", base.get("digest"), head.get("digest"), lambda b, h: b == h, "must match")
    if "correct" in head and not head["correct"]:
        failures.append(f"{label} correct: head outputs are not correct")
        print("  FAIL correct: head outputs are not correct")
    check("failed", base.get("failed"), head.get("failed"), lambda b, h: h <= b,
          "may not rise")
    for name in EXACT:
        check(name, value(base, name), value(head, name), lambda b, h: b == h, "must match")
    for name in ONLY_FALL:
        check(name, value(base, name), value(head, name), lambda b, h: h <= b, "may only fall")

    names = [n for n in head.get("metrics", {}) if n not in EXACT and n not in ONLY_FALL]
    for name in names:
        b, h = value(base, name), value(head, name)
        if b is None or h is None:
            continue
        worse = worse_by(name, b, h, metrics)
        bound = metrics.get(name, {}).get("bound")
        note = ""
        if bound is not None:
            note = f"  bound {bound:.0%}" + ("  OVER (advisory)" if worse > bound else "")
        print(f"  info {name:38} {b:.6g} -> {h:.6g}  {describe(worse)}{note}")
    return failures


def report_ab(ab, metrics):
    """Advisory: medians per side of every A/B run set, against the bounds."""
    for key, runs in ab.items():
        if not isinstance(runs, list):
            continue
        for workload in dict.fromkeys(r["workload"] for r in runs):
            sides = {s: [r for r in runs if r["workload"] == workload and r["side"] == s]
                     for s in ("parent", "head")}
            pairs = min(len(sides["parent"]), len(sides["head"]))
            if not pairs:
                continue
            print(f"ab {key} {workload}: {pairs} pairs (advisory)")
            for name, m in metrics.items():
                if "bound" not in m or name not in sides["parent"][0]:
                    continue
                b = statistics.median(r[name] for r in sides["parent"])
                h = statistics.median(r[name] for r in sides["head"])
                worse = worse_by(name, b, h, metrics)
                wins = sum(worse_by(name, p[name], q[name], metrics) < 0
                           for p, q in zip(sides["parent"], sides["head"]))
                flag = "  OVER" if worse > m["bound"] else ""
                print(f"  {name:14} {b:10.4g} -> {h:10.4g}  {describe(worse):>14}"
                      f"  head better in {wins}/{pairs}  bound {m['bound']:.0%}{flag}")


def main(argv):
    if len(argv) not in (2, 3) or any(a.startswith("-") for a in argv[1:]):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = spec()
    failures = []
    if len(argv) == 2:
        ledger = load(argv[1])
        runs = ledger.get("runs", {})
        if "parent" not in runs or "head" not in runs:
            print(f"bench_compare: {argv[1]} has no runs.parent / runs.head", file=sys.stderr)
            return 2
        if "change" in ledger:
            print(f"ledger change: {ledger['change']}")
        for workload in runs["head"]:
            if workload not in runs["parent"]:
                failures.append(f"{workload}: no parent run")
                continue
            failures += compare(workload, runs["parent"][workload], runs["head"][workload],
                                metrics)
        report_ab(ledger.get("ab", {}), metrics)
    else:
        base, head = load(argv[1]), load(argv[2])
        if "metrics" not in base or "metrics" not in head:
            print("bench_compare: both files must be rdsim_bench results", file=sys.stderr)
            return 2
        failures += compare(head.get("workload", "result"), base, head, metrics)
    for line in failures:
        print(f"FAILED: {line}")
    print("bench_compare: " + (f"{len(failures)} failure(s)" if failures else "exact fields match"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
