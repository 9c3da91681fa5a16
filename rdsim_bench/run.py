#!/usr/bin/env python3
"""rdsim_bench entry point: build the benchmark from source, then run it.

One workload, printing the JSON result as the last stdout line:

    python3 rdsim_bench/run.py --workload paper_campaign --seed 14 --seconds 30 --trace 0

Steadiness mode: run each workload N times on seed S (or on seeds S..S+N-1
with --vary-seed) and print the median, quartile spread, min and max of every
metric; with --sets K, repeat that K times and compare each set's medians
with the first set's against the bounds in BENCHMARK.json:

    python3 rdsim_bench/run.py --steadiness 10 [--sets 2] [--vary-seed]
        [--workload NAME ...] [--seed S] [--seconds T]

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the checkout root. Build output goes to stderr.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_campaign", "loss_mitigated", "datagram_campaign"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once), build, and self-test the benchmark binaries."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4"], stdout=sys.stderr, check=True)
    subprocess.run([os.path.join(out, "histogram_test")], stdout=sys.stderr, check=True)


def binary(trace):
    return os.path.join(build_dir(), "rdsim_bench_traced" if trace else "rdsim_bench")


def bench_args(workload, seed, seconds, trace):
    return [binary(trace), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns its JSON result, or None when it failed."""
    proc = subprocess.run(bench_args(workload, seed, seconds, trace),
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def spread(values):
    """Quartile spread as a share of the median, as statistics.quantiles gives it."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def steadiness(args):
    """Runs every workload N times per set and prints each metric's median,
    quartile spread, min and max. From the second set on, each median is
    also compared with the first set's, in the metric's worse direction;
    with --trace 0 spreads and shifts are checked against the bounds in
    BENCHMARK.json and any excess gives exit code 1."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    workloads = args.workload or WORKLOADS
    seeds = [args.seed + i if args.vary_seed else args.seed for i in range(args.steadiness)]
    first = {}
    over = []
    for set_no in range(1, args.sets + 1):
        for workload in workloads:
            values, units = {}, {}
            for seed in seeds:
                result = run_once(workload, seed, args.seconds, args.trace)
                if result is None:
                    return 1
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
                print(f"set {set_no} {workload} seed {seed}: " +
                      " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
            print(f"set {set_no} {workload}: {len(seeds)} runs, seed(s) {seeds[0]}"
                  f"{'..' + str(seeds[-1]) if args.vary_seed else ''}, {args.seconds:g} s each")
            print(f"  {'metric':36} {'median':>12} {'IQR/med':>8} {'min':>12} {'max':>12}"
                  f" {'vs set 1':>9} {'bound':>6}  unit")
            for name, v in values.items():
                med = statistics.median(v)
                sp = spread(v)
                bound = spec[name]["bound"] if name in spec and not args.trace else None
                shift = ""
                if set_no == 1:
                    first[(workload, name)] = med
                else:
                    base = first[(workload, name)]
                    worse = (med - base) / abs(base) if base else 0.0
                    if spec.get(name, {}).get("better") == "higher":
                        worse = -worse
                    shift = f"{worse:+.2%}"
                    if bound is not None and worse > bound:
                        over.append(f"set {set_no} {workload} {name}: median {shift} worse")
                if bound is not None and name != "setup_s" and sp > bound:
                    over.append(f"set {set_no} {workload} {name}: spread {sp:.2%}")
                print(f"  {name:36} {med:12.6g} {sp:8.2%} {min(v):12.6g} {max(v):12.6g}"
                      f" {shift:>9} {bound if bound is not None else '':>6}  {units[name]}")
            sys.stdout.flush()
    for line in over:
        print(f"OVER BOUND: {line}")
    return 1 if over else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    parser.add_argument("--sets", type=int, default=1, metavar="K")
    parser.add_argument("--vary-seed", action="store_true")
    args = parser.parse_args()
    if not args.steadiness and (not args.workload or len(args.workload) != 1):
        parser.error("exactly one --workload is required outside steadiness mode")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"rdsim_bench: build failed: {e}", file=sys.stderr)
        return 1
    if args.steadiness:
        return steadiness(args)
    return subprocess.run(bench_args(args.workload[0], args.seed, args.seconds,
                                     args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
