#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

usage: python3 perfbench/steady.py [--runs N] [--workloads a,b,...]
                                   [--trace-runs K]

Run from the repository root. For each workload it makes two sets of N
untraced runs of one build, BENCHMARK.json's run_seconds long, interleaved
(A B, B A, A B, ...). Run i of either set uses seed SEED_BASE + i, so the two
sets see the same inputs and a figure that is exact for a seed (the EXACT
metrics below) must read the same in both. It prints every end-to-end
metric's median and quartiles per set, the spread (interquartile range over
the median), each run's value, and whether the sets agree within the bounds
in BENCHMARK.json: every spread but setup_s's at most its bound, and set B's
median no worse than set A's by more than the bound. It also checks that
the share of failed operations is the same in both sets. With
--trace-runs K it adds K traced runs per workload and prints the per-layer
medians and the tracing overhead on qps. A machine fingerprint (nproc,
compiler, build type, commit) heads the output.
Exits 1 when any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = 1000
# Metrics that depend only on the seed: identical in every run of a seed.
EXACT = {"rush_hour": ("io_units_per_query",),
         "live_traffic": ("io_units_per_query",)}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        sys.exit(f"steady: {' '.join(cmd)} exited {done.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fingerprint(build_dir):
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True, cwd=ROOT).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return (f"nproc={os.cpu_count()} compiler='{version}' "
            f"build_type={cache.get('CMAKE_BUILD_TYPE', 'unknown')} "
            f"commit={commit}")


def main():
    p = argparse.ArgumentParser(allow_abbrev=False)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--trace-runs", type=int, default=0)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    e2e = spec["end_to_end"]

    raw = {w: {"A": [], "B": [], "trace": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            # Alternate which set runs first, so drift favours neither.
            for side in (("A", "B") if i % 2 == 0 else ("B", "A")):
                raw[w][side].append(run_once(w, SEED_BASE + i, seconds, 0))
        print(f"  round {i + 1}/{args.runs} done", file=sys.stderr)
    for w in workloads:
        for i in range(args.trace_runs):
            raw[w]["trace"].append(run_once(w, SEED_BASE + i, seconds, 1))

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    print(fingerprint(build_dir))
    print(f"runs per set={args.runs} seconds={seconds}")
    ok = True
    for w in workloads:
        print(f"\n== {w}")
        for side in ("A", "B"):
            if not all(r["correct"] for r in raw[w][side]):
                print(f"  set {side}: a run reported wrong answers")
                ok = False
        shares = {side: {r["failed"] / r["attempted"] for r in raw[w][side]}
                  for side in ("A", "B")}
        if len(shares["A"] | shares["B"]) != 1:
            print(f"  failed share differs: {shares}")
            ok = False
        for name in EXACT.get(w, ()):
            pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                     for a, b in zip(raw[w]["A"], raw[w]["B"])]
            differ = [SEED_BASE + i for i, (a, b) in enumerate(pairs) if a != b]
            print(f"  {name} identical for each seed: "
                  + ("yes" if not differ else f"NO (seeds {differ})"))
            ok = ok and not differ
        print(f"  {'metric':<20} {'set':<4} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6} {'worse':>7}")
        for m in e2e:
            name, bound = m["name"], m["bound"]
            stats = {}
            for side in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in raw[w][side]]
                q1, med, q3 = quartiles(vals)
                stats[side] = (med, q1, q3, (q3 - q1) / med)
            med_a, med_b = stats["A"][0], stats["B"][0]
            worse = ((med_b - med_a) / med_a if m["better"] == "lower"
                     else (med_a - med_b) / med_a)
            for side in ("A", "B"):
                med, q1, q3, spread = stats[side]
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, ok = "SPREAD>BOUND", False
                elif name != "setup_s" and spread > bound / 3:
                    flag = "spread>bound/3"
                if side == "B" and worse > bound:
                    flag, ok = (flag + " WORSE>BOUND").strip(), False
                print(f"  {name:<20} {side:<4} {med:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>7.3f} {bound:>6.3f} "
                      f"{worse if side == 'B' else 0.0:>7.3f} {flag}")
        print("  every run, seed by seed (set A / set B):")
        for m in e2e:
            pairs = [f"{a['metrics'][m['name']]['value']:.4g}/"
                     f"{b['metrics'][m['name']]['value']:.4g}"
                     for a, b in zip(raw[w]["A"], raw[w]["B"])]
            print(f"    {m['name']:<20} {' '.join(pairs)}")
        if raw[w]["trace"]:
            layers = raw[w]["trace"][0]["metrics"].keys()
            print("  per-layer medians (traced runs):")
            for name in layers:
                vals = [r["metrics"][name]["value"] for r in raw[w]["trace"]]
                print(f"    {name:<45} {statistics.median(vals):.6g}")
            untraced = statistics.median(
                r["metrics"]["qps"]["value"] for r in raw[w]["A"] + raw[w]["B"])
            traced = statistics.median(
                r["metrics"]["trace.qps"]["value"] for r in raw[w]["trace"])
            print(f"  tracing overhead on qps: {1 - traced / untraced:+.3%}")
    print("\nsteady: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
