#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

usage: python3 perfbench/run.py --workload <rush_hour|live_traffic|continent>
                                --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. The script configures and builds perfbench/
(an optimized build of the repository's own sources) into the directory
named by $CARGO_TARGET_DIR, or .bench_build when unset, then runs the
workload. Build output goes to stderr; the last line of standard output is
the run's JSON result. Every flag is required: an unknown flag or a bad
value prints usage and exits 2 before anything is built.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rush_hour", "live_traffic", "continent")
# Beyond the measured seconds: set-up (continent's repeated streaming build
# is the longest, ~15 s), warm-up, the last round's overrun and the checks.
RUN_MARGIN_S = 150


def _int_in(lo, hi):
    def parse(text):
        if not (text.isascii() and text.isdigit()) or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(
                f"expected an integer in {lo}..{hi}, got {text!r}")
        return int(text)
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", add_help=False,
                                allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=_int_in(0, 2**64 - 1))
    p.add_argument("--seconds", required=True, type=_int_in(1, 3600))
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args(argv)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(HERE, "..", ".bench_build"))


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "--target", "atis_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(out_dir, "atis_perfbench")


def main(argv):
    args = parse_args(argv)
    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", os.path.join(out_dir, "work")]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within "
                 f"{timeout} s")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
