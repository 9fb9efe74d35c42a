#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check, print one JSON line.

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  hot-read    Gowalla-like x0.5, 64 hot users, 1 observe per 16 requests
  miss-write  Lastfm-like x8, Zipf users, observe-then-recommend visits
Both also fit and evaluate their trace offline, interleaved with serving.

The first run in a checkout compiles ../src and the program in perfbench/src
into $CARGO_TARGET_DIR (default .bench_build) with CMake; later runs reuse
the build. Build output goes to standard error. The last line of standard
output is {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1 (spans are then
written to <build dir>/spans-<workload>.tsv).

The run fails (exit 1) unless every future resolved, every served ranking
matched the single-threaded reference, and eval.maap10 lies within the
program's tolerance of the value bands.json records for the seed (for a
seed it does not record, of a serial fit the program makes itself).
--seed defaults to the recorded default seed; claims should be re-checked
on the recorded held-out seed too.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BANDS = json.loads((HERE / "bands.json").read_text())
WORKLOADS = ("hot-read", "miss-write")
# The whole run must end within 180 s; the measured part gets what is left.
RUN_LIMIT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target / "perfbench").resolve()


def build(out):
    """Configures (once) and builds the program; returns its path or None."""
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--parallel",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=BANDS["default_seed"])
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    expected = BANDS["maap10"][args.workload].get(str(args.seed))
    if expected is not None:
        command += ["--maap-expected", repr(expected)]
    if args.trace:
        command += ["--spans-out", str(out / f"spans-{args.workload}.tsv")]
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        log("benchmark exceeded its time limit")
        return 1
    lines = result.stdout.strip().splitlines()
    if not lines:
        log(f"benchmark printed no result (exit {result.returncode})")
        return 1
    print(lines[-1], flush=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
