#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload catalog-O0 --seed 1 --seconds 20 --trace 0

Builds the benchmark and the Longnail libraries from this checkout into
.bench_build/perfbench (a no-op when up to date; build output goes to
stderr), then runs one measurement. The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}. Exits non-zero
when the build fails, a check fails or the run times out.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("catalog-O0", "catalog-O1-validate", "core-sim")
# A run measures for --seconds plus setup and the last pass it started.
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no Longnail sources at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size (smoke_test.py); not a "
                             "measurement")
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be in 1..120")

    try:
        build()
    except subprocess.CalledProcessError as err:
        sys.exit(f"perfbench: build failed: {err}")

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        valid = False
    if not valid:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: no result (exit {proc.returncode})")
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {result['failed']} check(s) failed")


if __name__ == "__main__":
    main()
