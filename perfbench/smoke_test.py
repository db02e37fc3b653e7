#!/usr/bin/env python3
"""Smoke self-test of the benchmark at a tiny size.

    python3 perfbench/smoke_test.py

Runs every workload untraced and traced with --tiny (VexRiscv-only
catalog, 64-element kernels, one setup) under two seeds, and asserts:

  * every check passed (correct, failed == 0, attempted >= 1);
  * the metrics are exactly the end_to_end (untraced) or per_layer
    (traced) metrics of BENCHMARK.json, each with its declared unit;
  * every metric is a finite number, and every end-to-end one is > 0;
  * the deterministic metrics are identical under both seeds.

Exits 0 when all hold. Takes about a minute after the first build.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = (1, 2)
# Units of counters that depend only on the compiled hardware, never on
# the seed or the machine.
DETERMINISTIC_UNITS = {"count", "um2", "bits", "stages", "cycles/elem"}
DETERMINISTIC_NAMES = {"cores.stall_frac.sqrt"}


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    failures = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            results = [run(workload, seed, trace) for seed in SEEDS]
            where = f"{workload} trace={trace}"
            for seed, res in zip(SEEDS, results):
                if not (res["correct"] and res["failed"] == 0
                        and res["attempted"] >= 1):
                    failures.append(f"{where} seed={seed}: checks failed")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want:
                    failures.append(f"{where}: metrics/units differ: "
                                    f"missing {sorted(set(want) - set(got))}"
                                    f" extra {sorted(set(got) - set(want))}"
                                    f" units {[k for k in want if got.get(k, want[k]) != want[k]]}")
                for name, metric in res["metrics"].items():
                    value = metric["value"]
                    if not math.isfinite(value) or (trace == 0 and value <= 0):
                        failures.append(f"{where}: {name} = {value}")
            for name, unit in want.items():
                if unit in DETERMINISTIC_UNITS or name in DETERMINISTIC_NAMES:
                    values = {r["metrics"].get(name, {}).get("value")
                              for r in results}
                    if len(values) != 1:
                        failures.append(f"{where}: {name} varies with the "
                                        f"seed: {sorted(values)}")
            print(f"ok: {where}" if not failures else f"checked: {where}")
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
