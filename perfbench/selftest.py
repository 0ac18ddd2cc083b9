#!/usr/bin/env python3
"""Self-tests of the repo benchmark.

    python3 perfbench/selftest.py

1. A minimal-size (--smoke) run of every workload, untraced and traced,
   emits exactly the metric names and units BENCHMARK.json declares, with
   finite values, and passes its correctness gates.
2. `perfbench --selftest gates`: the tungsten conservation gate and the
   quench source-balance gate pass real steps and trip when one species
   block is corrupted.
3. `perfbench --selftest decorator`: one tungsten10 step through the timing
   decorator is bitwise identical to one step on the bare operator.

Exits nonzero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

import run

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def check_smoke(spec, workload, trace):
    cmd = [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return f"exit code {proc.returncode}"
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        return f"gates failed: {result}"
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != declared:
        return f"metrics {sorted(emitted.items())} != declared {sorted(declared.items())}"
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    return f"non-finite values: {bad}" if bad else None


def main():
    bdir = run.build_dir()
    if not run.build(bdir):
        print("FAIL: build")
        return 1
    with open(SPEC) as fp:
        spec = json.load(fp)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            err = check_smoke(spec, workload, trace)
            status = f"FAIL: {err}" if err else "ok"
            print(f"smoke {workload} --trace {trace}: {status}")
            failures += bool(err)
    for name in ("gates", "decorator"):
        proc = subprocess.run([os.path.join(bdir, "perfbench"), "--selftest", name],
                              stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        print(f"selftest {name}: {'FAIL' if proc.returncode else 'ok'}")
        failures += proc.returncode != 0
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
