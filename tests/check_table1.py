#!/usr/bin/env python3
"""Table I check: bench_table1_grids must report the grid counts and sizes of
the 10-species e/D/W plasma on 1, 3 and 10 velocity grids.

Usage: check_table1.py <bench_table1_grids binary>

The binary writes BENCH_table1_grids.json to $LANDAU_BENCH_DIR. The expected
values pin the thermal-speed clustering and the single-grid mesh: a change to
either moves at least one of them.
"""
import json
import os
import subprocess
import sys

EXPECTED = {
    "grids1.n_ips": 3872,
    "grids1.n_equations": 21610,
    "grids3.n_grids": 3,
    "grids3.n_ips": 1248,
    "grids3.n_equations": 2590,
    "grids10.n_grids": 10,
    "grids10.n_ips": 4160,
}


def main():
    out_dir = os.environ.get("LANDAU_BENCH_DIR")
    assert out_dir, "LANDAU_BENCH_DIR must name the output directory"
    subprocess.run([sys.argv[1]], check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(out_dir, "BENCH_table1_grids.json")) as f:
        metrics = json.load(f)["metrics"]
    wrong = {key: metrics.get(key, {}).get("value") for key, want in EXPECTED.items()
             if metrics.get(key, {}).get("value") != want}
    assert not wrong, f"Table I sizes differ from {EXPECTED}: got {wrong}"
    print("table1 grid counts and sizes OK")


if __name__ == "__main__":
    main()
