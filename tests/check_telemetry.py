#!/usr/bin/env python3
"""Telemetry check: a short traced thermal_quench run whose Chrome-trace JSON
and NDJSON step log are schema-validated.

Usage: check_telemetry.py <thermal_quench binary> <output dir>

The trace must hold exactly the expected span names: a renamed, lost or
duplicated scope fails the check.
"""
import json
import os
import subprocess
import sys

EXPECTED_SPANS = {
    "controller:advance",
    "landau:advection",
    "landau:factor",
    "landau:inner-cuda",
    "landau:jacobian-cuda",
    "landau:jacobian-kernel",
    "landau:matrix",
    "landau:pack",
    "landau:solve",
    "landau:species-sums",
    "landau:step",
    "quench:run",
}

STEP_KEYS = ("kind", "step", "t", "dt", "newton_iterations", "gmres_iterations_total",
             "rejections", "n_e", "j_z", "e_z", "t_e", "phase")


def main():
    binary, out_dir = sys.argv[1], sys.argv[2]
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.json")
    steps_path = os.path.join(out_dir, "steps.ndjson")
    subprocess.run([binary, "-max_steps", "5", "-ion_mass", "25",
                    "-landau_cells_per_thermal", "0.8", "-landau_max_levels", "5",
                    "-landau_trace", trace_path, "-landau_step_log", steps_path],
                   check=True, stdout=subprocess.DEVNULL)

    with open(trace_path) as f:
        events = json.load(f)
    assert isinstance(events, list) and events, "trace is not a non-empty JSON array"
    for e in events:
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            assert key in e, f"trace event missing '{key}': {e}"
        assert e["ph"] == "X", f"unexpected event phase {e['ph']!r}"
    names = {e["name"] for e in events}
    assert names == EXPECTED_SPANS, (f"span names differ: missing {sorted(EXPECTED_SPANS - names)}, "
                                     f"unexpected {sorted(names - EXPECTED_SPANS)}")

    with open(steps_path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    assert len(lines) >= 6, f"expected >= 6 step records, got {len(lines)}"
    for rec in lines:
        for key in STEP_KEYS:
            assert key in rec, f"step record missing '{key}': {rec}"
    print(f"telemetry ok: {len(events)} spans, {len(lines)} step records")


if __name__ == "__main__":
    main()
