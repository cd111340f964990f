#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

Runs every workload in BENCHMARK.json, and the ungated `car_vio`, with
tracing off and on and few frames per scene. Checks that each run passes
its output checks and prints every metric with its unit: the end-to-end
ones in `metric` lines with tracing off, the per-layer ones in `layer`
lines with tracing on, and those BENCHMARK.json declares in the JSON
result line.

    python3 perfbench/smoke_test.py
"""

import json
import math
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Printed on every run, but zero on a clean run, so not bounded.
PRINTED_END_TO_END = {"frame_failure_rate": "ratio"}
# Per-layer metrics of layers only some workloads exercise: printed
# (as n/a where they do not apply), not in the result line.
PRINTED_PER_LAYER = {
    "setup.survey_s": "s",
    "backend.slam.step_ms.p50": "ms",
    "backend.slam.step_ms.p95": "ms",
    "backend.registration.step_ms.p50": "ms",
    "backend.registration.step_ms.p95": "ms",
    "backend.slam.tracking_ratio": "ratio",
    "backend.registration.tracking_ratio": "ratio",
    "backend.dead_reckon_ms.p50": "ms",
    "backend.kernel.solver.ms": "ms",
    "engine.modeled_frame_ms": "ms",
    "session.unattributed_ms.p50": "ms",
    "session.unattributed_share": "ratio",
    "ledger.unattributed_ms.mean": "ms",
    "ingest.enqueue_us.p50": "us",
    "serving.round_ms.p50": "ms",
    "serving.parallel_efficiency": "ratio",
}
LINE = re.compile(r"^(metric|layer) (\S+) = (\S+) (\S+)")
# Frames per scene stream. `fleet` keeps its own 40: shorter streams let a
# `dusty_site` blackout cover a segment's first frame.
FRAMES = {"car_vio": 8, "drone_mixed": 16, "fleet": None}
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["car_vio"]


def run(workload, trace):
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    if FRAMES[workload]:
        args += ["--frames", str(FRAMES[workload])]
    proc = subprocess.run(
        SPEC["command"] + args, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return proc.stdout.strip().splitlines()


def check(workload, trace):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, result
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    assert any(line.startswith("context: ") and "nproc=" in line for line in lines)

    printed = {}
    for line in lines:
        match = LINE.match(line)
        if match:
            printed[match.group(2)] = match.group(4)
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if trace:
        expected = {**per_layer, **PRINTED_PER_LAYER}
    else:
        expected = {**end_to_end, **PRINTED_END_TO_END}
    for name, unit in expected.items():
        assert printed.get(name) == unit, f"{workload}: {name} printed with {printed.get(name)!r}, want {unit!r}"

    declared = per_layer if trace else end_to_end
    assert set(result["metrics"]) == set(declared), set(result["metrics"]) ^ set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name], (name, entry)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), (name, entry)


def main():
    for workload in WORKLOADS:
        for trace in (0, 1):
            check(workload, trace)
            print(f"ok {workload} trace={trace}")


if __name__ == "__main__":
    main()
