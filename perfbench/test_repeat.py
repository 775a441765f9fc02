#!/usr/bin/env python3
"""Repeatability test of the benchmark itself.

    python3 perfbench/test_repeat.py

Runs every workload at its fixed --tiny geometry (every slide or round
checked against a from-scratch recompute), twice per mode with one seed.
Asserts that each run is correct, that every metric BENCHMARK.json names is
printed with its unit, and that the work counts the traced run reports
repeat exactly: contraction counts, GC and eviction counts, serving counts,
durable writes and the simulated run metrics.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
EXACT = (
    "contraction.combiner_invocations",
    "contraction.combiner_reused",
    "contraction.reuse_ratio",
    "contraction.nodes_visited",
    "contraction.rows_scanned",
    "storage.gc_collected",
    "storage.memo_entries",
    "storage.misses",
    "storage.quota_evictions",
    "storage.eviction_forced_misses",
    "durability.persistent_writes",
    "durability.bytes_persisted",
    "serving.checkpoints",
    "serving.hydrations",
    "serving.shed",
    "slider.sim_work_s",
    "slider.sim_time_s",
)


class Failure(Exception):
    pass


def require(condition, message):
    if not condition:
        raise Failure(message)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--tiny"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    require(proc.returncode == 0 and lines, f"exit {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def check_printed(lines, result, specs):
    require(result["correct"] and result["failed"] == 0,
            f"incorrect: {result['failed']} of {result['attempted']} failed")
    require(result["attempted"] >= 1, "nothing attempted")
    metrics = result["metrics"]
    names = {spec["name"] for spec in specs}
    require(set(metrics) == names,
            f"metric set differs: {sorted(set(metrics) ^ names)}")
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        require(metrics[name]["unit"] == unit, f"{name}: unit")
        pattern = re.compile(
            rf"^{re.escape(name)}\s+-?[0-9.]+\s+{re.escape(unit)}$")
        require(any(pattern.match(line) for line in lines),
                f"{name} not printed with its unit")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            try:
                first = run(workload, trace)
                second = run(workload, trace)
                for lines, result in (first, second):
                    check_printed(lines, result, specs)
                if trace:
                    for name in EXACT:
                        a = first[1]["metrics"][name]["value"]
                        b = second[1]["metrics"][name]["value"]
                        require(a == b, f"{name}: {a} != {b}")
            except Failure as error:
                failures += 1
                print(f"FAIL {workload} trace={trace}: {error}")
                continue
            print(f"ok   {workload} trace={trace}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
