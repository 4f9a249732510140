"""Self-test of the benchmark: tiny runs of every workload, traced and untraced.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that fail_ratio is 0 on clean runs, and that one deliberately perturbed
result per workload is counted as failed and makes the exit code non-zero.
Exits 0 when all of that holds.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def run(workload: str, trace: int, *extra: str):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[0]), json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, record, result = run(workload, trace)
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: exit {code}, {record.get('errors')}")
            if record["fail_ratio"] != {"value": 0.0, "unit": "1"}:
                problems.append(f"{workload} trace={trace}: fail_ratio {record['fail_ratio']}")
            got = result["metrics"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
            if set(got) != {m["name"] for m in want[trace]}:
                problems.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
            for m in want[trace]:
                entry = got.get(m["name"], {})
                if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{workload} trace={trace}: {m['name']} printed as {entry}")
        code, record, result = run(workload, 0, "--corrupt")
        if code == 0 or result["correct"] or result["failed"] < 1 or not record["fail_ratio"]["value"]:
            problems.append(f"{workload}: corrupted result not counted (exit {code}, {result['failed']})")
        print(f"{workload}: ok" if not problems else f"{workload}: {problems}", flush=True)
    for p in problems:
        print("FAIL", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
