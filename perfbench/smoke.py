"""Smoke run: every workload at a tiny size, untraced and traced.

    python3 perfbench/smoke.py

Checks that each run exits 0, that its output check passed, that the
traced draws equal the untraced ones, and that the printed metric names
and units are exactly those in BENCHMARK.json.  Takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            info = json.loads(lines[-2])["info"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{where}: output check failed: {info['check']}")
            if trace == 1 and not info["draws_identical"]:
                problems.append(f"{where}: traced draws differ from untraced")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                extra = sorted(set(units) - set(expected[trace]))
                lost = sorted(set(expected[trace]) - set(units))
                wrong = sorted(k for k in set(units) & set(expected[trace])
                               if units[k] != expected[trace][k])
                problems.append(f"{where}: extra {extra}, missing {lost}, unit {wrong}")
            absent = [k for k, v in result["metrics"].items() if v["value"] is None]
            if absent:
                problems.append(f"{where}: absent metrics {absent}")
            print(f"{where}: ran {result['attempted']} draws", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
