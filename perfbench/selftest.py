"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at the smallest sizes
and checks that each run exits 0, passes its output checks and prints
exactly the metrics ``BENCHMARK.json`` names, each with its unit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
                    errors.append(f"{label}: {name} is not a number")
            print(f"{label}: {len(got)} metrics, {result['attempted']} operations", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
