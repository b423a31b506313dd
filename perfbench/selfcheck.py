"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload: two traced runs with the same seed must report identical
``*.calls`` counts, and a timed run with a second seed must report no failed
operation.  Also checks that the metric names and units the runs print are
the ones BENCHMARK.json declares.  Exits 1 on any failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def run(workload, seed, trace, seconds=3):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    if res.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        first = run(workload, 1, 1)
        second = run(workload, 1, 1)
        calls = [k for k in first["metrics"] if k.endswith(".calls")]
        differ = [k for k in calls
                  if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        if differ:
            problems.append(f"{workload}: call counts differ between two traced runs: {differ}")
        timed = run(workload, 2, 0)
        if timed["failed"] or not timed["correct"]:
            problems.append(f"{workload}: {timed['failed']} of {timed['attempted']} "
                            "operations failed with seed 2")
        for trace, result in ((0, timed), (1, first)):
            if units(result) != declared[trace]:
                problems.append(f"{workload}: --trace {trace} metrics differ from BENCHMARK.json")
        print(f"{workload}: {len(calls)} call counts repeat, "
              f"seed 2: {timed['failed']} of {timed['attempted']} failed", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
