#!/usr/bin/env python3
"""Smoke run of the benchmark harness, kept out of the test suite.

Runs every workload of ``BENCHMARK.json`` at tiny size (cutoff 2, 11 sweep
points, ``c01*`` only for verify), one operation each, untraced and traced.
Exits 0 when every operation passes its output check and each result carries
exactly the metrics ``BENCHMARK.json`` lists, with their units.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            problems.append(f"trace {trace}: exit {done.returncode}: {done.stderr[-2000:]}")
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"] or result["attempted"] < len(workloads):
            problems.append(f"trace {trace}: {result['failed']} of {result['attempted']} failed")
        want = {m["name"]: m["unit"] for m in spec[group]}
        for workload in workloads:
            got = {name.split(".", 1)[1]: entry["unit"]
                   for name, entry in result["metrics"].items()
                   if name.startswith(f"{workload}.") and not name.endswith(".error_rate")}
            if got != want:
                problems.append(f"trace {trace} {workload}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
