#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, emits exactly the
metrics BENCHMARK.json declares with their units, passes every output
check (including the reference comparison at the reference seed),
prints ops_failed_frac, that ``--workload all`` covers all three
workloads, and that the benchmark exits non-zero without a result when
the library's sources are missing. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = ("cluster-shuffle", "omni-anomaly", "match-cli")


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, str(BENCH / "run.py"), "--seed", "0", "--seconds", "1",
           "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in NAMES:
        for trace in (0, 1):
            proc = bench("--workload", name, "--trace", str(trace))
            expect(proc.returncode == 0, f"{name} trace={trace} exits 0 {proc.stderr[-500:]}")
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            expect(sorted(last) == ["attempted", "correct", "failed", "metrics"],
                   f"{name} trace={trace} result keys")
            units = {k: v["unit"] for k, v in last["metrics"].items()}
            expect(units == declared[trace], f"{name} trace={trace} emits every metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in last["metrics"].values()),
                   f"{name} trace={trace} values are numbers")
            expect(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
                   f"{name} trace={trace} output checks pass ({last['attempted']} ops)")
            expect(any(f"{name} ops_failed_frac 0 ratio" in line for line in lines),
                   f"{name} trace={trace} prints ops_failed_frac")

    proc = bench("--workload", "all", "--trace", "0")
    summary = [line for line in proc.stdout.splitlines() if line.startswith("summary ")]
    expect(proc.returncode == 0 and len(summary) == len(NAMES), "--workload all runs every workload")

    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "match-cli",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the library: non-zero exit and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
