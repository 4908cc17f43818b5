#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and summarise the spread.

    python3 perfbench/stability.py --runs 10 --out perfbench/baseline/baseline.json

For every workload and end-to-end metric it reports the median of the
runs, their quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json; with ``--traced`` it adds one ``--trace 1`` run per
workload. Seeds are first_seed, first_seed + 1, ...; every run gets its
own interpreter, and runs of different workloads alternate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(x[len("provenance "):]) for x in lines if x.startswith("provenance "))
    return {"seed": seed, "provenance": prov, "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--traced", action="store_true", help="add one --trace 1 run per workload")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {name: [] for name in names}
    for k in range(args.runs):
        for name in names:
            run = bench(name, args.first_seed + k, spec["run_seconds"], 0)
            runs[name].append(run)
            res = run["result"]
            print(f"{name} seed={run['seed']} correct={res['correct']} "
                  + " ".join(f"{m}={v['value']:.4f}" for m, v in res["metrics"].items()),
                  flush=True)

    summary = {}
    for name in names:
        summary[name] = {}
        for metric, bound in bounds.items():
            vals = [r["result"]["metrics"][metric]["value"] for r in runs[name]]
            summary[name][metric] = dict(spread(vals), bound=bound, values=vals)
            s = summary[name][metric]
            print(f"{name:16s} {metric:12s} median={s['median']:.4f} spread={s['spread']:.4f} "
                  f"bound={bound} third={bound / 3:.4f}", flush=True)
    traced = {name: bench(name, args.first_seed, spec["run_seconds"], 1) for name in names} \
        if args.traced else {}

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        doc = {"provenance": runs[names[0]][0]["provenance"], "summary": summary,
               "runs": {n: [{"seed": r["seed"], **r["result"]} for r in rs]
                        for n, rs in runs.items()},
               "traced": {n: {"seed": r["seed"], **r["result"]} for n, r in traced.items()}}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
