#!/usr/bin/env python3
"""corrmatch benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload cluster-shuffle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory. One client, closed loop: the next workload call starts when
the previous one has finished and been checked. The library's
``threads`` argument stays at its default of 1 and BLAS threads at the
BLAS default; both are recorded in the provenance.

``--trace 0`` reports the end-to-end metrics ``wall_s`` (median wall
time of one workload call), ``setup_s`` (median over fresh interpreters
of importing corrmatch plus one tiny warm-up call) and ``peak_rss_mb``.
``--trace 1`` runs every call untraced and then traced on the same
inputs, and reports the per-layer metrics of ``tracer.PER_LAYER_UNITS``
per workload call. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Provenance, samples and
check problems go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
NAMES = ("cluster-shuffle", "omni-anomaly", "match-cli")
SETUP_REPEATS = 3
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# run in a fresh interpreter by setup_s: argv = src dir, bench dir, workload, workdir
SETUP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import corrmatch, corrmatch.cli
import workloads
workloads.warmup(corrmatch, sys.argv[3], sys.argv[4])
"""


def load_library():
    """Import corrmatch from this checkout's src/, or exit 2."""
    if not (SRC / "corrmatch" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no corrmatch sources under {SRC}\n")
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import corrmatch
    import corrmatch.cli  # noqa: F401  (not imported by the package itself)
    if Path(corrmatch.__file__).resolve().parent != (SRC / "corrmatch").resolve():
        sys.stderr.write(f"perfbench: imported corrmatch from {corrmatch.__file__}, not {SRC}\n")
        sys.exit(2)
    return corrmatch


def git_commit():
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, params) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "params": params,
        "threads": 1, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(), "sched_affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(),
    }


def measure_setup(name: str, workdir: Path) -> list[float]:
    """Wall seconds of fresh interpreters importing corrmatch plus one warm-up call."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), name,
                               str(workdir)], cwd=ROOT, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.stderr.write(f"perfbench: set-up interpreter exited {proc.returncode}\n")
            sys.exit(1)
    return times


def timed_call(wl, i: int):
    """(wall s, process CPU s over all threads, result or the exception raised)."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = wl.call(i)
    except Exception as exc:  # a failed op is counted, not fatal
        result = exc
    return time.perf_counter() - t0, time.process_time() - c0, result


def upper_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": sorted(samples)[n - 11]}


def layer_checks(name: str, metrics: dict) -> dict:
    """Does each workload stress the layer it was chosen for?"""
    self_s = {k[:-len(".self_s")]: v["value"] for k, v in metrics.items()
              if k.endswith(".self_s")}
    largest = max(self_s, key=self_s.get)
    matching = self_s["matching.sgm"] + self_s["matching.lap"]
    others = max(v for k, v in self_s.items() if k not in ("matching.sgm", "matching.lap"))
    checks = {"largest_layer": largest}
    if name == "cluster-shuffle":
        checks["gmm_is_largest"] = largest == "clustering.gmm"
    if name == "omni-anomaly":
        checks["ase_is_largest"] = largest == "embedding.ase"
    if name == "match-cli":
        checks["sgm_plus_lap_is_largest"] = matching > others
    else:
        checks["graphs_io_zero"] = all(v["value"] == 0 for k, v in metrics.items()
                                       if k.startswith("graphs.io."))
    if name != "cluster-shuffle":
        checks["clustering_zero"] = all(v["value"] == 0 for k, v in metrics.items()
                                        if k.startswith("clustering."))
    return checks


def run_one(args) -> int:
    cm = load_library()
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    wl = workloads.make(cm, args.workload, args.size, args.seed, workdir / "run")
    prov = provenance(args, wl.p)
    setup = [] if args.trace else measure_setup(args.workload, workdir / "setup")

    tracer = Tracer(cm) if args.trace else None
    walls, cpus, overheads, problems = [], [], [], []
    attempted = failed = 0

    def tally(out):
        nonlocal attempted, failed
        attempted += out.attempted
        failed += out.failed
        problems.extend(out.problems)

    start = time.perf_counter()
    i = 0
    while True:
        if tracer is None:
            wall, cpu, result = timed_call(wl, i)
            walls.append(wall)
            cpus.append(cpu)
            tally(wl.check(i, result))
        else:
            # untraced and traced on the same inputs, alternating which goes first
            timing, outs = {}, {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                with tracer.installed(run_id=i) if traced else contextlib.nullcontext():
                    timing[traced], _, result = timed_call(wl, i)
                outs[traced] = wl.check(i, result)
                tally(outs[traced])
            if outs[True].fingerprint != outs[False].fingerprint:
                failed += outs[True].attempted - outs[True].failed
                problems.append(f"call {i}: traced outputs differ from untraced outputs")
            walls.append(timing[False] + timing[True])
            overheads.append(timing[True] - timing[False])
        i += 1
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        metrics = tracer.metrics(i, statistics.median(overheads))
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    detail = {"provenance": prov, "calls": i, "wall_samples_s": walls,
              "wall_upper": upper_percentile(walls) if tracer is None else None,
              "cpu_samples_s": cpus, "setup_samples_s": setup, "ops_failed_frac": failed / attempted,
              "problems": problems[:50], "metrics": metrics}
    if tracer is not None:
        detail["layer_checks"] = layer_checks(args.workload, metrics)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)

    print("provenance " + json.dumps(prov))
    for msg in problems[:10]:
        print("problem " + msg)
    for name, m in metrics.items():
        print(f"metric {args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"metric {args.workload} ops_failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    print(f"samples {args.workload} calls={i} upper={json.dumps(detail['wall_upper'])}")
    if tracer is not None:
        print(f"layers {args.workload} " + json.dumps(detail["layer_checks"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, then one summary table."""
    results, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        frac = res["failed"] / res["attempted"]
        cells = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()]
        print(f"summary {name:16s} " + "  ".join(cells) + f"  ops_failed_frac={frac:.4g} ratio")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
