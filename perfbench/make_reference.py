#!/usr/bin/env python3
"""Regenerate the reference outputs compared at the reference seed.

    python3 perfbench/make_reference.py --size full
    python3 perfbench/make_reference.py --size tiny

Writes reference/<size>-<workload>.json with the output fingerprints of
the first calls of a run at ``workloads.REFERENCE_SEED``. Refuses to
write if any seed-independent output check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

CALLS = {"full": {"cluster-shuffle": 30, "omni-anomaly": 30, "match-cli": 4},
         "tiny": {"cluster-shuffle": 3, "omni-anomaly": 3, "match-cli": 3}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--size", choices=tuple(CALLS), required=True)
    args = ap.parse_args(argv)
    cm = run.load_library()
    import workloads

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    for name, n_calls in CALLS[args.size].items():
        workdir = run.OUT / f"tmp-reference-{name}"
        wl = workloads.make(cm, name, args.size, workloads.REFERENCE_SEED, workdir)
        wl.reference = []
        calls = []
        for i in range(n_calls):
            out = wl.check(i, wl.call(i))
            if out.failed:
                sys.stderr.write("\n".join(out.problems) + "\n")
                return 1
            calls.append(out.fingerprint)
        shutil.rmtree(workdir, ignore_errors=True)
        path = workloads.REFERENCE_DIR / f"{args.size}-{name}.json"
        head = json.dumps({"workload": name, "size": args.size,
                           "seed": workloads.REFERENCE_SEED, "params": wl.p})
        with open(path, "w") as fh:  # one line per call
            fh.write(head[:-1] + ', "calls": [\n'
                     + ",\n".join(json.dumps(c) for c in calls) + "\n]}\n")
        print(f"wrote {path} ({n_calls} calls)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
