"""How far corrmatch's values move between two commits, run by run and
call by call.

    python tools/drift.py BASE HEAD [MODULE.FUNCTION ...]

Extracts each commit with ``git archive`` into a temporary directory
and, in a fresh interpreter per commit, runs the seven pinned tiny runs
and the experiments of acceptance criteria 07-10 (``TINY_RUNS`` and
``CRITERION_RUNS`` of this tree's ``tests/pinned_runs.py``) on that
commit's corrmatch. Every call of each named function (e.g.
``clustering.fit_gmm``, ``embedding.ase``) is recorded, in every
corrmatch module that holds it, with its output keyed by the SHA-256 of
its input; the two commits are compared on the inputs they share.

For every float column of every table, and every output leaf of every
recorded function, the report gives the number of values compared, how
many are exactly equal, and the largest absolute and relative change
(relative to the largest magnitude in the base column or leaf). Then it
lists every changed decision: a changed rejection count, a flipped
label or other integer output, an output whose length changed (an EM
trace that stopped at another iteration), a sign change of an ARI gap
between two variants, and a table whose rows differ. The criterion runs
take a few minutes per commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import io
import itertools
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# table columns that a run measures; every other column identifies the row
MEASURES = ("mean", "se", "mean_ari", "power", "std_err")


# -- recording, in the interpreter of one commit --------------------------

def _digest(obj, h) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"ndarray{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.random.Generator):
        h.update(repr(obj.bit_generator.state).encode())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _digest(getattr(obj, f.name), h)
    elif isinstance(obj, (tuple, list)):
        h.update(f"{type(obj).__name__}{len(obj)}".encode())
        for item in obj:
            _digest(item, h)
    elif isinstance(obj, dict):
        h.update(f"dict{len(obj)}".encode())
        for key in sorted(obj):
            h.update(repr(key).encode())
            _digest(obj[key], h)
    else:
        h.update(repr(obj).encode())


def input_key(args: tuple, kwargs: dict) -> str:
    """SHA-256 of a call's arguments, generators by their state."""
    h = hashlib.sha256()
    _digest((args, kwargs), h)
    return h.hexdigest()


def leaves(obj, path: str = "") -> dict[str, np.ndarray]:
    """An output as named arrays: dataclass fields, dict keys and tuple
    positions become dotted paths; a sequence of numbers is one array."""
    def at(name) -> str:
        return f"{path}.{name}" if path else str(name)

    if dataclasses.is_dataclass(obj):
        items = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    elif isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (tuple, list)) and not all(np.isscalar(v) for v in obj):
        items = enumerate(obj)
    else:
        return {path or "out": np.array(obj)}
    out = {}
    for name, value in items:
        out.update(leaves(value, at(name)))
    return out


def record(out_path: str, names: list[str]) -> None:
    """Run every table with ``names`` recorded; pickle the tables and calls."""
    import corrmatch
    from pinned_runs import CRITERION_RUNS, TINY_RUNS

    runs = {**{f"tiny/{name}": run for name, run in sorted(TINY_RUNS.items())},
            **CRITERION_RUNS}
    calls: dict[str, dict[str, dict]] = {}
    for name in names:
        module_name, attr = name.rsplit(".", 1)
        original = getattr(importlib.import_module(f"corrmatch.{module_name}"), attr)
        store = calls.setdefault(name, {})

        def recorder(*args, _original=original, _store=store, **kwargs):
            key = input_key(args, kwargs)
            result = _original(*args, **kwargs)
            _store.setdefault(key, leaves(result))
            return result

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("corrmatch"):
                for held, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, held, recorder)
    tables = {}
    for run_name, run in runs.items():
        start = time.perf_counter()
        tables[run_name] = run()
        print(f"  {run_name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    with open(out_path, "wb") as f:
        pickle.dump({"corrmatch": corrmatch.__file__, "tables": tables, "calls": calls}, f)


# -- comparison --------------------------------------------------------------

@dataclasses.dataclass
class Summary:
    """Values compared, how many exactly equal, largest changes."""
    values: int = 0
    equal: int = 0
    max_abs: float = 0.0
    max_rel: float = 0.0

    def add(self, base, head) -> None:
        base = np.asarray(base, dtype=np.float64)
        head = np.asarray(head, dtype=np.float64)
        same = (base == head) | (np.isnan(base) & np.isnan(head))
        self.values += base.size
        self.equal += int(same.sum())
        if same.all():
            return
        with np.errstate(invalid="ignore"):
            change = np.where(same, 0.0, np.abs(head - base))
        change = np.where(np.isnan(change), np.inf, change)
        finite = np.abs(base[np.isfinite(base)])
        scale = float(finite.max()) if finite.size else 0.0
        biggest = float(change.max())
        self.max_abs = max(self.max_abs, biggest)
        self.max_rel = max(self.max_rel, biggest / scale if scale > 0 else np.inf)


def compare_tables(base: dict, head: dict):
    """Per (run, float column) summaries and the changed decisions of two
    sets of tables (run name -> list of row dicts)."""
    summaries: dict[tuple[str, str], Summary] = {}
    decisions: list[str] = []
    for run in sorted(set(base) | set(head)):
        rows_b, rows_h = base.get(run), head.get(run)
        idents = [[{k: v for k, v in r.items() if k not in MEASURES} for r in rows]
                  for rows in (rows_b or [], rows_h or [])]
        if rows_b is None or rows_h is None or idents[0] != idents[1]:
            decisions.append(f"{run}: rows differ")
            continue
        for col, value in (rows_b[0].items() if rows_b else ()):
            if isinstance(value, float):
                summary = summaries[(run, col)] = Summary()
                summary.add([r[col] for r in rows_b], [r[col] for r in rows_h])
        for rb, rh in zip(rows_b, rows_h):
            if "power" in rb and rb["power"] != rh["power"]:
                ident = {k: v for k, v in rb.items() if k not in MEASURES + ("experiment",)}
                decisions.append(f"{run} {ident}: rejections {rb['power'] * rb['mc_reps']:.0f}"
                                 f" -> {rh['power'] * rh['mc_reps']:.0f}")
        decisions += _ari_gap_flips(run, rows_b, rows_h)
    return summaries, decisions


def _ari_gap_flips(run: str, rows_b: list, rows_h: list) -> list[str]:
    groups: dict[tuple, list] = {}
    for rb, rh in zip(rows_b, rows_h):
        if "mean_ari" in rb:
            cell = tuple((k, v) for k, v in rb.items() if k not in MEASURES + ("variant",))
            groups.setdefault(cell, []).append((rb["variant"], rb["mean_ari"], rh["mean_ari"]))
    flips = []
    for cell, variants in groups.items():
        for (v1, b1, h1), (v2, b2, h2) in itertools.combinations(variants, 2):
            if np.sign(b1 - b2) != np.sign(h1 - h2):
                where = {k: v for k, v in cell if k != "experiment"}
                flips.append(f"{run} {where}: sign of ARI gap {v1} - {v2} "
                             f"{b1 - b2:+.3g} -> {h1 - h2:+.3g}")
    return flips


def compare_calls(base: dict, head: dict):
    """Per (function, output leaf) summaries, per function input counts
    (base, head, shared) and the changed decisions of two call records
    (function -> input key -> leaves)."""
    summaries: dict[tuple[str, str], Summary] = {}
    counts: dict[str, tuple[int, int, int]] = {}
    decisions: list[str] = []
    for func in sorted(set(base) | set(head)):
        calls_b, calls_h = base.get(func, {}), head.get(func, {})
        shared = sorted(set(calls_b) & set(calls_h))
        counts[func] = (len(calls_b), len(calls_h), len(shared))
        for key in shared:
            for leaf, vb in calls_b[key].items():
                vh = calls_h[key].get(leaf)
                where = f"{func} input {key[:12]} {leaf}"
                if vh is None or vb.shape != vh.shape:
                    got = "missing" if vh is None else vh.shape
                    decisions.append(f"{where}: shape {vb.shape} -> {got}")
                    continue
                summaries.setdefault((func, leaf), Summary()).add(vb, vh)
                if vb.dtype.kind not in "fc" and (flipped := int((vb != vh).sum())):
                    decisions.append(f"{where}: {flipped} of {vb.size} values changed")
    return summaries, counts, decisions


def report(base: dict, head: dict) -> str:
    """The drift report of two recordings (``record``'s pickled dicts)."""
    table_sums, table_decisions = compare_tables(base["tables"], head["tables"])
    call_sums, counts, call_decisions = compare_calls(base["calls"], head["calls"])
    decisions = table_decisions + call_decisions
    header = f"{'':44} {'values':>7} {'equal':>7} {'max abs':>10} {'max rel':>10}"

    def line(name: str, s: Summary) -> str:
        return f"{name:44} {s.values:7d} {s.equal:7d} {s.max_abs:10.3g} {s.max_rel:10.3g}"

    out = ["tables", header]
    out += [line(f"{run} {col}", s) for (run, col), s in sorted(table_sums.items())]
    for func, (n_base, n_head, n_shared) in counts.items():
        out += ["", f"{func}: {n_base} inputs at base, {n_head} at head, {n_shared} shared",
                header]
        out += [line(f"  {leaf}", s) for (f, leaf), s in sorted(call_sums.items()) if f == func]
    out += ["", f"changed decisions: {len(decisions) or 'none'}"]
    out += [f"  {d}" for d in decisions]
    changed = sum(s.values - s.equal for s in [*table_sums.values(), *call_sums.values()])
    unshared = sum(b + h - 2 * s for b, h, s in counts.values())
    zero = not (changed or unshared or decisions)
    out.append("drift: none" if zero else
               f"drift: {changed} changed values, {unshared} unshared inputs, "
               f"{len(decisions)} changed decisions")
    return "\n".join(out)


# -- command line ------------------------------------------------------------

def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _record_commit(rev: str, names: list[str], checkout: Path) -> dict:
    checkout.mkdir()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(checkout, filter="data")
    out = checkout.with_suffix(".pickle")
    code = "import sys, drift; drift.record(sys.argv[1], sys.argv[2:])"
    env = {**os.environ, "PYTHONPATH": f"{checkout / 'src'}:{ROOT / 'tools'}:{ROOT / 'tests'}"}
    subprocess.run([sys.executable, "-c", code, str(out), *names], cwd=checkout, env=env,
                   check=True)
    with open(out, "rb") as f:
        recorded = pickle.load(f)  # written just now by our own child process
    if not Path(recorded["corrmatch"]).resolve().is_relative_to(checkout.resolve()):
        raise RuntimeError(f"{rev} ran {recorded['corrmatch']}, not its own checkout")
    return recorded


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base_rev, head_rev, names = argv[0], argv[1], argv[2:]
    shas = [_git("rev-parse", "--short", f"{rev}^{{commit}}").decode().strip()
            for rev in (base_rev, head_rev)]
    with tempfile.TemporaryDirectory(prefix="drift-") as tmp:
        recorded = []
        for side, rev, sha in zip(("base", "head"), (base_rev, head_rev), shas):
            print(f"{side} {rev} ({sha})", file=sys.stderr)
            recorded.append(_record_commit(sha, names, Path(tmp) / side))
    print(f"drift from {base_rev} ({shas[0]}) to {head_rev} ({shas[1]}), "
          f"recording {', '.join(names) or 'no function'}")
    print(report(*recorded))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
