"""The benchmark's workloads: fixed parameters, one timed call, and the
output checks.

Each workload call ``i`` of a run with seed ``seed`` draws its inputs
from ``derive_seed(seed, i)``, so a seed fixes every input of the run.
Calls go through the ``corrmatch`` package attributes at call time, so
an installed ``tracer.Tracer`` sees them.

Ops, the unit of ``attempted`` and ``failed``: one output table row for
the two experiments, one sampled-and-matched pair for match-cli.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FLOAT_REL_TOL = 1e-9  # last-digit float reordering only; see spec.json

PARAMS = {
    "cluster-shuffle": {
        "full": {"sizes": [50, 50], "lambda": [[0.1, 0.05], [0.05, 0.2]], "rho": 0.5,
                 "s_grid": [0, 20, 40, 60, 80], "d": 2, "k": 2, "mc_reps": 1},
        "tiny": {"sizes": [15, 15], "lambda": [[0.1, 0.05], [0.05, 0.2]], "rho": 0.5,
                 "s_grid": [0, 10], "d": 2, "k": 2, "mc_reps": 1},
    },
    "omni-anomaly": {
        "full": {"n": 100, "d": 3, "num_anomalous": 20, "mix_w": 0.2,
                 "x_grid": [0, 25, 50, 75], "alpha": 0.05, "mc_reps": 2, "n_null": 20},
        "tiny": {"n": 20, "d": 2, "num_anomalous": 4, "mix_w": 0.2,
                 "x_grid": [0, 5], "alpha": 0.05, "mc_reps": 1, "n_null": 20},
    },
    # pairs: (rho, --max-iters, must recover the planted permutation)
    "match-cli": {
        "full": {"n": 1000, "p": 0.1, "seeds": 50,
                 "pairs": [[0.6, 100, True]] * 4 + [[0.3, 16, False]]},
        "tiny": {"n": 60, "p": 0.3, "seeds": 10,
                 "pairs": [[0.9, 100, True], [0.3, 16, False]]},
    },
}

CLUSTER_SCHEMA = ("experiment", "s", "variant", "mean_ari", "se", "mc_reps", "master_seed")
CLUSTER_VARIANTS = ("omni_shuffled", "single", "omni_matched")
OMNI_SCHEMA = ("experiment", "x", "variant", "power", "std_err", "mc_reps", "master_seed")
OMNI_VARIANTS = ("omni_shuffled", "omni_matched", "max_degree", "triangles", "spectral")
INVARIANT_VARIANTS = ("max_degree", "triangles", "spectral")


def derive_seed(seed: int, i: int) -> int:
    """Master seed of call i of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _same(x, y) -> bool:
    if isinstance(x, float) or isinstance(y, float):
        return (isinstance(x, (int, float)) and isinstance(y, (int, float))
                and math.isclose(x, y, rel_tol=FLOAT_REL_TOL, abs_tol=1e-12))
    return x == y


def _load_reference(name: str, size: str, seed: int):
    path = REFERENCE_DIR / f"{size}-{name}.json"
    if seed != REFERENCE_SEED or not path.is_file():
        return []
    with open(path) as fh:
        return json.load(fh)["calls"]


class Outcome:
    """Check result of one call: per-op pass/fail, problems, and a
    fingerprint of the outputs for reference comparison."""

    def __init__(self, ok: list[bool], problems: list[str], fingerprint):
        self.ok, self.problems, self.fingerprint = ok, problems, fingerprint

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


class Workload:
    name = ""

    def __init__(self, cm, size: str, seed: int, workdir: Path):
        self.cm, self.seed, self.workdir = cm, seed, Path(workdir)
        self.p = PARAMS[self.name][size]
        self.reference = _load_reference(self.name, size, seed)

    def check(self, i: int, result) -> Outcome:
        if isinstance(result, BaseException):
            return Outcome([False] * self.ops_per_call(),
                           [f"call {i}: {type(result).__name__}: {result}"], None)
        out = self._check(i, result)
        if i < len(self.reference):
            self._compare_reference(i, out)
        return out

    def _compare_reference(self, i: int, out: Outcome) -> None:
        ref = self.reference[i]
        got = out.fingerprint
        if len(ref) != len(got):
            out.ok = [False] * len(out.ok)
            out.problems.append(f"call {i}: {len(got)} outputs, reference has {len(ref)}")
            return
        for j, (g, r) in enumerate(zip(got, ref)):
            same = g.keys() == r.keys() and all(_same(g[k], r[k]) for k in r)
            if not same:
                out.ok[j] = False
                out.problems.append(f"call {i} op {j}: differs from reference: {g} != {r}")


class _TableWorkload(Workload):
    """An experiment returning a fixed-schema table: one row per grid
    value and variant, in that order."""

    experiment = ""  # the table's "experiment" column
    schema: tuple = ()
    variants: tuple = ()
    grid_param = ""  # parameter holding the grid
    grid_col = ""  # table column holding the grid value

    def ops_per_call(self) -> int:
        return len(self.p[self.grid_param]) * len(self.variants)

    def _check(self, i: int, rows) -> Outcome:
        master = derive_seed(self.seed, i)
        expected = [(g, v) for g in self.p[self.grid_param] for v in self.variants]
        problems = []
        if len(rows) != len(expected):
            problems.append(f"call {i}: {len(rows)} rows, expected {len(expected)}")
        ok = [False] * len(expected)
        for j, row in enumerate(rows[:len(expected)]):
            why = self._row_problem(row, expected[j], master)
            if why:
                problems.append(f"call {i} row {j}: {why}: {row}")
            else:
                ok[j] = True
        problems += self._table_problems(i, rows, ok)
        fingerprint = [{k: row[k] for k in self.schema} for row in rows
                       if tuple(row) == self.schema]
        return Outcome(ok, problems, fingerprint)

    def _row_problem(self, row, key, master) -> str:
        if tuple(row) != self.schema:
            return "schema"
        if (row[self.grid_col], row["variant"]) != key:
            return "row order"
        if row["experiment"] != self.experiment:
            return "experiment name"
        if row["mc_reps"] != self.p["mc_reps"] or row["master_seed"] != master:
            return "echoed parameters"
        return self._value_problem(row)

    def _table_problems(self, i, rows, ok) -> list[str]:
        return []


class ClusterShuffle(_TableWorkload):
    """shuffle_cluster_experiment on acceptance criterion 10's model."""

    name = "cluster-shuffle"
    experiment = "cluster-shuffle"
    schema = CLUSTER_SCHEMA
    variants = CLUSTER_VARIANTS
    grid_param, grid_col = "s_grid", "s"

    def call(self, i: int):
        cm, p = self.cm, self.p
        params = cm.SbmParams(cm.BlockPartition(tuple(p["sizes"])), np.array(p["lambda"]))
        return cm.shuffle_cluster_experiment(params, rho=p["rho"], s_grid=p["s_grid"], d=p["d"],
                                             k=p["k"], mc_reps=p["mc_reps"],
                                             master_seed=derive_seed(self.seed, i))

    def _value_problem(self, row) -> str:
        ari, se = row["mean_ari"], row["se"]
        if not (math.isfinite(ari) and -1.0 <= ari <= 1.0):
            return "mean_ari outside [-1, 1]"
        if not (math.isfinite(se) and se >= 0.0) or (self.p["mc_reps"] == 1 and se != 0.0):
            return "se"
        return ""


class OmniAnomaly(_TableWorkload):
    """power_omni_experiment at the CLI defaults."""

    name = "omni-anomaly"
    experiment = "power-omni"
    schema = OMNI_SCHEMA
    variants = OMNI_VARIANTS
    grid_param, grid_col = "x_grid", "x"

    def call(self, i: int):
        p = self.p
        return self.cm.power_omni_experiment(
            n=p["n"], d=p["d"], num_anomalous=p["num_anomalous"], mix_w=p["mix_w"],
            x_grid=p["x_grid"], alpha=p["alpha"], mc_reps=p["mc_reps"], n_null=p["n_null"],
            master_seed=derive_seed(self.seed, i))

    def _value_problem(self, row) -> str:
        mc, power = self.p["mc_reps"], row["power"]
        if not 0.0 <= power <= 1.0 or abs(power * mc - round(power * mc)) > 1e-9:
            return "power is not a rejection fraction"
        if not math.isclose(row["std_err"], math.sqrt(power * (1.0 - power) / mc),
                            rel_tol=1e-12, abs_tol=1e-15):
            return "std_err"
        return ""

    def _table_problems(self, i, rows, ok) -> list[str]:
        # label-free invariant tests are constant across x by construction
        problems = []
        first = {r["variant"]: r["power"] for r in rows[:len(self.variants)]}
        for j, row in enumerate(rows[:len(ok)]):
            v = row.get("variant")
            if v in INVARIANT_VARIANTS and row.get("power") != first.get(v):
                ok[j] = False
                problems.append(f"call {i} row {j}: invariant power varies with x")
        return problems


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_adjacency(path, n: int) -> np.ndarray:
    edges = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2).reshape(-1, 2)
    a = np.zeros((n, n), dtype=np.int64)
    a[edges[:, 0], edges[:, 1]] = 1
    a[edges[:, 1], edges[:, 0]] = 1
    return a


def _read_ints(path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, ndmin=1)


class MatchCli(Workload):
    """Rounds of ``corrmatch sample`` then ``corrmatch match``, in-process."""

    name = "match-cli"

    def __init__(self, cm, size, seed, workdir):
        super().__init__(cm, size, seed, workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        p = self.p
        self.protect = self.workdir / "protect.txt"
        self.seeds_file = self.workdir / "seeds.txt"
        self.protect.write_text("".join(f"{u}\n" for u in range(p["seeds"])))
        self.seeds_file.write_text("".join(f"{u} {u}\n" for u in range(p["seeds"])))
        self.files = []
        for j, (rho, _, _) in enumerate(p["pairs"]):
            f = {k: self.workdir / f"pair{j}-{k}" for k in
                 ("config.json", "a.txt", "b.txt", "sigma.txt", "phi.txt", "report.json")}
            f["config.json"].write_text(json.dumps({"n": p["n"], "p": p["p"], "rho": rho}))
            self.files.append(f)

    def ops_per_call(self) -> int:
        return len(self.p["pairs"])

    def call(self, i: int):
        main = self.cm.cli.main
        codes = []
        for j, (_, max_iters, _) in enumerate(self.p["pairs"]):
            f = {k: str(v) for k, v in self.files[j].items()}
            pair_seed = derive_seed(self.seed, i * len(self.p["pairs"]) + j)
            rc_sample = main(["sample", "--model", "rho-er", "--config", f["config.json"],
                              "--seed", str(pair_seed), "--shuffle", "subset",
                              "--protect-file", str(self.protect), "--out-a", f["a.txt"],
                              "--out-b", f["b.txt"], "--out-perm", f["sigma.txt"]])
            rc_match = main(["match", "--a", f["a.txt"], "--b", f["b.txt"],
                             "--seeds", str(self.seeds_file), "--max-iters", str(max_iters),
                             "--out-perm", f["phi.txt"], "--report", f["report.json"]])
            codes.append((rc_sample, rc_match))
        return codes

    def _check(self, i: int, codes) -> Outcome:
        ok, problems, fingerprint = [], [], []
        for j, (rc, f) in enumerate(zip(codes, self.files)):
            try:
                why, fp = self._check_pair(j, rc, f)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                why, fp = f"unreadable output: {exc}", {}
            ok.append(not why)
            if why:
                problems.append(f"call {i} pair {j}: {why}")
            fingerprint.append(fp)
        return Outcome(ok, problems, fingerprint)

    def _check_pair(self, j, rc, f):
        n, s = self.p["n"], self.p["seeds"]
        if rc != (0, 0):
            return f"exit codes {rc}", {}
        report = json.loads(f["report.json"].read_text())
        fp = dict(report, phi_sha256=_sha256(f["phi.txt"]))
        phi = _read_ints(f["phi.txt"])
        sigma = _read_ints(f["sigma.txt"])
        if phi.shape != (n,) or not np.array_equal(np.sort(phi), np.arange(n)):
            return "permutation is not a bijection", fp
        if not np.array_equal(phi[:s], np.arange(s)):
            return "a seed vertex moved", fp
        a = _read_adjacency(f["a.txt"], n)
        b = _read_adjacency(f["b.txt"], n)
        inv = np.argsort(phi)
        objective = int(((a - b[np.ix_(inv, inv)]) ** 2).sum())  # ||A - P B P^T||_F^2
        if report["objective"] != objective:
            return f"objective {report['objective']} != recomputed {objective}", fp
        if report["disagreements_after"] != objective // 2:
            return "disagreements_after != objective // 2", fp
        if report["disagreements_before"] != int(np.abs(a - b).sum()) // 2:
            return "disagreements_before", fp
        if report["seeds"] != s:
            return "seed count", fp
        if self.p["pairs"][j][2] and not np.array_equal(phi, np.argsort(sigma)):
            return "planted permutation not recovered", fp
        return "", fp


WORKLOADS = {w.name: w for w in (ClusterShuffle, OmniAnomaly, MatchCli)}


def make(cm, name: str, size: str, seed: int, workdir) -> Workload:
    return WORKLOADS[name](cm, size, seed, workdir)


def warmup(cm, name: str, workdir) -> None:
    """One tiny call of the workload: the warm-up part of setup_s."""
    make(cm, name, "tiny", 1, workdir).call(0)
