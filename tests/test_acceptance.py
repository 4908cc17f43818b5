"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo
criteria use fixed master seeds and desk-scale replicate counts; the
whole module takes a few minutes single-threaded.
"""

import itertools
import json
import math
import time

import numpy as np

from corrmatch import (
    BlockPartition,
    RngStream,
    SbmParams,
    apply_permutation,
    brute_force_pair_mi,
    er_params,
    faq_match,
    three_block_params,
    fit_gmm,
    gm_objective,
    identity_permutation,
    mi_small_rho_ratio,
    procrustes_align,
    rho_sbm_mi,
    sample_edge_correlation,
    sample_rho_sbm,
    sample_uniform_permutation,
    solve_lap,
    transposition,
    transposition_delta,
    transposition_sweep,
)
from corrmatch.cli import main as cli_main
from pinned_runs import CRITERION_10_S_GRID, CRITERION_RUNS


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}  {name}  {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def random_graph(n, p, rng):
    u = rng.random((n, n))
    a = np.triu((u < p).astype(np.int8), k=1)
    return a + a.T


def test_criterion_01_mi_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 3))
        if k == 1 or n < 2:
            params = er_params(n, float(rng.uniform(0.02, 0.98)))
        else:
            n1 = int(rng.integers(1, n))
            lam = rng.uniform(0.02, 0.98, size=(2, 2))
            params = SbmParams(BlockPartition((n1, n - n1)), (lam + lam.T) / 2)
        rho = float(rng.choice([0.0, 0.25, 0.5, 0.9, 1.0]))
        worst = max(worst, abs(rho_sbm_mi(params, rho) - brute_force_pair_mi(params, rho)))
    elapsed = time.perf_counter() - start
    _criterion(1, "MI closed form vs enumeration oracle",
               worst < 1e-9 and elapsed < 10.0,
               f"max |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_small_rho_regime():
    ratios = {p: mi_small_rho_ratio(er_params(200, p), 0.01) for p in (0.3, 0.5)}
    ok = all(0.98 <= r <= 1.02 for r in ratios.values())
    _criterion(2, "small-correlation ratio in [0.98, 1.02]", ok,
               f"ratios {ratios}")


def test_criterion_03_lap_exactness():
    perms = np.array(list(itertools.permutations(range(7))))
    rows = np.arange(7)
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    exact = True
    for _ in range(1000):
        cost = rng.normal(size=(7, 7))
        perm, total = solve_lap(cost)
        brute = cost[rows, perms].sum(axis=1).min()
        if total != brute or cost[rows, perm].sum() != brute:
            exact = False
            break
    elapsed = time.perf_counter() - start
    _criterion(3, "LAP equals exhaustive minimum on 1000 random 7x7",
               exact and elapsed < 5.0, f"{elapsed:.1f}s")


def test_criterion_04_matchability_upper_side():
    params = three_block_params()
    ident = identity_permutation(150)
    start = time.perf_counter()
    results = {}
    zero_at_one = 0
    for rho in (0.5, 1.0):
        equal = 0
        for rep in range(50):
            gen = RngStream(104, rep + (0 if rho == 0.5 else 1000)).generator()
            a, b = sample_rho_sbm(params, rho, gen)
            res = faq_match(a, b, init="identity")
            base = gm_objective(a, b, ident)
            equal += int(res.objective == base)
            if rho == 1.0:
                zero_at_one += int(res.objective == 0)
        results[rho] = equal
    elapsed = time.perf_counter() - start
    ok = results[0.5] >= 45 and results[1.0] >= 45 and zero_at_one == 50 and elapsed < 600
    _criterion(4, "identity is a matching fixed point at rho in {1/2, 1}", ok,
               f"equal: rho=1/2 {results[0.5]}/50, rho=1 {results[1.0]}/50, "
               f"zero at rho=1 {zero_at_one}/50, {elapsed:.0f}s")


def test_criterion_05_matchability_lower_side():
    params = three_block_params()
    found_low = found_high = 0
    for rep in range(50):
        gen = RngStream(105, rep).generator()
        a, b = sample_rho_sbm(params, 0.02, gen)
        found, _, _ = transposition_sweep(a, b, params.partition)
        found_low += int(found)
        gen = RngStream(105, 1000 + rep).generator()
        a, b = sample_rho_sbm(params, 0.9, gen)
        found, _, _ = transposition_sweep(a, b, params.partition)
        found_high += int(found)
    ok = found_low >= 45 and (50 - found_high) >= 45
    _criterion(5, "improving within-block transposition at rho=0.02 only", ok,
               f"found at 0.02: {found_low}/50, found at 0.9: {found_high}/50")


def test_criterion_06_matching_induces_correlation():
    params = three_block_params()
    matched, shuffled = [], []
    for rep in range(100):
        gen = RngStream(106, rep).generator()
        a, b = sample_rho_sbm(params, 0.0, gen)
        res = faq_match(a, b, init="identity")
        matched.append(sample_edge_correlation(a, apply_permutation(b, res.permutation)))
        sigma = sample_uniform_permutation(150, gen)
        shuffled.append(sample_edge_correlation(a, apply_permutation(b, sigma)))
    gap = float(np.mean(matched) - np.mean(shuffled))
    _criterion(6, "matched correlation exceeds shuffled by >= 0.05 at rho=0", gap >= 0.05,
               f"gap {gap:.3f}")


def test_criterion_07_paired_test_power():
    start = time.perf_counter()
    rows = CRITERION_RUNS["criterion-07"]()
    elapsed = time.perf_counter() - start
    power = {(r["s"], r["x"], r["variant"]): r["power"] for r in rows}
    matched_cells = {(s, x): power[(s, x, "matched")]
                     for s in (10, 20, 30, 40) for x in (0, 10, 20, 30, 40, 50)}
    in_bracket = all(0.57 <= v <= 0.77 for v in matched_cells.values())
    paired_vs_pooled = abs(power[(0, 50, "paired")] - power[(0, 50, "pooled")]) <= 0.08
    shuffle_hurts = power[(0, 0, "paired")] > power[(0, 50, "paired")]
    ok = in_bracket and paired_vs_pooled and shuffle_hurts and elapsed < 900
    worst = min(matched_cells.values())
    _criterion(7, "paired/pooled/matched testing powers (desk scale)", ok,
               f"matched min {worst:.3f}, paired(0,0)={power[(0, 0, 'paired')]:.3f}, "
               f"paired(0,50)={power[(0, 50, 'paired')]:.3f}, "
               f"pooled(0,50)={power[(0, 50, 'pooled')]:.3f}, {elapsed:.0f}s")


def test_criterion_08_omnibus_anomaly_power():
    start = time.perf_counter()
    rows = CRITERION_RUNS["criterion-08"]()
    elapsed = time.perf_counter() - start
    power = {(r["x"], r["variant"]): r["power"] for r in rows}
    matched_beats = power[(75, "omni_matched")] > power[(75, "omni_shuffled")]
    constant = all(
        len({power[(x, kind)] for x in (0, 25, 50, 75)}) == 1
        for kind in ("max_degree", "triangles", "spectral")
    )
    ok = matched_beats and constant and elapsed < 1200
    _criterion(8, "omnibus anomaly test (desk scale)", ok,
               f"matched(75)={power[(75, 'omni_matched')]:.2f} > "
               f"omni(75)={power[(75, 'omni_shuffled')]:.2f}, invariants constant: "
               f"{constant}, {elapsed:.0f}s")


def test_criterion_09_joint_clustering_gain():
    rows = CRITERION_RUNS["criterion-09"]()
    by = {(r["rho"], r["variant"]): (r["mean_ari"], r["se"]) for r in rows}
    gaps = {}
    ok = True
    for rho in (0.1, 0.3, 0.5):
        omni, se_o = by[(rho, "omni")]
        single, se_s = by[(rho, "single")]
        gaps[rho] = omni - single
        ok = ok and omni > single
    sig = gaps[0.1] > 2.0 * math.hypot(by[(0.1, "omni")][1], by[(0.1, "single")][1])
    _criterion(9, "omnibus clustering beats single-graph clustering", ok and sig,
               f"gaps {dict((k, round(v, 3)) for k, v in gaps.items())}, "
               f"gap(0.1) significant: {sig}")


def test_criterion_10_shuffle_match_clustering():
    from scipy.stats import spearmanr
    rows = CRITERION_RUNS["criterion-10"]()
    s_grid = CRITERION_10_S_GRID
    assert sorted({r["s"] for r in rows}) == list(s_grid)
    by = {(r["s"], r["variant"]): r["mean_ari"] for r in rows}
    single_mean = float(np.mean([by[(s, "single")] for s in s_grid]))
    ordering = by[(0, "omni_shuffled")] < single_mean < by[(80, "omni_matched")]
    matched_curve = [by[(s, "omni_matched")] for s in s_grid]
    trend = spearmanr(s_grid, matched_curve).statistic
    ok = ordering and trend >= 0.0
    _criterion(10, "shuffling hurts clustering, matching recovers (desk scale)", ok,
               f"shuffled(0)={by[(0, 'omni_shuffled')]:.3f} < single={single_mean:.3f} < "
               f"matched(80)={by[(80, 'omni_matched')]:.3f}, trend={trend:.2f}")


def test_criterion_11_numerical_invariants():
    rng = np.random.default_rng(111)
    fw_ok = True
    for i in range(100):
        a = random_graph(18, 0.4, rng)
        b = random_graph(18, 0.4, rng)
        init = "barycenter" if i % 2 == 0 else "identity"
        trace = faq_match(a, b, init=init).objective_trace
        fw_ok = fw_ok and all(t2 >= t1 - 1e-9 for t1, t2 in zip(trace, trace[1:]))

    em_ok = True
    for i in range(100):
        x = np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + 2.0])
        model, _ = fit_gmm(x, 2, RngStream(111, i), restarts=1)
        t = model.loglik_trace
        em_ok = em_ok and all(t2 >= t1 - 1e-8 for t1, t2 in zip(t, t[1:]))

    delta_ok = True
    ident = identity_permutation(10)
    for _ in range(1000):
        a = random_graph(10, 0.5, rng)
        b = random_graph(10, 0.5, rng)
        i, j = (int(v) for v in rng.choice(10, size=2, replace=False))
        direct = gm_objective(a, b, transposition(10, i, j)) - gm_objective(a, b, ident)
        if transposition_delta(a, b, i, j) != direct:
            delta_ok = False
            break

    proc_ok = True
    for _ in range(100):
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=(12, 3))
        w, _ = procrustes_align(x, y)
        proc_ok = proc_ok and np.linalg.norm(w.T @ w - np.eye(3)) < 1e-9

    _criterion(11, "Frank-Wolfe / EM monotone, delta exact, Procrustes orthogonal",
               fw_ok and em_ok and delta_ok and proc_ok,
               f"fw={fw_ok} em={em_ok} delta={delta_ok} procrustes={proc_ok}")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == 0, f"command failed: {argv}"
        return out

    cfg = tmp_path / "er.json"
    cfg.write_text(json.dumps({"n": 18, "p": 0.4, "rho": 0.6}))
    sbm_cfg = tmp_path / "sbm.json"
    sbm_cfg.write_text(json.dumps({"sizes": [10, 10], "lambda": [[0.6, 0.1], [0.1, 0.6]]}))

    artifacts = {}
    for run_id in ("r1", "r2"):
        base = tmp_path / run_id
        base.mkdir()
        files = {}

        run(["sample", "--model", "rho-er", "--config", str(cfg), "--seed", "7",
             "--shuffle", "uniform",
             "--out-a", str(base / "a.edg"), "--out-b", str(base / "b.edg"),
             "--out-perm", str(base / "sigma.txt")])
        files["sample_a"] = (base / "a.edg").read_bytes()
        files["sample_b"] = (base / "b.edg").read_bytes()
        files["sample_perm"] = (base / "sigma.txt").read_bytes()

        run(["match", "--a", str(base / "a.edg"), "--b", str(base / "b.edg"),
             "--seed", "7", "--out-perm", str(base / "match.txt"),
             "--report", str(base / "report.json")])
        files["match_perm"] = (base / "match.txt").read_bytes()
        files["match_report"] = (base / "report.json").read_bytes()

        files["mi_stdout"] = run(["mi", "--n", "3", "--p", "0.5", "--rho", "1.0"])

        run(["exp", "phase-transition", "--config", str(sbm_cfg), "--mc", "3",
             "--seed", "5", "--rho-grid", "0,1", "-o", str(base / "phase.csv")])
        files["phase"] = (base / "phase.csv").read_bytes()

        run(["exp", "power-er", "--p", "0.5", "--q", "0.3", "--n", "14",
             "--rho", "0.4", "--s-grid", "0,14", "--x-grid", "0,7",
             "--alpha", "0.1", "--n-null", "19", "--mc", "5", "--seed", "5",
             "-o", str(base / "power_er.csv")])
        files["power_er"] = (base / "power_er.csv").read_bytes()

        run(["exp", "power-omni", "--n", "16", "--d", "3", "--anomalous", "4",
             "--x-grid", "0,8", "--alpha", "0.1", "--n-null", "19", "--mc", "4",
             "--seed", "5", "-o", str(base / "power_omni.csv")])
        files["power_omni"] = (base / "power_omni.csv").read_bytes()

        run(["exp", "cluster", "--config", str(sbm_cfg), "--rho-grid", "0.4",
             "--mc", "2", "--seed", "5", "-o", str(base / "cluster_gain.csv")])
        files["cluster_gain"] = (base / "cluster_gain.csv").read_bytes()

        run(["exp", "cluster", "--config", str(sbm_cfg), "--rho", "0.5",
             "--seeds-grid", "0,20", "--mc", "2", "--seed", "5",
             "-o", str(base / "cluster_shuffle.csv")])
        files["cluster_shuffle"] = (base / "cluster_shuffle.csv").read_bytes()

        from corrmatch import write_labels
        labels = tmp_path / f"labels_{run_id}.txt"
        write_labels(labels, [0] * 9 + [1] * 9)
        run(["cluster-real", "--a", str(base / "a.edg"), "--b", str(base / "b.edg"),
             "--labels", str(labels), "--d", "2", "--k", "2", "--seeds-grid", "0,18",
             "--mc", "2", "--seed", "5", "-o", str(base / "real.csv")])
        files["real"] = (base / "real.csv").read_bytes()

        artifacts[run_id] = files

    mismatched = [k for k in artifacts["r1"] if artifacts["r1"][k] != artifacts["r2"][k]]
    _criterion(12, "CLI reruns are byte-identical for fixed --seed",
               not mismatched, f"mismatched: {mismatched or 'none'}")
