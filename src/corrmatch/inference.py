"""Two-sample test statistics, empirical null calibration, and the
Monte Carlo power experiments.

All tests are right-tailed on an absolute statistic (two-sided
alternatives). Critical values from Monte Carlo nulls use the
conservative finite-sample quantile: the ceil((1-alpha)(n_null+1))-th
order statistic of n_null null draws; a test rejects when its statistic
strictly exceeds the critical value.

Null calibration resamples graph pairs from the null model (never
permutations of a fixed observed pair), under the least favorable
shuffling level of the composite null: no shuffling for the paired
edge-density test, all unseeded vertices shuffled for the omnibus
anomaly test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from ._parallel import check_mc_reps, parallel_map
from .embedding import t2_omni
from .graphs import (
    apply_permutation,
    edge_disagreements,
    max_degree,
    sample_edge_correlation,
    spectral_norm,
    triangle_count,
)
from .matching import faq_match, identity_seeds, sgm_match
from .samplers import (
    BlockPartition,
    HeterogeneousPair,
    RngStream,
    SbmParams,
    _as_generator,
    anomaly_perturb,
    er_params,
    max_feasible_correlation,
    sample_correlated_heterogeneous,
    sample_dirichlet_positions,
    sample_rho_sbm,
    sample_subset_shuffle,
    sample_uniform_permutation,
)

# Disjoint stream-id blocks so replicate, calibration, and latent draws
# never collide within one experiment run.
_NULL_STREAM_BASE = 10_000_000
_SHUFFLE_STREAM_BASE = 20_000_000
_LATENT_STREAM_ID = 90_000_000

THREE_BLOCK_SIZES = (50, 50, 50)
THREE_BLOCK_LAMBDA = np.array([
    [0.5, 0.3, 0.2],
    [0.3, 0.5, 0.3],
    [0.2, 0.3, 0.5],
])
PHASE_RHO_GRID = (0.0, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0)


def three_block_params() -> SbmParams:
    return SbmParams(BlockPartition(THREE_BLOCK_SIZES), THREE_BLOCK_LAMBDA)


@dataclass(frozen=True)
class TestOutcome:
    statistic: float
    critical_value: float
    reject: bool
    alpha: float


def decide(statistic: float, critical_value: float, alpha: float) -> TestOutcome:
    return TestOutcome(statistic, critical_value, statistic > critical_value, alpha)


@dataclass(frozen=True)
class PowerEstimate:
    power: float
    mc_reps: int
    std_err: float

    @classmethod
    def from_rejections(cls, rejections: int, mc_reps: int) -> "PowerEstimate":
        p = rejections / mc_reps
        return cls(p, mc_reps, math.sqrt(p * (1.0 - p) / mc_reps))


# -- statistics --------------------------------------------------------------

def _edge_fractions(a: np.ndarray, b: np.ndarray) -> tuple[float, float, int]:
    if a.shape != b.shape:
        raise ValueError("graph size mismatch")
    n = a.shape[0]
    m = n * (n - 1) // 2
    p1 = int(a.sum()) // 2 / m
    p2 = int(b.sum()) // 2 / m
    return p1, p2, m


def pooled_z(a: np.ndarray, b: np.ndarray) -> float:
    """|two-proportion pooled z| on edge densities; 0 when the pooled
    density is degenerate (0 or 1)."""
    p1, p2, m = _edge_fractions(a, b)
    p = (p1 + p2) / 2.0
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return abs(p1 - p2) / math.sqrt(2.0 * p * (1.0 - p) / m)


def paired_z(a: np.ndarray, b: np.ndarray) -> float:
    """Paired z statistic: the pooled z denominator deflated by
    (1 - rho_hat), rho_hat the sample edge correlation.

    Equals pooled_z exactly when rho_hat = 0. At rho_hat = 1 the
    statistic is 0 for equal densities and +inf otherwise.
    """
    p1, p2, m = _edge_fractions(a, b)
    p = (p1 + p2) / 2.0
    if p <= 0.0 or p >= 1.0:
        return 0.0
    rho_hat = sample_edge_correlation(a, b)
    if rho_hat >= 1.0:
        return 0.0 if p1 == p2 else math.inf
    return abs(p1 - p2) / math.sqrt(2.0 * p * (1.0 - p) * (1.0 - rho_hat) / m)


_INVARIANTS = {
    "max_degree": max_degree,
    "triangles": triangle_count,
    "spectral": spectral_norm,
}


def invariant_stat(a: np.ndarray, b: np.ndarray, kind: str) -> float:
    """|invariant(a) - invariant(b)| for a label-free graph invariant."""
    try:
        fn = _INVARIANTS[kind]
    except KeyError:
        raise ValueError(f"kind must be one of {sorted(_INVARIANTS)}, got {kind!r}") from None
    return float(abs(fn(a) - fn(b)))


def empirical_critical_value(null_sampler, alpha: float, n_null: int, rng) -> float:
    """Conservative Monte Carlo critical value from n_null draws of the
    null statistic: the ceil((1-alpha)(n_null+1))-th order statistic."""
    if n_null < 1.0 / alpha:
        raise ValueError(f"need n_null >= 1/alpha = {1.0 / alpha:.1f}, got {n_null}")
    k = math.ceil((1.0 - alpha) * (n_null + 1))
    if k > n_null:
        raise ValueError("n_null too small for the requested alpha")
    gen = _as_generator(rng)
    draws = np.array([float(null_sampler(gen)) for _ in range(n_null)])
    return float(np.sort(draws)[k - 1])


def _critical_from_draws(draws: np.ndarray, alpha: float) -> float:
    n_null = draws.shape[0]
    if n_null < 1.0 / alpha:
        raise ValueError(f"need n_null >= 1/alpha, got {n_null}")
    k = math.ceil((1.0 - alpha) * (n_null + 1))
    if k > n_null:
        raise ValueError("n_null too small for the requested alpha")
    return float(np.sort(draws)[k - 1])


# -- experiments -------------------------------------------------------------

def phase_transition_experiment(mc_reps: int = 200, master_seed: int = 0,
                                rho_grid=PHASE_RHO_GRID, params: SbmParams | None = None,
                                max_iters: int = 100, threads: int = 1) -> list[dict]:
    """Matchability phase transition: edge disagreements at the latent
    alignment versus after matching from it, and the edge correlation
    induced by matching versus shuffling."""
    check_mc_reps(mc_reps)
    if params is None:
        params = three_block_params()
    n = params.n
    rows = []
    for r_idx, rho in enumerate(rho_grid):
        rho = float(rho)

        def one_rep(rep: int) -> tuple[float, float, float, float]:
            gen = RngStream(master_seed, r_idx * mc_reps + rep).generator()
            a, b = sample_rho_sbm(params, rho, gen)
            dis_id = edge_disagreements(a, b)
            res = faq_match(a, b, init="identity", max_iters=max_iters)
            matched = apply_permutation(b, res.permutation)
            corr_matched = sample_edge_correlation(a, matched)
            sigma = sample_uniform_permutation(n, gen)
            corr_shuffled = sample_edge_correlation(a, apply_permutation(b, sigma))
            return dis_id, res.objective / 2.0, corr_matched, corr_shuffled

        vals = np.array(parallel_map(one_rep, range(mc_reps), threads))
        variants = ("disagreements_identity", "disagreements_matched",
                    "correlation_matched", "correlation_shuffled")
        for col, variant in enumerate(variants):
            mean = float(vals[:, col].mean())
            se = float(vals[:, col].std(ddof=1) / math.sqrt(mc_reps)) if mc_reps > 1 else 0.0
            rows.append({
                "experiment": "phase-transition", "rho": rho, "variant": variant,
                "mean": mean, "se": se, "mc_reps": mc_reps, "master_seed": master_seed,
            })
    return rows


def _constant_pq_pair(n: int, p: float, q: float, rho: float) -> HeterogeneousPair:
    off = 1.0 - np.eye(n)
    return HeterogeneousPair(p * off, q * off, rho * off)


def power_er_experiment(p: float = 0.4, q: float = 0.375, n: int = 50, rho: float = 0.7,
                        s_grid=(0, 10, 20, 30, 40, 50), x_grid=(0, 10, 20, 30, 40, 50),
                        alpha: float = 0.05, mc_reps: int = 500, n_null: int = 999,
                        master_seed: int = 0, null_edge_p: float | None = None,
                        threads: int = 1) -> list[dict]:
    """Power of the paired, pooled, and matched edge-density tests when
    at most min(n-s, x) of the n-s unseeded vertices are shuffled.

    The paired and matched tests are calibrated by resampling the null
    model (equal edge densities, same correlation, no shuffling: the
    least favorable level); the pooled test uses the plain normal
    critical value, i.e. no type-I correction for pairing. Seeds occupy
    the leading s vertices, without loss of generality under the
    exchangeable null and alternative.
    """
    check_mc_reps(mc_reps)
    if max_feasible_correlation(p, q) < rho:
        raise ValueError(f"rho={rho} infeasible for marginals ({p}, {q})")
    p0 = (p + q) / 2.0 if null_edge_p is None else float(null_edge_p)
    null_params = er_params(n, p0)
    alt_spec = _constant_pq_pair(n, p, q, rho)
    s_grid = [int(s) for s in s_grid]
    x_grid = [int(x) for x in x_grid]

    def paired_null(j: int) -> float:
        gen = RngStream(master_seed, _NULL_STREAM_BASE + j).generator()
        a, b = sample_rho_sbm(null_params, rho, gen)
        return paired_z(a, b)

    crit_paired = _critical_from_draws(
        np.array(parallel_map(paired_null, range(n_null), threads)), alpha)
    crit_pooled = float(norm.ppf(1.0 - alpha / 2.0))

    crit_matched = {}
    for s_idx, s in enumerate(s_grid):
        seeds = identity_seeds(np.arange(s))

        def matched_null(j: int, seeds=seeds) -> float:
            gen = RngStream(master_seed, _NULL_STREAM_BASE + (s_idx + 1) * n_null + j).generator()
            a, b = sample_rho_sbm(null_params, rho, gen)
            res = sgm_match(a, b, seeds=seeds)
            return paired_z(a, apply_permutation(b, res.permutation))

        crit_matched[s] = _critical_from_draws(
            np.array(parallel_map(matched_null, range(n_null), threads)), alpha)

    rows = []
    for s_idx, s in enumerate(s_grid):
        seeds_arr = np.arange(s)
        seeds = identity_seeds(seeds_arr)

        # one pair draw per replicate, shared across the x grid, so cells
        # that cannot shuffle anything agree exactly and the x-axis
        # comparison is paired
        def one_rep(rep: int) -> np.ndarray:
            gen = RngStream(master_seed, s_idx * mc_reps + rep).generator()
            a, b = sample_correlated_heterogeneous(alt_spec, gen)
            out = np.empty((len(x_grid), 3))
            for x_idx, x in enumerate(x_grid):
                sgen = RngStream(master_seed, _SHUFFLE_STREAM_BASE
                                 + (s_idx * len(x_grid) + x_idx) * mc_reps + rep).generator()
                sigma = sample_subset_shuffle(n, seeds_arr, min(n - s, x), sgen)
                b_sh = apply_permutation(b, sigma)
                res = sgm_match(a, b_sh, seeds=seeds)
                out[x_idx] = (paired_z(a, b_sh), pooled_z(a, b_sh),
                              paired_z(a, apply_permutation(b_sh, res.permutation)))
            return out

        stats = np.array(parallel_map(one_rep, range(mc_reps), threads))
        for x_idx, x in enumerate(x_grid):
            for col, (variant, crit) in enumerate((("paired", crit_paired),
                                                   ("pooled", crit_pooled),
                                                   ("matched", crit_matched[s]))):
                cell = stats[:, x_idx, col]
                est = PowerEstimate.from_rejections(int((cell > crit).sum()), mc_reps)
                rows.append({
                    "experiment": "power-er", "s": s, "x": x, "variant": variant,
                    "power": est.power, "std_err": est.std_err,
                    "mc_reps": mc_reps, "master_seed": master_seed,
                })
    return rows


def _sample_bernoulli_graph(prob: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    n = prob.shape[0]
    u = gen.random((n, n))
    a = (u < prob).astype(np.int8)
    a = np.triu(a, k=1)
    return a + a.T


def power_omni_experiment(n: int = 100, d: int = 3, num_anomalous: int = 20,
                          mix_w: float = 0.2, x_grid=(0, 25, 50, 75),
                          alpha: float = 0.05, mc_reps: int = 100, n_null: int = 999,
                          master_seed: int = 0, redraw_latents: bool = False,
                          threads: int = 1) -> list[dict]:
    """Anomaly detection power of the omnibus statistic, with and
    without seeded matching, against label-free invariant tests.

    The latent positions (hence P, Q, and the entrywise maximal
    correlation) are drawn once unless ``redraw_latents``; replicates
    then redraw graphs only. Under the anomaly-free null the maximal
    correlation is 1, so the null pair is a graph and its shuffled
    copy (all x unseeded vertices shuffled: the least favorable level).
    The invariant tests, being label-free, are calibrated under the
    independent-pair null; their power is computed once per replicate
    and is constant across the x grid by construction.
    """
    check_mc_reps(mc_reps)
    lat_gen = RngStream(master_seed, _LATENT_STREAM_ID).generator()
    x_latent = sample_dirichlet_positions(n, lat_gen)
    y_latent = anomaly_perturb(x_latent, num_anomalous, mix_w, lat_gen)

    def probs_from(lat_x, lat_y):
        pm = lat_x @ lat_x.T
        qm = lat_y @ lat_y.T
        np.fill_diagonal(pm, 0.0)
        np.fill_diagonal(qm, 0.0)
        return pm, qm, max_feasible_correlation(pm, qm)

    p_mat, q_mat, rho_mat = probs_from(x_latent, y_latent)
    alt_spec = HeterogeneousPair(p_mat, q_mat, rho_mat)
    x_grid = [int(x) for x in x_grid]

    def shuffle_all_of(subset_size: int, gen: np.random.Generator):
        unseeded = np.sort(gen.choice(n, size=subset_size, replace=False)) if subset_size else np.zeros(0, dtype=np.int64)
        seeds = np.setdiff1d(np.arange(n), unseeded, assume_unique=True)
        sigma = sample_subset_shuffle(n, seeds, subset_size, gen)
        return seeds, sigma

    # omnibus nulls: anomaly-free pair is an exact copy, then shuffled
    crit_omni = {}
    crit_matched = {}
    for x_idx, x in enumerate(x_grid):
        def null_stats(j: int, x=x) -> tuple[float, float]:
            gen = RngStream(master_seed, _NULL_STREAM_BASE + x_idx * n_null + j).generator()
            a = _sample_bernoulli_graph(p_mat, gen)
            seeds, sigma = shuffle_all_of(x, gen)
            b_sh = apply_permutation(a, sigma)
            t_omni = t2_omni(a, b_sh, d)
            res = sgm_match(a, b_sh, seeds=identity_seeds(seeds))
            t_match = t2_omni(a, apply_permutation(b_sh, res.permutation), d)
            return t_omni, t_match

        draws = np.array(parallel_map(null_stats, range(n_null), threads))
        crit_omni[x] = _critical_from_draws(draws[:, 0], alpha)
        crit_matched[x] = _critical_from_draws(draws[:, 1], alpha)

    inv_kinds = ("max_degree", "triangles", "spectral")

    def invariant_null(j: int) -> tuple[float, float, float]:
        gen = RngStream(master_seed, _NULL_STREAM_BASE + len(x_grid) * n_null + j).generator()
        a = _sample_bernoulli_graph(p_mat, gen)
        b = _sample_bernoulli_graph(p_mat, gen)
        return tuple(invariant_stat(a, b, kind) for kind in inv_kinds)

    inv_draws = np.array(parallel_map(invariant_null, range(n_null), threads))
    crit_inv = {kind: _critical_from_draws(inv_draws[:, i], alpha)
                for i, kind in enumerate(inv_kinds)}

    def one_rep(rep: int):
        gen = RngStream(master_seed, rep).generator()
        if redraw_latents:
            lg = RngStream(master_seed, _LATENT_STREAM_ID + 1 + rep).generator()
            lx = sample_dirichlet_positions(n, lg)
            ly = anomaly_perturb(lx, num_anomalous, mix_w, lg)
            pm, qm, rm = probs_from(lx, ly)
            spec = HeterogeneousPair(pm, qm, rm)
        else:
            spec = alt_spec
        a, b = sample_correlated_heterogeneous(spec, gen)
        inv_stats = tuple(invariant_stat(a, b, kind) for kind in inv_kinds)
        omni_stats = {}
        matched_stats = {}
        for x_idx, x in enumerate(x_grid):
            sgen = RngStream(master_seed, _SHUFFLE_STREAM_BASE + rep * len(x_grid) + x_idx).generator()
            seeds, sigma = shuffle_all_of(x, sgen)
            b_sh = apply_permutation(b, sigma)
            omni_stats[x] = t2_omni(a, b_sh, d)
            res = sgm_match(a, b_sh, seeds=identity_seeds(seeds))
            matched_stats[x] = t2_omni(a, apply_permutation(b_sh, res.permutation), d)
        return inv_stats, omni_stats, matched_stats

    results = parallel_map(one_rep, range(mc_reps), threads)

    rows = []
    for x in x_grid:
        for variant, crit, stats in (
            ("omni_shuffled", crit_omni[x], [r[1][x] for r in results]),
            ("omni_matched", crit_matched[x], [r[2][x] for r in results]),
        ):
            est = PowerEstimate.from_rejections(int(np.sum(np.array(stats) > crit)), mc_reps)
            rows.append({
                "experiment": "power-omni", "x": x, "variant": variant,
                "power": est.power, "std_err": est.std_err,
                "mc_reps": mc_reps, "master_seed": master_seed,
            })
        for i, kind in enumerate(inv_kinds):
            stats = np.array([r[0][i] for r in results])
            est = PowerEstimate.from_rejections(int((stats > crit_inv[kind]).sum()), mc_reps)
            rows.append({
                "experiment": "power-omni", "x": x, "variant": kind,
                "power": est.power, "std_err": est.std_err,
                "mc_reps": mc_reps, "master_seed": master_seed,
            })
    return rows
