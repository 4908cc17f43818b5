"""Two-sample test statistics, empirical null calibration, and the
Monte Carlo power experiments.

All tests are right-tailed on an absolute statistic (two-sided
alternatives). Critical values from Monte Carlo nulls come from
``_parallel.critical_value``: the ceil((1-alpha)(n_null+1))-th order
statistic of n_null null draws, a conservative finite-sample quantile;
a test rejects when its statistic strictly exceeds the critical value.

Null calibration resamples graph pairs from the null model (never
permutations of a fixed observed pair), under the least favorable
shuffling level of the composite null: no shuffling for the paired
edge-density test, all unseeded vertices shuffled for the omnibus
anomaly test.
"""

from __future__ import annotations

import math
from functools import cache, partial

import numpy as np
from scipy.special import ndtri

from ._parallel import MonteCarlo
from .embedding import t2_omni
from .graphs import (
    _as_instance,
    _check_same_size,
    _complement,
    apply_permutation,
    check_count,
    check_grid,
    check_range,
    edge_disagreements,
    max_degree,
    sample_edge_correlation,
    spectral_norm,
    triangle_count,
)
from .matching import _shuffle_and_match, faq_match
from .samplers import (
    BlockPartition,
    HeterogeneousPair,
    SbmParams,
    anomaly_perturb,
    er_params,
    max_feasible_correlation,
    sample_correlated_heterogeneous,
    sample_dirichlet_positions,
    sample_rho_sbm,
    sample_uniform_permutation,
    _sample_symmetric_bernoulli,
)

PHASE_RHO_GRID = (0.0, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0)


def three_block_params() -> SbmParams:
    """The phase-transition model: three blocks of 50 vertices."""
    return SbmParams(BlockPartition((50, 50, 50)),
                     np.array([[0.5, 0.3, 0.2], [0.3, 0.5, 0.3], [0.2, 0.3, 0.5]]))


# -- statistics --------------------------------------------------------------

def _edge_fractions(a: np.ndarray, b: np.ndarray) -> tuple[float, float, int]:
    _check_same_size(a, b)
    n = check_count("n", a.shape[0], low=2)
    m = n * (n - 1) // 2
    p1 = int(a.sum()) // 2 / m
    p2 = int(b.sum()) // 2 / m
    return p1, p2, m


def _z(p1: float, p2: float, m: int, rho_hat: float) -> float:
    """|p1 - p2| over the pooled two-proportion z denominator deflated by
    (1 - rho_hat); 0 when the pooled density is degenerate (0 or 1)."""
    p = (p1 + p2) / 2.0
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return abs(p1 - p2) / math.sqrt(2.0 * p * (1.0 - p) * (1.0 - rho_hat) / m)


def pooled_z(a: np.ndarray, b: np.ndarray) -> float:
    """|two-proportion pooled z| on edge densities; 0 when the pooled
    density is degenerate (0 or 1)."""
    return _z(*_edge_fractions(a, b), 0.0)


def paired_z(a: np.ndarray, b: np.ndarray) -> float:
    """Paired z statistic: the pooled z denominator deflated by
    (1 - rho_hat), rho_hat the sample edge correlation.

    Equals pooled_z exactly when rho_hat = 0. At rho_hat = 1 the
    statistic is 0 for equal densities and +inf otherwise.
    """
    p1, p2, m = _edge_fractions(a, b)
    rho_hat = sample_edge_correlation(a, b)  # 0 for degenerate densities
    if rho_hat >= 1.0:
        return 0.0 if p1 == p2 else math.inf
    return _z(p1, p2, m, rho_hat)


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


# -- experiments -------------------------------------------------------------

def phase_transition_experiment(mc_reps: int = 200, master_seed: int = 0,
                                rho_grid=PHASE_RHO_GRID,
                                params: SbmParams | None = None) -> list[dict]:
    """Matchability phase transition: edge disagreements at the latent
    alignment versus after matching from it, and the edge correlation
    induced by matching versus shuffling."""
    rho_grid = check_grid("rho_grid", rho_grid, 1, real=True)
    mc = MonteCarlo(master_seed, mc_reps, len(rho_grid))
    params = three_block_params() if params is None else _as_instance("params", params, SbmParams)

    def one_rep(rho: float, gen: np.random.Generator) -> tuple[float, float, float, float]:
        a, b = sample_rho_sbm(params, rho, gen)
        dis_id = edge_disagreements(a, b)
        res = faq_match(a, b, init="identity", max_iters=100)
        matched = apply_permutation(b, res.permutation)
        corr_matched = sample_edge_correlation(a, matched)
        sigma = sample_uniform_permutation(params.n, gen)
        corr_shuffled = sample_edge_correlation(a, apply_permutation(b, sigma))
        return dis_id, res.objective / 2.0, corr_matched, corr_shuffled

    return mc.mean_table("phase-transition", "rho", rho_grid,
                         ("disagreements_identity", "disagreements_matched",
                          "correlation_matched", "correlation_shuffled"), one_rep)


def power_er_experiment(p: float = 0.4, q: float = 0.375, n: int = 50, rho: float = 0.7,
                        s_grid=(0, 10, 20, 30, 40, 50), x_grid=(0, 10, 20, 30, 40, 50),
                        alpha: float = 0.05, mc_reps: int = 500, n_null: int = 999,
                        master_seed: int = 0, null_edge_p: float | None = None) -> list[dict]:
    """Power of the paired, pooled, and matched edge-density tests when
    at most min(n-s, x) of the n-s unseeded vertices are shuffled.

    The paired and matched tests are calibrated by resampling the null
    model (equal edge densities, same correlation, no shuffling: the
    least favorable level); the pooled test uses the plain normal
    critical value, i.e. no type-I correction for pairing. Seeds occupy
    the leading s vertices, without loss of generality under the
    exchangeable null and alternative.
    """
    n = check_count("n", n, low=2)
    s_grid = check_grid("s_grid", s_grid, n)
    x_grid = check_grid("x_grid", x_grid)  # x > n - s shuffles all n - s unseeded vertices
    mc = MonteCarlo(master_seed, mc_reps, len(s_grid), alpha=alpha, n_null=n_null,
                    null_cells=len(s_grid) + 1, shuffles=(len(s_grid), len(x_grid), mc_reps))
    for name, value in (("p", p), ("q", q), ("rho", rho)):
        check_range(name, (value,), 0, 1)  # NaN fails every comparison
    if null_edge_p is not None:
        check_range("null_edge_p", (null_edge_p,), 0, 1)
    p0 = (p + q) / 2.0 if null_edge_p is None else float(null_edge_p)
    null_params = er_params(n, p0)
    off = 1.0 - np.eye(n)
    alt_spec = HeterogeneousPair(p * off, q * off, rho * off)  # rejects an infeasible rho

    def paired_null(gen: np.random.Generator) -> float:
        a, b = sample_rho_sbm(null_params, rho, gen)
        return paired_z(a, b)

    def matched_null(s: int, gen: np.random.Generator) -> float:
        a, b = sample_rho_sbm(null_params, rho, gen)
        return paired_z(a, _shuffle_and_match(a, b, np.arange(s), 0, gen)[1])

    crit_paired = mc.null_critical(0, paired_null)
    crit_pooled = float(ndtri(1.0 - alpha / 2.0))
    crit_matched = [mc.null_critical(s_idx + 1, partial(matched_null, s))
                    for s_idx, s in enumerate(s_grid)]

    rows = []
    for s_idx, s in enumerate(s_grid):
        # one pair draw per replicate, shared across the x grid, so cells
        # that cannot shuffle anything agree exactly and the x-axis
        # comparison is paired
        def one_rep(rep: int, gen: np.random.Generator) -> np.ndarray:
            a, b = sample_correlated_heterogeneous(alt_spec, gen)
            out = np.empty((len(x_grid), 3))
            for x_idx, x in enumerate(x_grid):
                b_sh, b_m = _shuffle_and_match(a, b, np.arange(s), min(n - s, x),
                                               mc.generator("shuffle", s_idx, x_idx, rep))
                out[x_idx] = paired_z(a, b_sh), pooled_z(a, b_sh), paired_z(a, b_m)
            return out

        rows += mc.power_table({"experiment": "power-er", "s": s}, "x", x_grid,
                               ("paired", "pooled", "matched"), mc.replicates(s_idx, one_rep),
                               (crit_paired, crit_pooled, crit_matched[s_idx]))
    return rows


def power_omni_experiment(n: int = 100, d: int = 3, num_anomalous: int = 20,
                          mix_w: float = 0.2, x_grid=(0, 25, 50, 75),
                          alpha: float = 0.05, mc_reps: int = 100, n_null: int = 999,
                          master_seed: int = 0, redraw_latents: bool = False) -> list[dict]:
    """Anomaly detection power of the omnibus statistic, with and
    without seeded matching, against label-free invariant tests.

    The latent positions (hence P, Q, and the entrywise maximal
    correlation) are drawn once unless ``redraw_latents``; replicates
    then redraw graphs only. Under the anomaly-free null the maximal
    correlation is 1, so the null pair is a graph and its shuffled
    copy (all x unseeded vertices shuffled: the least favorable level).
    A null copy that seeded matching recovers exactly scores T2 = 0
    (see ``t2_omni``), so with ``num_anomalous=0`` the matched omnibus
    test rejects only replicates whose copy matching fails to recover.
    The invariant tests, being label-free, are calibrated under the
    independent-pair null; their power is computed once per replicate
    and is constant across the x grid by construction.
    """
    n = check_count("n", n)
    x_grid = check_grid("x_grid", x_grid, n)
    mc = MonteCarlo(master_seed, mc_reps, 1, alpha=alpha, n_null=n_null,
                    null_cells=len(x_grid) + 1, shuffles=(mc_reps, len(x_grid)))
    check_count("num_anomalous", num_anomalous, n, low=0)
    check_range("mix_w", (mix_w,), 0, 1)
    check_count("d", d, 2 * n)  # the omnibus matrix is 2n x 2n
    lat_gen = mc.generator("latent", 0)
    x_latent = sample_dirichlet_positions(n, lat_gen)
    y_latent = anomaly_perturb(x_latent, num_anomalous, mix_w, lat_gen)

    def spec_from(lat_x, lat_y) -> HeterogeneousPair:
        pm = lat_x @ lat_x.T
        qm = lat_y @ lat_y.T
        np.fill_diagonal(pm, 0.0)
        np.fill_diagonal(qm, 0.0)
        return HeterogeneousPair(pm, qm, max_feasible_correlation(pm, qm))

    alt_spec = spec_from(x_latent, y_latent)

    def omni_stats(a: np.ndarray, b: np.ndarray, x: int, gen: np.random.Generator,
                   t_ab=None) -> tuple[float, float]:
        """T2 of a against b with x random unseeded vertices of b shuffled,
        before and after seeded matching. ``t_ab()``, when given, is
        T2(a, b), computed at most once per pair and reused for a graph
        that equals b exactly (x = 0, or matching restored b)."""
        def t2(g: np.ndarray) -> float:
            if t_ab is not None and np.array_equal(g, b):
                return t_ab()
            return t2_omni(a, g, d)

        unseeded = np.sort(gen.choice(n, size=x, replace=False))
        b_sh, b_m = _shuffle_and_match(a, b, _complement(unseeded, n), x, gen)
        return t2(b_sh), t2(b_m)

    # omnibus nulls: anomaly-free pair is an exact copy, then shuffled; a
    # graph equal to the copy scores 0 through t2_omni's identical-pair rule
    def null_stats(x: int, gen: np.random.Generator) -> tuple[float, float]:
        a = _sample_symmetric_bernoulli(alt_spec.p_matrix, gen)
        return omni_stats(a, a, x, gen)

    inv_kinds = tuple(_INVARIANTS)

    def invariant_null(gen: np.random.Generator) -> tuple[float, float, float]:
        a = _sample_symmetric_bernoulli(alt_spec.p_matrix, gen)
        b = _sample_symmetric_bernoulli(alt_spec.p_matrix, gen)
        return tuple(invariant_stat(a, b, kind) for kind in inv_kinds)

    crit_inv = tuple(mc.null_critical(len(x_grid), invariant_null))
    # at x = 0 every null graph is its own unshuffled copy, scored 0 before
    # and after matching, so that cell's critical value needs no draws
    crit = [(tuple(mc.null_critical(x_idx, partial(null_stats, x))) if x else (0.0, 0.0))
            + crit_inv for x_idx, x in enumerate(x_grid)]

    def one_rep(rep: int, gen: np.random.Generator) -> list:
        spec = alt_spec
        if redraw_latents:
            lg = mc.generator("latent", 1 + rep)
            lx = sample_dirichlet_positions(n, lg)
            spec = spec_from(lx, anomaly_perturb(lx, num_anomalous, mix_w, lg))
        a, b = sample_correlated_heterogeneous(spec, gen)
        inv_stats = tuple(invariant_stat(a, b, kind) for kind in inv_kinds)
        t_ab = cache(partial(t2_omni, a, b, d))
        return [omni_stats(a, b, x, mc.generator("shuffle", rep, x_idx), t_ab) + inv_stats
                for x_idx, x in enumerate(x_grid)]

    return mc.power_table({"experiment": "power-omni"}, "x", x_grid,
                          ("omni_shuffled", "omni_matched") + inv_kinds,
                          mc.replicates(0, one_rep), crit)
