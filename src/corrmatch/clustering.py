"""Gaussian-mixture clustering of embedded vertices and Adjusted Rand
Index scoring, plus the joint-versus-single clustering experiments.

The mixture is fit by plain EM with full covariances, k-means++
seeding, and ridge regularization eps*I on every covariance update
(eps = 1e-6 times the mean coordinatewise data variance). Each EM
iteration works on (k, n, d) and (k, d, d) stacks, with no Python loop
over components; its log-sum-exp follows scipy.special.logsumexp's
formula, so fits equal those of a per-component loop bit for bit. The
per-iteration log-likelihood trace is kept on the model so monotonicity
is checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import MonteCarlo, check_range
from .embedding import ase, omnibus
from .graphs import apply_permutation
from .samplers import (
    SbmParams,
    _as_generator,
    sample_rho_sbm,
    sample_subset_shuffle,
)
from .matching import identity_seeds, sgm_match


@dataclass(frozen=True)
class GmmModel:
    k: int
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    loglik: float
    loglik_trace: tuple[float, ...]


def _kmeanspp_centers(points: np.ndarray, k: int, gen: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(gen.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(gen.integers(n))
        else:
            idx = int(gen.choice(n, p=d2 / total))
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _logsumexp_cols(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each column of a finite (k, n) array.

    Equals ``scipy.special.logsumexp(a.T, axis=1)`` (scipy 1.17) bit for
    bit: the entries equal to the column maximum are taken out of the
    shifted sum and counted, and the rest is summed along the rows of
    the C-ordered (n, k) transpose, in scipy's order. The max and the
    count are exact in any order, so they reduce over the long axis.
    """
    amax = a.max(axis=0)
    at_max = a == amax
    count = at_max.sum(axis=0)
    shifted = np.exp(a - amax)
    shifted[at_max] = 0.0
    rest = np.ascontiguousarray(shifted.T).sum(axis=1)
    return np.log1p(rest / count) + np.log(count) + amax


def fit_gmm(points: np.ndarray, k: int, rng, restarts: int = 5,
            max_iters: int = 200, tol: float = 1e-6) -> tuple[GmmModel, np.ndarray]:
    """EM fit of a full-covariance k-component Gaussian mixture.

    Runs ``restarts`` independently seeded fits and keeps the best
    final log-likelihood (ties go to the earliest restart). Labels are
    maximum-posterior assignments under the winning model.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("points must be an n x d matrix")
    if not np.isfinite(x).all():
        raise ValueError("points must be finite (no NaN or inf)")
    n, d = x.shape
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"need max_iters >= 1, got {max_iters}")
    gen = _as_generator(rng)
    eps = 1e-6 * float(np.var(x, axis=0).mean())
    if eps <= 0.0:
        eps = 1e-6
    reg = eps * np.eye(d)

    best: tuple[GmmModel, np.ndarray] | None = None
    for _ in range(restarts):
        centers = _kmeanspp_centers(x, k, gen)
        hard = np.argmin(((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)
        weights = np.empty(k)
        means = np.empty((k, d))
        covs = np.empty((k, d, d))
        global_cov = np.cov(x.T).reshape(d, d) + reg
        for j in range(k):
            members = x[hard == j]
            weights[j] = max(members.shape[0], 1)
            if members.shape[0] >= 2:
                means[j] = members.mean(axis=0)
                covs[j] = np.cov(members.T).reshape(d, d) + reg
            else:
                means[j] = centers[j]
                covs[j] = global_cov
        weights /= weights.sum()

        trace: list[float] = []
        d_log_2pi = d * np.log(2.0 * np.pi)
        diff = x[None, :, :] - means[:, None, :]
        for it in range(max_iters):
            chol = np.linalg.cholesky(covs)
            sol = np.linalg.solve(chol, diff.transpose(0, 2, 1))
            maha = (sol ** 2).sum(axis=1)
            logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
            log_gauss = -0.5 * ((d_log_2pi + logdet)[:, None] + maha)
            log_prob = np.log(weights)[:, None] + log_gauss
            norm = _logsumexp_cols(log_prob)
            ll = float(norm.sum())
            # C-ordered (n, k): the sum over n for nk depends on this
            # layout in the last bits
            log_resp = np.ascontiguousarray((log_prob - norm).T)
            trace.append(ll)
            if it > 0 and abs(trace[-1] - trace[-2]) < tol:
                break
            resp = np.exp(log_resp)
            nk = resp.sum(axis=0)
            nk = np.maximum(nk, 1e-300)
            weights = nk / n
            means = (resp.T @ x) / nk[:, None]
            diff = x[None, :, :] - means[:, None, :]
            weighted = resp.T[:, :, None] * diff
            covs = np.matmul(weighted.transpose(0, 2, 1), diff) / nk[:, None, None] + reg

        labels = np.argmax(log_resp, axis=1).astype(np.int64)
        model = GmmModel(k=k, weights=weights.copy(), means=means.copy(),
                         covariances=covs.copy(), loglik=trace[-1],
                         loglik_trace=tuple(trace))
        if best is None or model.loglik > best[0].loglik:
            best = (model, labels)
    return best


def ari(labels_a, labels_b) -> float:
    """Hubert-Arabie Adjusted Rand Index between two labelings.

    1 for identical partitions up to renaming; the degenerate 0/0 case
    (both partitions trivial) returns 1 by convention.
    """
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape:
        raise ValueError("label vectors must have equal length")
    n = a.shape[0]
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka = int(ai.max()) + 1 if n else 0
    kb = int(bi.max()) + 1 if n else 0
    cont = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(cont, (ai, bi), 1)

    def comb2(v):
        return (v * (v - 1)) // 2

    index = comb2(cont).sum()
    sum_a = comb2(cont.sum(axis=1)).sum()
    sum_b = comb2(cont.sum(axis=0)).sum()
    total = comb2(np.int64(n))
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2.0
    denom = max_index - expected
    if denom == 0.0:
        return 1.0
    return float((index - expected) / denom)


def joint_cluster(a: np.ndarray, b: np.ndarray, d: int, k: int, rng,
                  restarts: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Embed the omnibus matrix, fit one GMM on all 2n rows, and return
    the label slices for a's and b's vertices."""
    if a.shape != b.shape:
        raise ValueError("graph size mismatch")
    n = a.shape[0]
    z = ase(omnibus(a, b), d)
    _, labels = fit_gmm(z, k, rng, restarts=restarts)
    return labels[:n], labels[n:]


def single_cluster(a: np.ndarray, d: int, k: int, rng, restarts: int = 5) -> np.ndarray:
    """Single-graph baseline: embed a alone and cluster its vertices."""
    z = ase(a, d)
    _, labels = fit_gmm(z, k, rng, restarts=restarts)
    return labels


def cluster_gain_experiment(params: SbmParams, rho_grid, d: int, k: int,
                            mc_reps: int, master_seed: int,
                            restarts: int = 3) -> list[dict]:
    """Joint (omnibus) versus single-graph clustering ARI over a
    correlation grid; both variants are scored on graph 1's vertices
    against the true block labels."""
    rho_grid = [float(rho) for rho in rho_grid]
    mc = MonteCarlo(master_seed, mc_reps, {"rho_grid": rho_grid}, len(rho_grid))
    truth = params.partition.membership

    def one_rep(rho: float, gen: np.random.Generator) -> tuple[float, float]:
        g1, g2 = sample_rho_sbm(params, rho, gen)
        joint_a, _ = joint_cluster(g1, g2, d, k, gen, restarts=restarts)
        single_a = single_cluster(g1, d, k, gen, restarts=restarts)
        return ari(joint_a, truth), ari(single_a, truth)

    return mc.mean_table("cluster-gain", "rho", rho_grid, ("omni", "single"), one_rep,
                         mean_key="mean_ari")


def _shuffle_table(experiment: str, draw_pair, truth: np.ndarray, s_grid, d: int, k: int,
                   mc_reps: int, master_seed: int, restarts: int) -> list[dict]:
    """Shuffle / single / match clustering ARI per seed count, on pairs
    ``draw_pair(gen)``, scoring the clustering of the first graph's
    vertices against ``truth``.

    All three clustering calls of a replicate reuse the same restart
    seed, so variants with identical inputs (e.g. everything seeded,
    nothing shuffled) produce identical scores.
    """
    s_grid = [int(s) for s in s_grid]
    mc = MonteCarlo(master_seed, mc_reps, {"s_grid": s_grid}, len(s_grid))
    check_range("s_grid", s_grid, 0, truth.shape[0])

    def one_rep(s: int, gen: np.random.Generator) -> tuple[float, float, float]:
        a, b = draw_pair(gen)
        n = a.shape[0]
        seed_vertices = np.sort(gen.choice(n, size=s, replace=False)) if s else np.zeros(0, dtype=np.int64)
        sigma = sample_subset_shuffle(n, seed_vertices, n - s, gen)
        b_sh = apply_permutation(b, sigma)
        cluster_seed = int(gen.integers(2 ** 62))

        def cluster_gen() -> np.random.Generator:
            return np.random.Generator(np.random.PCG64(cluster_seed))

        joint_a, _ = joint_cluster(a, b_sh, d, k, cluster_gen(), restarts=restarts)
        score_shuffled = ari(joint_a, truth)
        score_single = ari(single_cluster(a, d, k, cluster_gen(), restarts=restarts), truth)

        res = sgm_match(a, b_sh, seeds=identity_seeds(seed_vertices))
        b_aligned = apply_permutation(b_sh, res.permutation)
        joint_m, _ = joint_cluster(a, b_aligned, d, k, cluster_gen(), restarts=restarts)
        return score_shuffled, score_single, ari(joint_m, truth)

    return mc.mean_table(experiment, "s", s_grid, ("omni_shuffled", "single", "omni_matched"),
                         one_rep, mean_key="mean_ari")


def shuffle_cluster_experiment(params: SbmParams, rho: float, s_grid,
                               d: int, k: int, mc_reps: int, master_seed: int,
                               restarts: int = 3) -> list[dict]:
    """Clustering ARI under shuffling, with and without matching.

    For each seed count s: shuffle all n-s non-seed labels of G2 (seeds
    chosen uniformly per replicate), then score i) joint clustering of
    the shuffled pair, ii) G1 alone, iii) joint clustering after seeded
    matching realigns G2.
    """
    return _shuffle_table("cluster-shuffle", lambda gen: sample_rho_sbm(params, rho, gen),
                          params.partition.membership, s_grid, d, k, mc_reps, master_seed,
                          restarts)


def cluster_real_experiment(a: np.ndarray, b: np.ndarray, labels: np.ndarray,
                            s_grid, d: int, k: int, mc_reps: int,
                            master_seed: int, restarts: int = 3) -> list[dict]:
    """Shuffle/match clustering pipeline on a user-supplied graph pair.

    The input graphs are treated as a fixed observation; randomness
    enters only through the shuffles, the seed choices, and the GMM
    restarts. Scores the clustering of graph a's vertices against the
    given labels; swap the inputs to score the other graph.
    """
    if a.shape != b.shape:
        raise ValueError("graph size mismatch")
    labels = np.asarray(labels, dtype=np.int64)
    n = a.shape[0]
    if labels.shape[0] != n:
        raise ValueError(f"label file has {labels.shape[0]} entries for n={n} vertices")
    return _shuffle_table("cluster-real", lambda gen: (a, b), labels, s_grid, d, k,
                          mc_reps, master_seed, restarts)
