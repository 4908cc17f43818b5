"""Gaussian-mixture clustering of embedded vertices and Adjusted Rand
Index scoring, plus the joint-versus-single clustering experiments.

The mixture is fit by plain EM with full covariances, k-means++
seeding, and ridge regularization eps*I on every covariance update
(eps = 1e-6 times the mean coordinatewise data variance). All
restarts are seeded first; their EM iterations then run in lockstep on
(a, k, n, d) and (a, k, d, d) stacks over the a restarts still
running, with no Python loop over restarts or components. Each restart
keeps its own stopping rule, so fits equal those of a per-component
loop run one restart at a time, bit for bit, when that loop takes the
same max-shifted log-sum-exp over the same (k, n) layout. The
per-iteration log-likelihood trace is kept on the model so monotonicity
is checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import MonteCarlo
from .embedding import ase, omnibus
from .graphs import (_as_instance, _check_same_size, as_adjacency, as_matrix, as_vertex_ids,
                     check_count, check_grid, check_range)
from .samplers import SbmParams, sample_rho_sbm, stream
from .matching import _shuffle_and_match


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


def fit_gmm(points: np.ndarray, k: int, rng, restarts: int = 5,
            max_iters: int = 200, tol: float = 1e-6) -> tuple[GmmModel, np.ndarray]:
    """EM fit of a full-covariance k-component Gaussian mixture.

    Runs ``restarts`` independently seeded fits and keeps the best
    final log-likelihood (ties go to the earliest restart). Labels are
    maximum-posterior assignments under the winning model.

    Every restart is seeded first, in restart order; EM draws nothing.
    The restarts then iterate in lockstep on (a, k, n, d) and
    (a, k, d, d) stacks over the a restarts still running. A restart
    whose log-likelihood moved by less than ``tol`` keeps the parameters
    of that E-step and leaves the stack; one still running after
    ``max_iters`` iterations keeps its last M-step's parameters. Either
    way its labels come from its last E-step, so each restart ends as a
    fit run on its own would. The E-step normalises over components with
    the max-shifted log-sum-exp, log(sum(exp(l - max l))) + max l.
    """
    x = as_matrix("points", points)
    n, d = x.shape
    check_count("n", n, low=2)  # a covariance needs two points
    check_count("k", k, n)
    check_count("restarts", restarts)
    check_count("max_iters", max_iters)
    check_range("tol", (tol,), 0)
    with np.errstate(over="ignore"):
        # bounds every squared distance sum of k-means++ and of the EM updates
        spread = n * float((np.ptp(x, axis=0) ** 2).sum())
    if not math.isfinite(spread):
        raise ValueError("points are too spread out: their squared distances overflow "
                         "float64; rescale them")
    gen = _as_instance("rng", rng, np.random.Generator)
    eps = 1e-6 * float(np.var(x, axis=0).mean())
    if eps <= 0.0:
        eps = 1e-6
    reg = eps * np.eye(d)
    global_cov = np.cov(x.T).reshape(d, d) + reg

    weights = np.empty((restarts, k))
    means = np.empty((restarts, k, d))
    covs = np.empty((restarts, k, d, d))
    for r in range(restarts):
        centers = _kmeanspp_centers(x, k, gen)
        hard = np.argmin(((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)
        for j in range(k):
            members = x[hard == j]
            weights[r, j] = max(members.shape[0], 1)
            if members.shape[0] >= 2:
                means[r, j] = members.mean(axis=0)
                covs[r, j] = np.cov(members.T).reshape(d, d) + reg
            else:
                means[r, j] = centers[j]
                covs[r, j] = global_cov
        weights[r] /= weights[r].sum()

    d_log_2pi = d * np.log(2.0 * np.pi)
    traces: list[list[float]] = [[] for _ in range(restarts)]
    # restart -> (weights, means, covs, log_resp) it ended with
    final: list[tuple] = [None] * restarts
    active = np.arange(restarts)
    diff = x - means[:, :, None, :]
    for it in range(max_iters):
        chol = np.linalg.cholesky(covs)
        sol = np.linalg.inv(chol) @ np.swapaxes(diff, -1, -2)
        maha = (sol ** 2).sum(axis=-2)
        logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
        log_gauss = -0.5 * ((d_log_2pi + logdet)[..., None] + maha)
        log_prob = np.log(weights)[..., None] + log_gauss
        top = log_prob.max(axis=-2)
        norm = np.log(np.exp(log_prob - top[:, None, :]).sum(axis=-2)) + top
        ll = norm.sum(axis=-1)
        log_resp = log_prob - norm[:, None, :]
        for r, value in zip(active.tolist(), ll.tolist()):
            traces[r].append(value)
        if it > 0:
            done = np.abs(ll - prev_ll) < tol
            if done.any():
                for i in np.flatnonzero(done):
                    final[active[i]] = (weights[i], means[i], covs[i], log_resp[i])
                if done.all():
                    break
                keep = ~done
                active, ll, log_resp = active[keep], ll[keep], log_resp[keep]
        prev_ll = ll
        resp = np.exp(log_resp)
        nk = np.maximum(resp.sum(axis=-1), 1e-300)
        weights = nk / n
        means = (resp @ x) / nk[..., None]
        diff = x - means[:, :, None, :]
        weighted = resp[..., None] * diff
        covs = np.matmul(np.swapaxes(weighted, -1, -2), diff) / nk[..., None, None] + reg
    else:
        for i, r in enumerate(active.tolist()):
            final[r] = (weights[i], means[i], covs[i], log_resp[i])

    # max keeps the first of equal maxima: ties go to the earliest restart
    best = max(range(restarts), key=lambda r: traces[r][-1])
    weights, means, covs, log_resp = final[best]
    model = GmmModel(k=k, weights=weights.copy(), means=means.copy(),
                     covariances=covs.copy(), loglik=traces[best][-1],
                     loglik_trace=tuple(traces[best]))
    return model, np.argmax(log_resp, axis=0).astype(np.int64)


def ari(labels_a, labels_b) -> float:
    """Hubert-Arabie Adjusted Rand Index between two labelings.

    1 for identical partitions up to renaming; the degenerate 0/0 case
    (both partitions trivial) returns 1 by convention. Each labeling is 1-D.
    """
    a, b = np.asarray(labels_a), np.asarray(labels_b)
    for name, labels in (("labels_a", a), ("labels_b", b)):
        if labels.ndim != 1:
            raise ValueError(f"{name} must be a 1-D labeling, got shape {labels.shape}")
    _check_same_size(a, b)
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
    _, labels = fit_gmm(ase(omnibus(a, b), d), k, rng, restarts=restarts)
    n = labels.shape[0] // 2
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
    rho_grid = check_grid("rho_grid", rho_grid, 1, real=True)
    mc = MonteCarlo(master_seed, mc_reps, len(rho_grid))
    params = _as_instance("params", params, SbmParams)
    check_count("n", params.n, low=2)  # fit_gmm needs two points
    check_count("d", d, params.n)
    check_count("k", k, params.n)  # single_cluster fits the n rows of graph 1
    check_count("restarts", restarts)
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
    n = check_count("n", truth.shape[0], low=2)  # fit_gmm needs two points
    s_grid = check_grid("s_grid", s_grid, n)
    mc = MonteCarlo(master_seed, mc_reps, len(s_grid))
    check_count("d", d, n)
    check_count("k", k, n)  # single_cluster fits the n rows of graph 1
    check_count("restarts", restarts)

    def one_rep(s: int, gen: np.random.Generator) -> tuple[float, float, float]:
        a, b = draw_pair(gen)
        seed_vertices = np.sort(gen.choice(n, size=s, replace=False))
        b_sh, b_aligned = _shuffle_and_match(a, b, seed_vertices, n - s, gen)
        cluster_seed = int(gen.integers(2 ** 62))
        joint_a, _ = joint_cluster(a, b_sh, d, k, stream(cluster_seed), restarts=restarts)
        score_shuffled = ari(joint_a, truth)
        score_single = ari(single_cluster(a, d, k, stream(cluster_seed), restarts=restarts), truth)
        joint_m, _ = joint_cluster(a, b_aligned, d, k, stream(cluster_seed), restarts=restarts)
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
    truth = _as_instance("params", params, SbmParams).partition.membership
    check_range("rho", (rho,), 0, 1)
    return _shuffle_table("cluster-shuffle", lambda gen: sample_rho_sbm(params, rho, gen),
                          truth, s_grid, d, k, mc_reps, master_seed, restarts)


def cluster_real_experiment(a: np.ndarray, b: np.ndarray, labels: np.ndarray,
                            s_grid, d: int, k: int, mc_reps: int,
                            master_seed: int, restarts: int = 3) -> list[dict]:
    """Shuffle/match clustering pipeline on a user-supplied graph pair.

    The input graphs are treated as a fixed observation; randomness
    enters only through the shuffles, the seed choices, and the GMM
    restarts. Scores the clustering of graph a's vertices against the
    given labels; swap the inputs to score the other graph.
    """
    a, b = as_adjacency(a), as_adjacency(b)
    _check_same_size(a, b)
    labels = as_vertex_ids("labels", labels)
    n = a.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels must hold one label per vertex, n={n}, got shape {labels.shape}")
    return _shuffle_table("cluster-real", lambda gen: (a, b), labels, s_grid, d, k,
                          mc_reps, master_seed, restarts)
