"""Closed-form entropy and mutual information for correlated Bernoulli
graph pairs.

Everything is in nats. The edge indicators of a correlated SBM pair are
independent across vertex pairs, so graph-level quantities reduce to
block-weighted sums of the per-pair quantities: with n_ij = n_i * n_j
for i < j and C(n_i, 2) for i = j,

    I(G1; G2) = sum_{i<=j} n_ij * I(X; Y),   (X, Y) correlated Bern(lam_ij)
    H(G1)     = sum_{i<=j} n_ij * h(lam_ij).

The per-pair mutual information has the closed form

    I(X;Y) = p^2 f(r(1-p)/p) + (1-p)^2 f(rp/(1-p)) + 2p(1-p) f(-r),
    f(x)   = (1+x) log(1+x) - x >= 0,

whose terms are each nonnegative and O(r^2); f is summed as a power
series at small |x|, and the r = 1 / degenerate-p limits are taken by
explicit branches. ``brute_force_pair_mi`` recomputes I(G1;G2)
from the definition by enumerating all graph pairs; it exists to
validate the formula and is only usable for tiny n.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .graphs import _as_instance, check_count, check_range
from .samplers import SbmParams


def _binary_entropy(p: float) -> float:
    """h(p) = -p log p - (1-p) log(1-p) in nats, with 0 log 0 = 0, for a checked p."""
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log1p(-p)


def bernoulli_pair_mi(p: float, rho: float) -> float:
    """Mutual information of a correlated Bernoulli(p) pair, in nats."""
    check_range("p", (p,), 0, 1)
    check_range("rho", (rho,), 0, 1)
    if p == 0.0 or p == 1.0 or rho == 0.0:
        return 0.0
    if rho == 1.0:
        return _binary_entropy(p)
    q = 1.0 - p
    return _scaled_f(p, rho * q) + _scaled_f(q, rho * p) + 2.0 * p * q * _scaled_f(1.0, -rho)


def _scaled_f(a: float, c: float) -> float:
    """a^2 f(c/a) for f(x) = (1+x) log1p(x) - x, without cancellation at
    small |c/a| and without overflow of c/a at subnormal a."""
    x = c / a
    if abs(x) < 0.5:  # f(x) = sum_{k>=2} (-x)^k / (k(k-1)), smallest terms first
        return a * a * sum((-x) ** k / (k * (k - 1)) for k in range(60, 1, -1))
    log = math.log1p(x) if x < math.inf else math.log(c) - math.log(a)
    return a * (a + c) * log - a * c


def _block_sum(params: SbmParams, per_pair) -> float:
    """sum_{i<=j} n_ij * per_pair(lam_ij), in block order."""
    sizes = _as_instance("params", params, SbmParams).partition.sizes
    terms = []
    for i, j in itertools.combinations_with_replacement(range(len(sizes)), 2):
        nij = sizes[i] * sizes[j] if i < j else sizes[i] * (sizes[i] - 1) // 2
        terms.append(nij * per_pair(float(params.lam[i, j])))
    return sum(terms, 0.0)


def rho_sbm_mi(params: SbmParams, rho: float) -> float:
    """I(G1; G2) in nats for a correlated SBM pair at the latent alignment."""
    check_range("rho", (rho,), 0, 1)  # also where no block holds a vertex pair
    return _block_sum(params, lambda p: bernoulli_pair_mi(p, rho))


def sbm_entropy(params: SbmParams) -> float:
    """H(G1) in nats under edgewise independence."""
    return _block_sum(params, _binary_entropy)


def mi_small_rho_ratio(params: SbmParams, rho: float) -> float:
    """rho_sbm_mi / (rho^2 * C(n,2) / 2), the small-correlation diagnostic."""
    check_range("rho", (rho,), 0, 1)
    if rho == 0.0:
        raise ValueError("rho must lie in (0, 1]; the ratio is undefined at 0")
    n = check_count("n", _as_instance("params", params, SbmParams).n, low=2)
    denom = rho * rho * (n * (n - 1) / 2.0) / 2.0
    return rho_sbm_mi(params, rho) / denom


def _pair_joint_table(p: float, rho: float) -> np.ndarray:
    """2x2 joint table of a correlated Bernoulli(p) pair: rows X, cols Y."""
    p11 = p * (p + rho * (1.0 - p))
    p10 = p - p11
    p01 = p - p11
    p00 = 1.0 - 2.0 * p + p11
    return np.array([[p00, p01], [p10, p11]], dtype=np.float64)


def brute_force_pair_mi(params: SbmParams, rho: float) -> float:
    """I(G1; G2) from the definition, enumerating all graph pairs.

    Builds the full joint distribution over the 2^m x 2^m possible
    (G1, G2) outcomes (m = C(n,2)) as a product of per-pair tables, then
    evaluates sum P(x,y) log(P(x,y) / (P(x) P(y))) directly. Test oracle
    only; requires m <= 12.
    """
    check_range("rho", (rho,), 0, 1)
    n = _as_instance("params", params, SbmParams).n
    m = n * (n - 1) // 2
    if m > 12:
        raise ValueError(f"brute force needs C(n,2) <= 12, got {m}")
    b = params.partition.membership
    joint = np.ones((1, 1), dtype=np.float64)
    for u in range(n):
        for v in range(u + 1, n):
            t = _pair_joint_table(float(params.lam[b[u], b[v]]), rho)
            joint = np.kron(joint, t)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    denom = np.outer(px, py)
    mask = joint > 0.0
    total = float(np.sum(joint[mask] * np.log(joint[mask] / denom[mask])))
    return total
