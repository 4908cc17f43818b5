"""Random generation of correlated graph pairs, latent positions, and shuffles.

Every generator in the package comes from :func:`stream`, which hashes
a seed and a key into a numpy generator. The same stream always
produces bit-identical output; distinct keys give independent streams,
so Monte Carlo replicates can be drawn in any order or in parallel.

A correlated pair of Bernoulli(p), Bernoulli(q) indicators with Pearson
correlation rho is drawn from the bivariate table

    P(1,1) = p*q + rho * sqrt(p*(1-p)*q*(1-q)),

which reduces, for p = q, to the sequential construction: draw X, then
Y | X=1 ~ Bern(p + rho*(1-p)) and Y | X=0 ~ Bern(p*(1-rho)).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .graphs import (ADJ_DTYPE, BlockPartition, _as_instance, _check_same_size, _complement,
                     as_finite, as_matrix, as_symmetric, as_vertex_ids, check_count,
                     check_range, identity_permutation)


def stream(seed: int, *key: int) -> np.random.Generator:
    """``Generator(PCG64(SeedSequence(seed, spawn_key=key)))``, for a seed
    and key entries that are integers of at least 0. ``stream(seed)``
    equals ``np.random.default_rng(seed)``; the SeedSequence hash is stable
    across platforms and numpy releases."""
    ss = np.random.SeedSequence(check_count("seed", seed, low=0),
                                spawn_key=tuple(check_count("key", k, low=0) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class SbmParams:
    """Stochastic blockmodel parameters: block partition plus the
    symmetric K x K edge-probability matrix."""

    partition: BlockPartition
    lam: np.ndarray

    def __post_init__(self):
        k = _as_instance("partition", self.partition, BlockPartition).num_blocks
        if np.shape(self.lam) != (k, k):
            raise ValueError(f"lambda must be {k}x{k}, got {np.shape(self.lam)}")
        object.__setattr__(self, "lam", as_symmetric("lambda", self.lam, 0, 1))

    @property
    def n(self) -> int:
        return self.partition.n

    def edge_probability_matrix(self) -> np.ndarray:
        """n x n matrix P with P[u,v] = lambda[b(u), b(v)], zero diagonal."""
        b = self.partition.membership
        p = self.lam[np.ix_(b, b)]
        np.fill_diagonal(p, 0.0)
        return p


def er_params(n: int, p: float) -> SbmParams:
    """One-block SBM, i.e. Erdos-Renyi(n, p)."""
    return SbmParams(BlockPartition((check_count("n", n),)), np.array([[p]]))


@dataclass(frozen=True)
class HeterogeneousPair:
    """Edge-probability matrices (P, Q) with an entrywise correlation matrix;
    ``given_edge`` and ``given_non_edge`` are the probabilities of G2's cells
    where G1 has an edge and where it has none."""

    p_matrix: np.ndarray
    q_matrix: np.ndarray
    rho_matrix: np.ndarray
    given_edge: np.ndarray = field(init=False, repr=False, compare=False)
    given_non_edge: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = as_symmetric("p", self.p_matrix, 0, 1)
        q = as_symmetric("q", self.q_matrix, 0, 1)
        r = as_symmetric("rho", self.rho_matrix, -1, 1)
        _check_same_size(p, q)
        _check_same_size(p, r)
        for name, m in (("p", p), ("q", q)):
            if np.any(np.diag(m) != 0):
                raise ValueError(f"{name} must have zero diagonal")
        p11 = p * q + r * np.sqrt(p * (1 - p) * q * (1 - q))  # <= min(p, q) if rho <= the bound
        bad = ((r > max_feasible_correlation(p, q) + 1e-12) | (p11 < -1e-12)
               | (1 - p - q + p11 < -1e-12))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"rho={r[i, j]} infeasible for marginals ({p[i, j]}, {q[i, j]}) "
                             f"at cell ({i}, {j})")
        # Y | X=1 ~ Bern(p11/p), Y | X=0 ~ Bern((q - p11)/(1 - p)). The draw
        # u < x with u in [0, 1) reads any x >= 1 as 1 and any x <= 0 as 0, so
        # rounding past [0, 1] needs no clip; the NaN and inf entries arise only
        # at p = 0, where G1 has no edge, and at p = 1, where it has one, so the
        # draw never selects them.
        with np.errstate(divide="ignore", invalid="ignore"):
            given_edge, given_non_edge = p11 / p, (q - p11) / (1 - p)
        for name, m in (("p_matrix", p), ("q_matrix", q), ("rho_matrix", r),
                        ("given_edge", given_edge), ("given_non_edge", given_non_edge)):
            object.__setattr__(self, name, m)


def max_feasible_correlation(p, q):
    """Largest correlation admitting a valid bivariate Bernoulli(p, q) table.

    min(sqrt(p(1-q)/(q(1-p))), sqrt(q(1-p)/(p(1-q)))), formed as
    sqrt(min(a, b) / max(a, b)) for a = p(1-q) and b = q(1-p): the ratio is
    at most 1, so it cannot overflow, and swapping p and q gives the same
    bits. Degenerate marginals (0 or 1) give 0; equal non-degenerate
    marginals give 1. Accepts finite real scalars or arrays (elementwise).
    """
    p, q = as_finite("p", p), as_finite("q", q)
    degenerate = (p <= 0) | (p >= 1) | (q <= 0) | (q >= 1)
    ps = np.where(degenerate, 0.5, p)
    qs = np.where(degenerate, 0.5, q)
    a, b = ps * (1 - qs), qs * (1 - ps)
    out = np.zeros(a.shape)  # filled in place: np.where made later big arrays page-fault
    np.divide(np.minimum(a, b), np.maximum(a, b), out=out, where=~degenerate)
    np.sqrt(out, out=out)
    return float(out) if out.ndim == 0 else out


def _sample_symmetric_bernoulli(prob: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Symmetric 0/1 matrix with independent upper-triangle Bernoulli cells."""
    n = prob.shape[0]
    u = gen.random((n, n))
    a = (u < prob).astype(ADJ_DTYPE)
    a = np.triu(a, k=1)
    return a + a.T


def _correlated_pair(p: np.ndarray, given: Callable[[np.ndarray], np.ndarray],
                     gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """G1 with edge probabilities p, then G2 with each cell's probability
    conditional on G1's cell: ``given(edge)`` for the mask of G1's edges."""
    a = _sample_symmetric_bernoulli(p, gen)
    return a, _sample_symmetric_bernoulli(given(a == 1), gen)


def sample_rho_sbm(params: SbmParams, rho: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Correlated SBM pair: draw G1, then G2 edgewise conditionally on G1.

    Conditional on an edge of G1 the matching G2 cell is Bernoulli
    (lam + rho*(1-lam)); conditional on a non-edge it is Bernoulli
    (lam*(1-rho)). Cells are independent across vertex pairs.
    """
    check_range("rho", (rho,), 0, 1)
    gen = _as_instance("rng", rng, np.random.Generator)
    p = _as_instance("params", params, SbmParams).edge_probability_matrix()

    def given(edge: np.ndarray) -> np.ndarray:
        """p + rho*(1-p) on edges and p*(1-rho) elsewhere, written into p."""
        gain = np.subtract(1.0, p)
        gain *= rho
        np.add(p, gain, out=p, where=edge)
        return np.multiply(p, 1.0 - rho, out=p, where=~edge)
    return _correlated_pair(p, given, gen)


def sample_correlated_heterogeneous(spec: HeterogeneousPair, rng) -> tuple[np.ndarray, np.ndarray]:
    """Heterogeneous correlated pair from the cellwise bivariate Bernoulli
    tables of ``spec``; cells are independent."""
    return _correlated_pair(_as_instance("spec", spec, HeterogeneousPair).p_matrix,
                            lambda edge: np.where(edge, spec.given_edge, spec.given_non_edge),
                            _as_instance("rng", rng, np.random.Generator))


def sample_dirichlet_positions(n: int, rng) -> np.ndarray:
    """n latent positions drawn i.i.d. Dirichlet(1, 1, 1) on the 2-simplex."""
    check_count("n", n)
    gen = _as_instance("rng", rng, np.random.Generator)
    return gen.dirichlet(np.ones(3), size=n)


def anomaly_perturb(x: np.ndarray, m: int, w: float, rng) -> np.ndarray:
    """Mix the first m rows of x with fresh Dirichlet rows: (1-w)*x + w*D."""
    y = as_matrix("x", x).copy()
    check_range("w", (w,), 0, 1)
    check_count("m", m, y.shape[0], low=0)
    gen = _as_instance("rng", rng, np.random.Generator)
    if m > 0 and w > 0:
        d = gen.dirichlet(np.ones(y.shape[1]), size=m)
        y[:m] = (1.0 - w) * y[:m] + w * d
    return y


# -- permutations and shuffles ----------------------------------------------

def sample_uniform_permutation(n: int, rng) -> np.ndarray:
    check_count("n", n, low=0)
    gen = _as_instance("rng", rng, np.random.Generator)
    return gen.permutation(n).astype(np.int64)


def sample_block_permutation(partition: BlockPartition, rng) -> np.ndarray:
    """Uniform block-preserving permutation: independent uniform
    permutation within each block."""
    partition = _as_instance("partition", partition, BlockPartition)
    gen = _as_instance("rng", rng, np.random.Generator)
    phi = identity_permutation(partition.n)
    for i in range(partition.num_blocks):
        verts = partition.block_vertices(i)
        phi[verts] = verts[gen.permutation(verts.shape[0])]
    return phi


def sample_subset_shuffle(n: int, seed_set, k: int, rng) -> np.ndarray:
    """Uniform permutation of a uniformly chosen k-subset of non-seed vertices.

    Seeds are always fixed points. Because the subset permutation may
    itself fix points, *at most* k vertices move.
    """
    check_count("n", n, low=0)
    gen = _as_instance("rng", rng, np.random.Generator)
    free = _complement(as_vertex_ids("seed_set", seed_set, n), n)
    check_count("k", k, free.shape[0], low=0)  # at most the non-seed vertices
    phi = identity_permutation(n)
    if k >= 2:
        chosen = gen.choice(free, size=k, replace=False)
        phi[chosen] = chosen[gen.permutation(k)]
    return phi
