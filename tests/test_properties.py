"""Property tests: permutation algebra, the matching objectives, ARI,
mutual information, the spectral embedding and triangle counts, on
inputs drawn by hypothesis, with networkx as the independent oracle for
triangle counts and isomorphism witnesses."""

import math

import networkx as nx
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrmatch import (
    BlockPartition,
    SbmParams,
    apply_permutation,
    ari,
    ase,
    gm_objective,
    identity_permutation,
    invert_permutation,
    max_feasible_correlation,
    rho_sbm_mi,
    sgm_match,
    trace_objective,
    transposition,
    transposition_delta,
    triangle_count,
)


def graph(n: int):
    """Strategy: a simple graph on n vertices as an int8 adjacency."""
    def build(bits):
        a = np.zeros((n, n), dtype=np.int8)
        a[np.triu_indices(n, k=1)] = bits
        return a + a.T
    pairs = n * (n - 1) // 2
    return st.lists(st.booleans(), min_size=pairs, max_size=pairs).map(build)


def symmetric(n: int):
    """Strategy: a symmetric n x n matrix of small integers, rich in
    eigenvalues of equal magnitude."""
    def build(cells):
        m = np.zeros((n, n))
        m[np.triu_indices(n)] = cells
        return m + np.triu(m, k=1).T
    cells = n * (n + 1) // 2
    return st.lists(st.integers(-2, 2), min_size=cells, max_size=cells).map(build)


def permutation(n: int):
    return st.permutations(range(n)).map(lambda p: np.array(p, dtype=np.int64))


@given(st.integers(0, 12), st.data())
def test_permutation_round_trips(n, data):
    phi, tau = data.draw(permutation(n)), data.draw(permutation(n))
    g = data.draw(graph(n))
    ident = identity_permutation(n)
    assert np.array_equal(phi[invert_permutation(phi)], ident)
    assert np.array_equal(invert_permutation(phi)[phi], ident)
    assert np.array_equal(invert_permutation(invert_permutation(phi)), phi)
    assert np.array_equal(apply_permutation(apply_permutation(g, phi), invert_permutation(phi)), g)
    assert np.array_equal(apply_permutation(apply_permutation(g, tau), phi),
                          apply_permutation(g, phi[tau]))


@given(st.integers(2, 12), st.data())
def test_transposition_delta_is_objective_difference(n, data):
    a, b = data.draw(graph(n)), data.draw(graph(n))
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    direct = gm_objective(a, b, transposition(n, i, j)) - gm_objective(a, b, identity_permutation(n))
    assert transposition_delta(a, b, i, j) == direct


@settings(deadline=None)
@given(st.integers(1, 10), st.data())
def test_sgm_match_scores_its_permutation(n, data):
    a, b = data.draw(graph(n)), data.draw(graph(n))
    s = data.draw(st.integers(0, n))
    u, v = data.draw(permutation(n))[:s], data.draw(permutation(n))[:s]
    init = data.draw(st.sampled_from(("barycenter", "identity")))
    res = sgm_match(a, b, seeds=np.stack([u, v], axis=1), init=init,
                    max_iters=data.draw(st.integers(1, 20)))
    assert res.objective == gm_objective(a, b, res.permutation)
    assert res.trace_value == trace_objective(a, b, res.permutation)
    # seed pair (u, v) says b's vertex v is a's vertex u
    assert np.array_equal(res.permutation[v], u)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=30), st.data())
def test_ari_ignores_label_names(labels_a, data):
    labels_b = data.draw(st.lists(st.integers(0, 4), min_size=len(labels_a),
                                  max_size=len(labels_a)))
    names = data.draw(st.lists(st.integers(-50, 50), min_size=5, max_size=5, unique=True))
    renamed_a = [names[x] for x in labels_a]
    score = ari(labels_a, labels_b)
    assert -1.0 <= score <= 1.0
    assert ari(renamed_a, labels_b) == score
    assert ari(labels_b, renamed_a) == score


@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
@example([0.3, 0.5, 0.3], [0.0, 3e-12])  # log(1 - rho) made this negative
@example([0.0, 0.0, 5e-324], [0.0, 0.5])  # rho*q/p overflows at subnormal p
@example([1e-300, 0.0, 0.0], [1.0 - 2**-53, 1.0])  # log(1 - p) lost H's second term
@example([0.0, 0.0, 0.5], [0.0, 2.2250738585e-313])  # subnormal rho
def test_rho_sbm_mi_monotone_in_rho(lam, rhos):
    params = SbmParams(BlockPartition((3, 4)),
                       np.array([[lam[0], lam[1]], [lam[1], lam[2]]]))
    lo, hi = sorted(rhos)
    mi_lo, mi_hi = rho_sbm_mi(params, lo), rho_sbm_mi(params, hi)
    assert math.isfinite(mi_lo) and math.isfinite(mi_hi)

    def slack(rho):
        # each pair's value sums three terms of size O(rho): exact to a few
        # ulps of rho per vertex pair, or to a few steps of the subnormal grid
        return math.comb(params.n, 2) * (1e-14 * rho + 1e-320)

    assert mi_lo >= -slack(lo)
    assert mi_hi >= mi_lo - slack(hi)


UNIT = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 2.0 ** -1022,
                                              1.0 - 2.0 ** -53])


@given(UNIT, UNIT)
@example(0.1, 0.2)  # 1 / (a / b) and b / a differ in the last bit
@example(1e-300, 1.0 - 1e-16)  # a / b overflows
def test_max_feasible_correlation_symmetric_bit_for_bit(p, q):
    assert max_feasible_correlation(p, q).hex() == max_feasible_correlation(q, p).hex()


@given(st.integers(0, 12).flatmap(graph))
def test_triangle_count_matches_networkx(g):
    expected = sum(nx.triangles(nx.from_numpy_array(g)).values()) // 3
    assert triangle_count(g) == expected


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(graph(n), permutation(n))))
def test_isomorphism_witness_has_zero_objective(pair):
    g, sigma = pair
    h = apply_permutation(g, sigma)
    matcher = nx.isomorphism.GraphMatcher(nx.from_numpy_array(g), nx.from_numpy_array(h))
    assert matcher.is_isomorphic()
    # VF2 maps vertex u of g to vertex match[u] of h; phi relabels h onto g
    match = np.array([matcher.mapping[u] for u in range(g.shape[0])], dtype=np.int64)
    assert gm_objective(g, h, invert_permutation(match)) == 0


@st.composite
def embedded(draw):
    """(m, d, w, v, z): a symmetric matrix, a dimension, its eigh
    decomposition, and its d-dimensional ase."""
    n = draw(st.integers(1, 8))
    m = draw(symmetric(n) | graph(n).map(lambda g: g.astype(np.float64)))
    d = draw(st.integers(1, n))
    w, v = np.linalg.eigh(m)
    return m, d, w, v, ase(m, d)


@given(embedded())
def test_ase_ranks_by_magnitude_keeping_eigh_order(case):
    m, d, w, _, z = case
    # ranked by |lambda| descending; equal magnitudes keep eigh's ascending order
    lam = w[np.argsort(-np.abs(w), kind="stable")][:d]
    # column k is sqrt|lambda_k| times a unit eigenvector of lambda_k
    assert np.allclose((z ** 2).sum(axis=0), np.abs(lam), atol=1e-9)
    assert np.allclose(m @ z, z * lam, atol=1e-9)


@given(embedded())
def test_ase_largest_entry_positive(case):
    *_, z = case
    # the sign is fixed before scaling, which can reorder entries of equal
    # magnitude in the last bit; so compare up to that rounding
    assert np.all(z.max(axis=0) >= (1 - 1e-12) * np.abs(z).max(axis=0))


@given(embedded())
def test_ase_gram_is_rank_d_part(case):
    m, d, w, v, z = case
    top = np.argsort(-np.abs(w), kind="stable")[:d]
    u = v[:, top]
    assert np.allclose(z @ z.T, u @ np.diag(np.abs(w[top])) @ u.T, atol=1e-9)
    if d == m.shape[0]:  # the full embedding's Gram matrix is |M| = (M^2)^(1/2)
        assert np.allclose((z @ z.T) @ (z @ z.T), m @ m, atol=1e-8)
