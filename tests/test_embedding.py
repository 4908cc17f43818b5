import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from corrmatch import (
    ase,
    graph_from_edges,
    omnibus,
    procrustes_align,
    sample_dirichlet_positions,
    scree_elbow,
    stream,
    t1_semipar,
    t2_omni,
)
from corrmatch import embedding
from corrmatch.graphs import apply_permutation
from corrmatch.samplers import er_params, sample_rho_sbm, sample_uniform_permutation
from helpers import complete_graph, random_graph


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


class TestAse:
    def test_complete_graph_one_dim(self):
        x = ase(complete_graph(4), 1)
        assert x.shape == (4, 1)
        assert np.allclose(x, np.sqrt(3) / 2, atol=1e-12)

    def test_empty_graph_zero(self):
        x = ase(graph_from_edges(5, ()), 3)
        assert np.allclose(x, 0.0)

    def test_exact_rank3_recovery(self):
        lat = sample_dirichlet_positions(40, stream(1, 0))
        p = lat @ lat.T
        x = ase(p, 3)
        assert np.linalg.norm(x @ x.T - p) < 1e-9

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_graph(10, 0.5, rng)
            x = ase(g, 3)
            for col in range(3):
                v = x[:, col]
                if np.linalg.norm(v) == 0:
                    continue
                assert v[int(np.argmax(np.abs(v)))] >= 0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        g = random_graph(12, 0.4, rng)
        assert np.array_equal(ase(g, 4), ase(g, 4))

    def test_top_d_beats_other_eigen_subsets_on_psd(self):
        # Eckart-Young on the PSD cone: top-d eigenpairs dominate any
        # other subset of the same size
        lat = sample_dirichlet_positions(15, stream(4, 0))
        p = lat @ lat.T + 0.5 * np.eye(15)
        x = ase(p, 2)
        best = np.linalg.norm(x @ x.T - p)
        w, v = np.linalg.eigh(p)
        order = np.argsort(-np.abs(w))
        for subset in ([0, 2], [1, 3], [5, 6]):
            idx = order[subset]
            z = v[:, idx] * np.sqrt(np.abs(w[idx]))
            assert best <= np.linalg.norm(z @ z.T - p) + 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ase(graph_from_edges(3, ()), 4)
        with pytest.raises(ValueError):
            ase(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
        for bad in (0, 2.5, True):
            with pytest.raises(ValueError, match="d value 0 is outside|d must be an integer"):
                ase(graph_from_edges(3, ()), bad)

    def test_symmetry_tolerance(self):
        rng = np.random.default_rng(19)
        a = random_graph(8, 0.5, rng).astype(np.float64)
        a[2, 5] += 1e-13  # within the 1e-12 tolerance
        assert ase(a, 2).shape == (8, 2)
        a[2, 5] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            ase(a, 2)


NON_FINITE = {
    "nan": np.full((4, 4), np.nan),
    "all-inf": np.full((4, 4), np.inf),
    "inf-diagonal": np.diag([np.inf, 1.0, 1.0, 1.0]),
    "one-nan-edge": np.where(np.eye(4, k=1) + np.eye(4, k=-1) > 0, np.nan, 0.0),
}


class TestNonFinite:
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_ase_rejects(self, case):
        with pytest.raises(ValueError, match="finite"):
            ase(NON_FINITE[case], 2)

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_statistics_reject(self, case):
        m = NON_FINITE[case]
        other = complete_graph(4).astype(np.float64)
        for a, b in ((m, m), (m, other), (other, m)):
            with pytest.raises(ValueError, match="finite"):
                t2_omni(a, b, 2)
            with pytest.raises(ValueError, match="finite"):
                t1_semipar(a, b, 2)

    def test_large_inputs_never_reach_arpack(self, monkeypatch):
        def no_eigsh(*args, **kwargs):
            raise AssertionError("eigsh called")

        monkeypatch.setattr(embedding, "eigsh", no_eigsh)
        m = np.ones((200, 200))
        m[3, 3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            ase(m, 2)


def oracle_ase(m, d, eigh=np.linalg.eigh):
    """ase by the full decomposition: the rule every path must reproduce."""
    a = np.asarray(m, dtype=np.float64)
    w, v = eigh(a)
    order = np.argsort(-np.abs(w), kind="stable")[:d]
    vecs = v[:, order]
    lead = np.argmax(np.abs(vecs), axis=0)
    vecs *= np.where(vecs[lead, np.arange(d)] < 0, -1.0, 1.0)
    return vecs * np.sqrt(np.abs(w[order]))[None, :], np.abs(w[order])


def block_expectation(sizes, diag, off):
    z = np.repeat(np.arange(len(sizes)), sizes)
    b = np.full((len(sizes), len(sizes)), off) + (diag - off) * np.eye(len(sizes))
    return b[z][:, z]


def complete_bipartite(m):
    a = np.zeros((2 * m, 2 * m))
    a[:m, m:] = 1.0
    a[m:, :m] = 1.0
    return a


def lanczos_cases():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(240, 240))
    lat = rng.normal(size=(200, 3))
    # (name, matrix, d, path): "lanczos" uses eigsh's pairs, "tie" calls
    # eigsh and falls back to eigh, "eigh" never calls eigsh
    cases = []
    for n in (160, 240):
        sym = x[:n, :n] + x[:n, :n].T
        graph = random_graph(n, 0.2, rng)
        for d in (1, 3, n // 25 - 1):
            cases += [(f"symmetric-{n}", sym, d, "lanczos"), (f"graph-{n}", graph, d, "lanczos")]
        cases += [(f"graph-{n}-wide", graph, n // 25, "eigh"),
                  (f"graph-{n}-all-but-one", graph, n - 1, "eigh"),
                  (f"graph-{n}-all", graph, n, "eigh")]
    cases.append(("graph-below-crossover", random_graph(159, 0.2, rng), 2, "eigh"))
    # a constant start vector is orthogonal to the block contrast here
    sbm = block_expectation((100, 100), 0.5, 0.2)
    cases += [("equal-block-sbm", sbm, 1, "lanczos"), ("equal-block-sbm", sbm, 2, "lanczos"),
              ("equal-block-sbm-rank-cut", sbm, 3, "tie"),
              ("three-equal-blocks-repeated", block_expectation((60, 60, 60), 0.5, 0.2), 2, "tie")]
    k200 = complete_graph(200)
    cases += [("complete", k200, 1, "lanczos"), ("complete-repeated-minus-one", k200, 2, "tie")]
    kmm = complete_bipartite(100)
    cases += [("bipartite-plus-minus", kmm, 1, "tie"), ("bipartite-plus-minus", kmm, 2, "tie"),
              ("bipartite-zero-cut", kmm, 3, "tie")]
    psd = lat @ lat.T
    cases += [("rank-3-psd", psd, 2, "lanczos"), ("rank-3-psd", psd, 3, "lanczos"),
              ("rank-3-psd-zero-cut", psd, 4, "tie"), ("zero", np.zeros((200, 200)), 3, "tie")]
    return cases


LANCZOS_CASES = lanczos_cases()


@pytest.fixture
def spied(monkeypatch):
    """Record every eigsh and eigh call that ase makes; the oracle keeps
    the unwrapped eigh."""
    real_eigsh, real_eigh = embedding.eigsh, np.linalg.eigh
    calls = []

    def eigsh(*args, **kwargs):
        calls.append(("eigsh", kwargs))
        return real_eigsh(*args, **kwargs)

    def eigh(a):
        calls.append(("eigh", {}))
        return real_eigh(a)

    monkeypatch.setattr(embedding, "eigsh", eigsh)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return calls, real_eigh


class TestLanczosPath:
    @pytest.mark.parametrize("name,m,d,path", LANCZOS_CASES,
                             ids=[f"{c[0]}-d{c[2]}" for c in LANCZOS_CASES])
    def test_matches_full_eigh(self, spied, name, m, d, path):
        calls, real_eigh = spied
        z = ase(m, d)
        expected, mags = oracle_ase(m, d, real_eigh)
        ran = [kind for kind, _ in calls]
        assert ran == {"lanczos": ["eigsh"], "tie": ["eigsh", "eigh"], "eigh": ["eigh"]}[path]
        if path != "lanczos":
            assert np.array_equal(z, expected)
            return
        assert calls[0][1]["k"] == d + 1
        # the same |eigenvalue| ranking: column norms are sqrt(|lambda|)
        norms = np.sum(z * z, axis=0)
        assert np.all(np.diff(norms) <= 1e-9 * mags[0])
        np.testing.assert_allclose(norms, mags, rtol=0, atol=1e-9 * max(mags[0], 1.0))
        signs = np.where(np.sum(z * expected, axis=0) < 0, -1.0, 1.0)
        assert np.max(np.abs(z - expected * signs)) <= 1e-10
        assert np.max(np.abs(z @ z.T - expected @ expected.T)) <= 1e-9

    def test_start_vector_fixed_and_not_constant(self, spied):
        calls, _ = spied
        rng = np.random.default_rng(21)
        for _ in range(2):
            ase(random_graph(200, 0.2, rng), 2)
        (_, first), (_, second) = calls
        assert np.array_equal(first["v0"], second["v0"])
        assert np.ptp(first["v0"]) > 0.5

    def test_deterministic(self, spied):
        # Lanczos exhausts the Krylov space of this rank-2 matrix, so
        # ARPACK restarts from random vectors: they come from the fixed
        # generator too. The memory order of the input changes nothing.
        calls, _ = spied
        sbm = block_expectation((100, 100), 0.5, 0.2)
        first = ase(sbm, 2)
        for m in (sbm, np.ascontiguousarray(sbm), np.asfortranarray(sbm), sbm.T):
            assert np.array_equal(ase(m, 2), first)
        assert [kind for kind, _ in calls] == ["eigsh"] * 5

    def test_arpack_failure_falls_back_to_eigh(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((200, 0)))

        rng = np.random.default_rng(23)
        g = random_graph(200, 0.2, rng)
        monkeypatch.setattr(embedding, "eigsh", failing)
        assert np.array_equal(ase(g, 3), oracle_ase(g, 3)[0])


class TestOmnibus:
    def test_equal_inputs(self):
        rng = np.random.default_rng(5)
        a = random_graph(6, 0.5, rng)
        o = omnibus(a, a)
        assert np.array_equal(o[:6, :6], a)
        assert np.array_equal(o[:6, 6:], a)
        assert np.array_equal(o[6:, 6:], a)

    def test_empty_pair(self):
        assert np.allclose(omnibus(graph_from_edges(4, ()), graph_from_edges(4, ())), 0.0)

    def test_offdiag_blocks_are_averages(self):
        rng = np.random.default_rng(6)
        a = random_graph(7, 0.4, rng)
        b = random_graph(7, 0.4, rng)
        o = omnibus(a, b)
        assert np.array_equal(o[:7, :7], a)
        assert np.array_equal(o[7:, 7:], b)
        assert set(np.unique(o[:7, 7:])).issubset({0.0, 0.5, 1.0})
        assert np.allclose(o, o.T)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            omnibus(graph_from_edges(3, ()), graph_from_edges(4, ()))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2), ()])
    def test_not_square_rejected(self, shape):
        # vectors would broadcast into a 2n x 2n matrix
        with pytest.raises(ValueError, match=r"^a and b must be square matrices, got shape"):
            omnibus(np.zeros(shape), np.zeros(shape))


class TestProcrustes:
    def test_self_alignment(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 3))
        w, resid = procrustes_align(x, x)
        assert resid < 1e-10
        assert np.linalg.norm(w.T @ w - np.eye(3)) < 1e-9

    def test_recovers_planted_rotation(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.normal(size=(15, 2))
            w0 = random_orthogonal(2, rng)
            _, resid = procrustes_align(x, x @ w0)
            assert resid < 1e-8

    def test_beats_random_probes(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(12, 2))
        y = rng.normal(size=(12, 2))
        _, resid = procrustes_align(x, y)
        for _ in range(1000):
            q = random_orthogonal(2, rng)
            assert resid <= np.linalg.norm(x @ q - y) + 1e-12

    def test_orthogonality_always(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.normal(size=(10, 3))
            y = rng.normal(size=(10, 3))
            w, _ = procrustes_align(x, y)
            assert np.linalg.norm(w.T @ w - np.eye(3)) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^size mismatch: \(3, 2\) vs \(4, 2\)$"):
            procrustes_align(np.zeros((3, 2)), np.zeros((4, 2)))

    @pytest.mark.parametrize("x, y, message", [
        # a stack of matrices was aligned pairwise, a vector met numpy's svd
        (np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), r"^x must be an n x d matrix, got shape \(2, 2, 2\)$"),
        (np.ones(2), np.ones(2), r"^x must be an n x d matrix, got shape \(2,\)$"),
        (np.eye(2), np.ones(2), r"^y must be an n x d matrix, got shape \(2,\)$"),
    ], ids=["3-d", "1-d", "y 1-d"])
    def test_not_two_matrices_rejected(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            procrustes_align(x, y)


class TestStatistics:
    def test_t1_zero_on_equal(self):
        rng = np.random.default_rng(11)
        a = random_graph(10, 0.5, rng)
        assert t1_semipar(a, a, 2) < 1e-9

    def test_t1_not_label_invariant(self):
        gen = stream(12, 0)
        a, _ = sample_rho_sbm(er_params(30, 0.4), 0.0, gen)
        sigma = sample_uniform_permutation(30, gen)
        a_sh = apply_permutation(a, sigma)
        # isomorphic pair need not give 0: the statistic is vertex-ordered
        assert t1_semipar(a, a_sh, 2) > 1e-3

    def test_t1_positive_for_independent(self):
        gen = stream(13, 0)
        a, b = sample_rho_sbm(er_params(100, 0.5), 0.0, gen)
        assert t1_semipar(a, b, 2) > 0.0

    def test_t2_zero_on_equal(self):
        # exactly 0, not rounding noise, for every d up to 2n
        rng = np.random.default_rng(14)
        for n, p in ((1, 0.5), (2, 1.0), (10, 0.5), (17, 0.3)):
            a = random_graph(n, p, rng)
            for d in range(1, 2 * n + 1):
                assert t2_omni(a, a, d) == 0.0
                assert t2_omni(a, a.astype(np.float64), d) == 0.0

    @pytest.mark.parametrize("equal", [True, False])
    def test_t2_input_validation(self, equal):
        # the exact-zero path for a == b checks what the embedding path checks
        rng = np.random.default_rng(18)
        a = random_graph(10, 0.5, rng).astype(np.float64)
        other = a if equal else 1.0 - a
        for bad in (0, 21, 2.5, True):
            with pytest.raises(ValueError, match="d value .* is outside|d must be an integer"):
                t2_omni(a, other, bad)
        assert t2_omni(a, other, 20) >= 0.0
        flat = np.zeros((3, 4))
        with pytest.raises(ValueError, match="square"):
            t2_omni(flat, flat if equal else flat + 1.0, 1)
        lopsided = a.copy()
        lopsided[0, 1] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            t2_omni(lopsided, lopsided if equal else lopsided + 1.0, 2)
        with pytest.raises(ValueError, match="size mismatch"):
            t2_omni(a, a[:9, :9], 2)

    def test_t2_scalar_nonnegative(self):
        rng = np.random.default_rng(15)
        a = random_graph(9, 0.4, rng)
        b = random_graph(9, 0.4, rng)
        val = t2_omni(a, b, 2)
        assert isinstance(val, float) and val >= 0.0

    def test_t2_increases_under_perturbation(self):
        rng = np.random.default_rng(16)
        vals = []
        for _ in range(20):
            a = random_graph(30, 0.4, rng)
            b = a.copy()
            # flip 10 edge slots
            iu = np.triu_indices(30, 1)
            pick = rng.choice(iu[0].size, size=10, replace=False)
            for pos in pick:
                u, v = iu[0][pos], iu[1][pos]
                b[u, v] = 1 - b[u, v]
                b[v, u] = b[u, v]
            baseline = t2_omni(a, a, 2)
            vals.append(t2_omni(a, b, 2) - baseline)
        assert min(vals) > 1e-3  # strictly above the a == b baseline


class TestScreeElbow:
    def test_hand_cases(self):
        assert scree_elbow([10, 9, 1, 0.5]) == 2
        assert scree_elbow([5, 1, 1, 1]) == 1

    def test_rank3_spectrum(self):
        # exact rank-3 PSD matrix whose zero tail makes the gap at 3 maximal
        rng = np.random.default_rng(17)
        q = random_orthogonal(8, rng)
        target = np.array([3.0, 2.5, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        p = (q * target) @ q.T
        w = np.linalg.eigvalsh(p)
        ranked = np.abs(w)[np.argsort(-np.abs(w))]
        assert scree_elbow(ranked) == 3
        assert scree_elbow(w) == 3  # eigvalsh's ascending order; unranked, the elbow read 1

    @pytest.mark.parametrize("values", [[0.5, 1, 9, 10], [1, 0.5, -9, 10], [-9, 0.5, 10, -1]])
    def test_any_order_gives_the_ranked_elbow(self, values):
        # unranked, [0.5, 1, 9, 10] gave 1: its gaps were read as 0.5 and 8
        assert scree_elbow(values) == scree_elbow([10, 9, 1, 0.5]) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scree_elbow([])

    @pytest.mark.parametrize("values, shape", [(3.0, r"\(\)"), ([[3, 2], [1, 0]], r"\(2, 2\)")],
                             ids=["scalar", "matrix"])
    def test_not_a_sequence_rejected(self, values, shape):
        # a scalar raised IndexError; a matrix's elbow came from the gaps between its rows
        with pytest.raises(ValueError,
                           match=rf"^eigenvalues must be a non-empty 1-D sequence, got shape {shape}$"):
            scree_elbow(values)
