import numpy as np
import pytest

from corrmatch import (
    RngStream,
    ase,
    complete_graph,
    empty_graph,
    omnibus,
    procrustes_align,
    sample_dirichlet_positions,
    scree_elbow,
    t1_semipar,
    t2_omni,
)
from corrmatch.graphs import apply_permutation
from corrmatch.samplers import er_params, sample_rho_sbm, sample_uniform_permutation


def random_graph(n, p, rng):
    u = rng.random((n, n))
    a = np.triu((u < p).astype(np.int8), k=1)
    return a + a.T


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


class TestAse:
    def test_complete_graph_one_dim(self):
        x = ase(complete_graph(4), 1)
        assert x.shape == (4, 1)
        assert np.allclose(x, np.sqrt(3) / 2, atol=1e-12)

    def test_empty_graph_zero(self):
        x = ase(empty_graph(5), 3)
        assert np.allclose(x, 0.0)

    def test_exact_rank3_recovery(self):
        lat = sample_dirichlet_positions(40, RngStream(1))
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
        lat = sample_dirichlet_positions(15, RngStream(4))
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
            ase(empty_graph(3), 4)
        with pytest.raises(ValueError):
            ase(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
        for bad in (0, 2.5, True):
            with pytest.raises(ValueError, match="d value 0 is outside|d must be an integer"):
                ase(empty_graph(3), bad)


class TestOmnibus:
    def test_equal_inputs(self):
        rng = np.random.default_rng(5)
        a = random_graph(6, 0.5, rng)
        o = omnibus(a, a)
        assert np.array_equal(o[:6, :6], a)
        assert np.array_equal(o[:6, 6:], a)
        assert np.array_equal(o[6:, 6:], a)

    def test_empty_pair(self):
        assert np.allclose(omnibus(empty_graph(4), empty_graph(4)), 0.0)

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
            omnibus(empty_graph(3), empty_graph(4))


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
        with pytest.raises(ValueError):
            procrustes_align(np.zeros((3, 2)), np.zeros((4, 2)))


class TestStatistics:
    def test_t1_zero_on_equal(self):
        rng = np.random.default_rng(11)
        a = random_graph(10, 0.5, rng)
        assert t1_semipar(a, a, 2) < 1e-9

    def test_t1_not_label_invariant(self):
        gen = RngStream(12).generator()
        a, _ = sample_rho_sbm(er_params(30, 0.4), 0.0, gen)
        sigma = sample_uniform_permutation(30, gen)
        a_sh = apply_permutation(a, sigma)
        # isomorphic pair need not give 0: the statistic is vertex-ordered
        assert t1_semipar(a, a_sh, 2) > 1e-3

    def test_t1_positive_for_independent(self):
        gen = RngStream(13).generator()
        a, b = sample_rho_sbm(er_params(100, 0.5), 0.0, gen)
        assert t1_semipar(a, b, 2) > 0.0

    def test_t2_zero_on_equal(self):
        rng = np.random.default_rng(14)
        a = random_graph(10, 0.5, rng)
        assert t2_omni(a, a, 2) < 1e-9

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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scree_elbow([])
