import hashlib
import math
import warnings

import numpy as np
import pytest

from corrmatch import (
    BlockPartition,
    HeterogeneousPair,
    RngStream,
    SbmParams,
    anomaly_perturb,
    apply_permutation,
    er_params,
    gm_objective,
    invert_permutation,
    max_feasible_correlation,
    sample_block_permutation,
    sample_correlated_heterogeneous,
    sample_dirichlet_positions,
    sample_edge_correlation,
    sample_rho_sbm,
    sample_subset_shuffle,
    sample_uniform_permutation,
)
from corrmatch.graphs import as_adjacency
from corrmatch.samplers import _as_generator
from helpers import random_graph, traced_peak
from pinned_runs import PINS


def sbm_draw(params, rng):
    """The first graph of a pair, which is one SBM draw."""
    return sample_rho_sbm(params, 0.0, rng)[0]


@pytest.mark.parametrize("sizes, lam, match", [
    ((3,), [[0.5, 0.1]], "lambda must be 1x1"),
    ((2, 2), [[0.5, 0.1], [0.2, 0.5]], "lambda must be symmetric"),
    ((2, 2), [[0.5, 0.1], [0.1, 1.5]], r"lambda value 1.5 is outside \[0, 1\]"),
    ((2, 2), [[0.5, -0.1], [-0.1, 0.5]], r"lambda value -0.1 is outside \[0, 1\]"),
    # NaN != NaN, so finiteness is checked before symmetry
    ((2, 2), [[0.5, 0.1], [0.1, np.nan]], "lambda entries must be finite"),
    ((2, 2), [[0.5, np.inf], [np.inf, 0.5]], "lambda entries must be finite"),
])
def test_sbm_params_rejected(sizes, lam, match):
    with pytest.raises(ValueError, match=match):
        SbmParams(BlockPartition(sizes), np.array(lam))


@pytest.mark.parametrize("n", [10.7, True])
def test_er_params_rejects_non_integer_n(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        er_params(n, 0.5)


class TestSbmSampler:
    def test_all_zero_lambda(self):
        params = er_params(20, 0.0)
        g = sbm_draw(params, RngStream(1))
        assert g.sum() == 0

    def test_all_one_lambda(self):
        params = er_params(10, 1.0)
        g = sbm_draw(params, RngStream(2))
        assert g.sum() == 10 * 9

    def test_output_is_valid_adjacency(self):
        params = SbmParams(BlockPartition((5, 5)), np.array([[0.9, 0.1], [0.1, 0.9]]))
        g = sbm_draw(params, RngStream(3))
        as_adjacency(g)

    def test_edge_count_within_4_sigma(self):
        # |E| ~ Binomial(C(100,2), 0.5)
        params = er_params(100, 0.5)
        m = 100 * 99 // 2
        counts = [int(sbm_draw(params, RngStream(4, i)).sum()) // 2 for i in range(100)]
        mean = np.mean(counts)
        sigma_of_mean = math.sqrt(m * 0.25 / 100)
        assert abs(mean - 0.5 * m) < 4 * sigma_of_mean

    def test_block_rates(self):
        params = SbmParams(BlockPartition((40, 40)), np.array([[0.8, 0.1], [0.1, 0.8]]))
        g = sbm_draw(params, RngStream(5))
        cross = g[:40, 40:].mean()
        within = g[:40, :40][np.triu_indices(40, 1)].mean()
        assert abs(cross - 0.1) < 0.08
        assert abs(within - 0.8) < 0.08


class TestRhoSbm:
    def test_rho_one_identical(self):
        params = er_params(30, 0.4)
        a, b = sample_rho_sbm(params, 1.0, RngStream(6))
        assert np.array_equal(a, b)

    def test_rho_zero_near_independence(self):
        params = er_params(200, 0.5)
        corrs = [sample_edge_correlation(*sample_rho_sbm(params, 0.0, RngStream(7, i)))
                 for i in range(30)]
        assert abs(np.mean(corrs)) < 0.01

    def test_mean_sample_correlation_matches_rho(self):
        params = er_params(200, 0.5)
        corrs = [sample_edge_correlation(*sample_rho_sbm(params, 0.3, RngStream(8, i)))
                 for i in range(100)]
        assert abs(np.mean(corrs) - 0.3) < 0.02

    def test_joint_table_within_4_sigma(self):
        # cellwise joint of (G1, G2) edge indicators vs the construction table
        p, rho = 0.4, 0.6
        params = er_params(80, p)
        m = 80 * 79 // 2
        iu = np.triu_indices(80, 1)
        n11 = n10 = n01 = n00 = 0
        reps = 40
        for i in range(reps):
            a, b = sample_rho_sbm(params, rho, RngStream(9, i))
            x, y = a[iu], b[iu]
            n11 += int(((x == 1) & (y == 1)).sum())
            n10 += int(((x == 1) & (y == 0)).sum())
            n01 += int(((x == 0) & (y == 1)).sum())
            n00 += int(((x == 0) & (y == 0)).sum())
        total = m * reps
        p11 = p * (p + rho * (1 - p))
        for observed, expected in ((n11, p11), (n10, p - p11), (n01, p - p11),
                                   (n00, 1 - 2 * p + p11)):
            sd = math.sqrt(total * expected * (1 - expected))
            assert abs(observed - total * expected) < 4 * sd

    def test_marginal_density(self):
        params = er_params(150, 0.3)
        m = 150 * 149 // 2
        dens = []
        for i in range(50):
            a, b = sample_rho_sbm(params, 0.7, RngStream(10, i))
            dens.append(int(b.sum()) // 2 / m)
        sd_mean = math.sqrt(0.3 * 0.7 / m / 50)
        assert abs(np.mean(dens) - 0.3) < 4 * sd_mean

    @pytest.mark.parametrize("rho", [0.0, 0.35, 0.6, 1.0])
    def test_pair_matches_the_conditional_formula(self, rho):
        # G2's probabilities are written into G1's buffer; each cell keeps the
        # formula p + rho*(1-p) given an edge and p*(1-rho) given none
        params = SbmParams(BlockPartition((30, 50)), np.array([[0.3, 0.05], [0.05, 0.7]]))
        p = params.edge_probability_matrix()
        gen = RngStream(11).generator()
        a = random_graph(80, p, gen)
        b = random_graph(80, np.where(a == 1, p + rho * (1.0 - p), p * (1.0 - rho)), gen)
        got = sample_rho_sbm(params, rho, RngStream(11))
        assert np.array_equal(got[0], a) and np.array_equal(got[1], b)

    def test_working_set(self):
        # the n x n uniforms and one probability matrix, reused for G2 (the
        # separate conditional matrices took 5.5 n x n float64 arrays)
        n = 400
        _, peak = traced_peak(sample_rho_sbm, er_params(n, 0.1), 0.6, RngStream(12))
        assert peak < 3.0 * 8 * n * n

    def test_rho_out_of_range(self):
        for rho in (1.5, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"rho value {rho} is outside \[0, 1\]"):
                sample_rho_sbm(er_params(5, 0.5), rho, RngStream(0))


class TestMaxFeasibleCorrelation:
    def test_equal_marginals(self):
        assert max_feasible_correlation(0.3, 0.3) == pytest.approx(1.0)

    def test_formula_case(self):
        val = max_feasible_correlation(0.4, 0.375)
        assert val == pytest.approx(math.sqrt(0.225 / 0.25), abs=1e-12)
        # the implied joint table is valid: P(1,1) <= min(p, q)
        p, q, rho = 0.4, 0.375, val
        p11 = p * q + rho * math.sqrt(p * (1 - p) * q * (1 - q))
        assert p11 <= min(p, q) + 1e-12

    def test_degenerate(self):
        assert max_feasible_correlation(0.5, 0.0) == 0.0
        assert max_feasible_correlation(1.0, 0.5) == 0.0

    @pytest.mark.parametrize("p, q", [(1e-300, 1 - 1e-16), (1 - 1e-16, 1e-300), (5e-324, 0.5),
                                      (0.5, 5e-324), (0.5, 0.5 + 1e-16)])
    def test_extreme_marginals_do_not_warn(self, p, q):
        # min(a, b) / max(a, b) is at most 1: no overflow, and the mirror's bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 <= max_feasible_correlation(p, q) <= 1.0
            assert max_feasible_correlation(p, q) == max_feasible_correlation(q, p)

    @pytest.mark.parametrize("p, q, expected", [(0.5, 1e-310, 1.0000000000000232e-155),
                                                (1e-310, 0.5, 1.0000000000000232e-155),
                                                (0.5, 5e-324, 0.0),
                                                (0.4, 0.375, 0.9486832980505138)])
    def test_pinned_values(self, p, q, expected):
        assert max_feasible_correlation(p, q) == expected

    def test_symmetry_and_array(self):
        p = np.array([[0.0, 0.2], [0.2, 0.0]])
        q = np.array([[0.0, 0.5], [0.5, 0.0]])
        out = max_feasible_correlation(p, q)
        assert out[0, 1] == pytest.approx(max_feasible_correlation(0.2, 0.5))
        assert out[0, 0] == 0.0


class TestHeterogeneous:
    def _const_pair(self, n, p, q, rho):
        off = 1.0 - np.eye(n)
        return HeterogeneousPair(p * off, q * off, rho * off)

    def test_identical_when_equal_and_maximal(self):
        spec = self._const_pair(25, 0.4, 0.4, 1.0)
        a, b = sample_correlated_heterogeneous(spec, RngStream(14))
        assert np.array_equal(a, b)

    def test_rho_zero_independent(self):
        spec = self._const_pair(120, 0.4, 0.4, 0.0)
        corrs = [sample_edge_correlation(*sample_correlated_heterogeneous(spec, RngStream(15, i)))
                 for i in range(40)]
        assert abs(np.mean(corrs)) < 0.015

    def test_joint_cell_frequency(self):
        # P(1,1) = 0.15 + 0.7*sqrt(0.4*0.6*0.375*0.625) ~ 0.3160
        p, q, rho = 0.4, 0.375, 0.7
        p11 = p * q + rho * math.sqrt(p * (1 - p) * q * (1 - q))
        assert p11 == pytest.approx(0.316, abs=5e-4)
        spec = self._const_pair(60, p, q, rho)
        iu = np.triu_indices(60, 1)
        hits = 0
        total = 0
        for i in range(60):
            a, b = sample_correlated_heterogeneous(spec, RngStream(16, i))
            hits += int(((a[iu] == 1) & (b[iu] == 1)).sum())
            total += iu[0].size
        sd = math.sqrt(total * p11 * (1 - p11))
        assert abs(hits - total * p11) < 3 * sd

    def test_equal_marginals_match_rho_sbm_table(self):
        # with p = q the bivariate table reduces to the sequential
        # construction: Y|X=1 ~ Bern(p + rho(1-p)), Y|X=0 ~ Bern(p(1-rho))
        for p in (0.1, 0.3, 0.5, 0.8):
            for rho in (0.0, 0.25, 0.7):
                p11 = p * p + rho * math.sqrt((p * (1 - p)) ** 2)
                c1 = p11 / p
                c0 = (p - p11) / (1 - p)
                assert c1 == pytest.approx(p + rho * (1 - p), abs=1e-15)
                assert c0 == pytest.approx(p * (1 - rho), abs=1e-15)
        # and the drawn pairs coincide on a shared stream
        spec = self._const_pair(30, 0.3, 0.3, 0.5)
        ah, bh = sample_correlated_heterogeneous(spec, RngStream(55))
        ar, br = sample_rho_sbm(er_params(30, 0.3), 0.5, RngStream(55))
        assert np.array_equal(ah, ar) and np.array_equal(bh, br)

    def test_infeasible_rho_rejected(self):
        off = 1.0 - np.eye(4)
        with pytest.raises(ValueError):
            HeterogeneousPair(0.4 * off, 0.375 * off, 0.99 * off)

    @pytest.mark.parametrize("p, q, rho, match", [
        (np.full((2, 3), 0.5), np.full((2, 3), 0.5), np.zeros((2, 3)), "square"),
        (0.5 * (1 - np.eye(3)), 0.5 * (1 - np.eye(2)), np.zeros((3, 3)), "equal shape"),
        (np.triu(np.full((3, 3), 0.5), 1), 0.5 * (1 - np.eye(3)), np.zeros((3, 3)),
         "p must be symmetric to 1e-12"),
        (0.5 * (1 - np.eye(3)), 1.5 * (1 - np.eye(3)), np.zeros((3, 3)),
         r"q value 1.5 is outside \[0, 1\]"),
        (np.full((3, 3), 0.5), 0.5 * (1 - np.eye(3)), np.zeros((3, 3)),
         "p must have zero diagonal"),
        (0.5 * (1 - np.eye(3)), 0.5 * (1 - np.eye(3)), np.triu(np.full((3, 3), 0.2), 1),
         "rho must be symmetric to 1e-12"),
        (np.where(np.eye(3) == 1, 0.0, np.nan), 0.5 * (1 - np.eye(3)), np.zeros((3, 3)),
         "p entries must be finite"),
        (0.5 * (1 - np.eye(3)), np.where(np.eye(3) == 1, 0.0, np.inf), np.zeros((3, 3)),
         "q entries must be finite"),
        (0.5 * (1 - np.eye(3)), 0.5 * (1 - np.eye(3)), np.full((3, 3), np.nan),
         "rho entries must be finite"),
        # rho below the bound but so negative that P(0,0) < 0
        (0.9 * (1 - np.eye(3)), 0.9 * (1 - np.eye(3)), -0.99 * (1 - np.eye(3)),
         "joint table not a distribution"),
    ])
    def test_spec_rejected_when_built(self, p, q, rho, match):
        with pytest.raises(ValueError, match=match):
            HeterogeneousPair(p, q, rho)

    def test_conditional_tables_stored(self):
        spec = self._const_pair(4, 0.4, 0.375, 0.7)
        p11 = 0.15 + 0.7 * math.sqrt(0.4 * 0.6 * 0.375 * 0.625)
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(spec.given_edge[off], p11 / 0.4)
        assert np.allclose(spec.given_non_edge[off], (0.375 - p11) / 0.6)

    def test_draws_pinned(self):
        # cells at p = 0 and p = 1, q != p, rho at the feasible bound on
        # half the cells and rho = -0.2 on the other half
        n = 8
        gen = np.random.default_rng(12)
        p = np.triu(gen.uniform(0.2, 0.8, (n, n)), 1)
        q = np.triu(gen.uniform(0.2, 0.8, (n, n)), 1)
        p[0, 1:4] = 0.0
        p[1, 2:5] = 1.0
        p, q = p + p.T, q + q.T
        checker = np.add.outer(np.arange(n), np.arange(n)) % 2 == 0
        rho = np.where(checker, max_feasible_correlation(p, q), -0.2)
        np.fill_diagonal(rho, 0.0)
        spec = HeterogeneousPair(p, q, rho)
        digest = hashlib.sha256()
        for i in range(20):
            for g in sample_correlated_heterogeneous(spec, RngStream(70, i)):
                digest.update(g.tobytes())
        assert digest.hexdigest() == PINS["draws"]["heterogeneous-pair"]


class TestLatentPositions:
    def test_rows_on_simplex(self):
        x = sample_dirichlet_positions(50, RngStream(17))
        assert x.shape == (50, 3)
        assert np.allclose(x.sum(axis=1), 1.0)
        assert (x >= 0).all()

    def test_mean_row(self):
        x = sample_dirichlet_positions(20000, RngStream(18))
        assert np.allclose(x.mean(axis=0), [1 / 3] * 3, atol=0.01)

    def test_gram_entries_in_unit_interval(self):
        x = sample_dirichlet_positions(40, RngStream(19))
        p = x @ x.T
        assert (p > 0).all() and (p <= 1).all()

    def test_anomaly_perturb_identity_cases(self):
        x = sample_dirichlet_positions(10, RngStream(20))
        assert np.array_equal(anomaly_perturb(x, 5, 0.0, RngStream(21)), x)
        assert np.array_equal(anomaly_perturb(x, 0, 0.5, RngStream(22)), x)

    def test_anomaly_perturb_stays_on_simplex(self):
        x = sample_dirichlet_positions(10, RngStream(23))
        y = anomaly_perturb(x, 4, 0.2, RngStream(24))
        assert np.allclose(y.sum(axis=1), 1.0)
        assert np.array_equal(y[4:], x[4:])
        assert not np.array_equal(y[:4], x[:4])

    @pytest.mark.parametrize("n", [0, -2, 2.5, True])
    def test_dirichlet_positions_count(self, n):
        with pytest.raises(ValueError, match="n "):
            sample_dirichlet_positions(n, RngStream(35))

    @pytest.mark.parametrize("m, w, match", [(-1, 0.5, "m "), (11, 0.5, "m "), (2.5, 0.5, "m "),
                                             (True, 0.5, "m "),
                                             (2, -0.1, r"w value -0.1 is outside \[0, 1\]"),
                                             (2, 1.5, r"w value 1.5 is outside \[0, 1\]"),
                                             (2, math.nan, r"w value nan is outside \[0, 1\]")])
    def test_anomaly_perturb_arguments(self, m, w, match):
        x = sample_dirichlet_positions(10, RngStream(36))
        with pytest.raises(ValueError, match=match):
            anomaly_perturb(x, m, w, RngStream(37))


class TestPermutationSamplers:
    def test_n1_identity(self):
        assert sample_uniform_permutation(1, RngStream(25)).tolist() == [0]

    def test_block_permutation_preserves_membership(self):
        part = BlockPartition((5, 7, 3))
        for i in range(20):
            phi = sample_block_permutation(part, RngStream(26, i))
            assert np.array_equal(part.membership[phi], part.membership)

    def test_block_permutation_needs_a_partition(self):
        with pytest.raises(ValueError, match=r"^partition must be a BlockPartition, got \(2, 2\)$"):
            sample_block_permutation((2, 2), RngStream(26))

    def test_subset_shuffle_fixes_seeds(self):
        for i in range(20):
            phi = sample_subset_shuffle(12, [0, 3, 7], 5, RngStream(27, i))
            assert phi[0] == 0 and phi[3] == 3 and phi[7] == 7
            assert np.array_equal(np.sort(phi), np.arange(12))

    def test_subset_shuffle_moves_at_most_k(self):
        for i in range(20):
            phi = sample_subset_shuffle(10, [], 4, RngStream(28, i))
            assert int((phi != np.arange(10)).sum()) <= 4

    @pytest.mark.parametrize("seeds, k, match", [([0, 1], 4, r"k value 4 is outside \[0, 3\]"),
                                                 ([0, 0, 1], 4, r"k value 4 is outside \[0, 3\]"),
                                                 ([0, 5], 1, r"seed_set value 5 is outside \[0, 4\]"),
                                                 ([-1], 1, r"seed_set value -1 is outside \[0, 4\]"),
                                                 ([2.5], 1, "seed_set must be a sequence"),
                                                 ([True], 1, "seed_set must be a sequence")])
    def test_subset_shuffle_rejected(self, seeds, k, match):
        with pytest.raises(ValueError, match=match):
            sample_subset_shuffle(5, seeds, k, RngStream(29))

    @pytest.mark.parametrize("k", [-3, -1, True, 2.5, np.float64(2.0)])
    def test_subset_size_not_a_count(self, k):
        with pytest.raises(ValueError, match="k "):
            sample_subset_shuffle(6, [0], k, RngStream(30))

    @pytest.mark.parametrize("n", [-1, 2.5, True])
    def test_vertex_count_not_a_count(self, n):
        with pytest.raises(ValueError, match="n "):
            sample_uniform_permutation(n, RngStream(38))
        with pytest.raises(ValueError, match="n "):
            sample_subset_shuffle(n, [], 0, RngStream(39))


class TestShufflePair:
    def test_shuffle_then_unshuffle(self):
        params = er_params(10, 0.5)
        _, b = sample_rho_sbm(params, 0.5, RngStream(31))
        sigma = sample_uniform_permutation(10, RngStream(32))
        b_sh = apply_permutation(b, sigma)
        assert np.array_equal(apply_permutation(b_sh, invert_permutation(sigma)), b)

    def test_isomorphic_with_witness(self):
        params = er_params(15, 0.4)
        a, b = sample_rho_sbm(params, 1.0, RngStream(33))
        sigma = sample_uniform_permutation(15, RngStream(34))
        b_sh = apply_permutation(b, sigma)
        assert gm_objective(a, b_sh, invert_permutation(sigma)) == 0


class TestDeterminism:
    def test_identical_streams_identical_draws(self):
        params = SbmParams(BlockPartition((6, 6)), np.array([[0.5, 0.2], [0.2, 0.6]]))
        a1, b1 = sample_rho_sbm(params, 0.4, RngStream(99, 7))
        a2, b2 = sample_rho_sbm(params, 0.4, RngStream(99, 7))
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)

    def test_distinct_streams_differ(self):
        params = er_params(40, 0.5)
        a1, _ = sample_rho_sbm(params, 0.4, RngStream(99, 0))
        a2, _ = sample_rho_sbm(params, 0.4, RngStream(99, 1))
        assert not np.array_equal(a1, a2)

    @pytest.mark.parametrize("rng", [7, None, np.random.RandomState(0)])
    def test_rng_neither_stream_nor_generator(self, rng):
        with pytest.raises(ValueError, match="RngStream or numpy Generator"):
            _as_generator(rng)
