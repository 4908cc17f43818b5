import itertools
import math

import mpmath
import numpy as np
import pytest

from corrmatch import (
    BlockPartition,
    SbmParams,
    bernoulli_pair_mi,
    brute_force_pair_mi,
    er_params,
    mi_small_rho_ratio,
    rho_sbm_mi,
    sbm_entropy,
)


def table_mi_oracle(p, rho):
    """Direct 2x2-table mutual information, independent of the closed form."""
    p11 = p * (p + rho * (1 - p))
    cells = {(1, 1): p11, (1, 0): p - p11, (0, 1): p - p11, (0, 0): 1 - 2 * p + p11}
    marg = {0: 1 - p, 1: p}
    total = 0.0
    for (x, y), joint in cells.items():
        if joint > 0:
            total += joint * math.log(joint / (marg[x] * marg[y]))
    return total


def mpmath_mi_oracle(p, rho):
    """The three-term closed form at 60 significant digits, where its
    O(rho) cancellation costs nothing at double precision."""
    with mpmath.workdps(60):
        p, r = mpmath.mpf(p), mpmath.mpf(rho)
        q = 1 - p
        return (p * (p + r * q) * mpmath.log1p(r * q / p)
                + 2 * p * q * (1 - r) * mpmath.log1p(-r)
                + q * (q + p * r) * mpmath.log1p(r * p / q))


def entropy_enumeration_oracle(params):
    """-sum P(g) log P(g) over all graphs, from per-pair marginals."""
    b = params.partition.membership
    n = params.n
    pair_probs = [params.lam[b[u], b[v]] for u in range(n) for v in range(u + 1, n)]
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(pair_probs)):
        prob = 1.0
        for x, pe in zip(bits, pair_probs):
            prob *= pe if x else (1 - pe)
        if prob > 0:
            total -= prob * math.log(prob)
    return total


K2_EXAMPLE = SbmParams(BlockPartition((2, 2)), np.array([[0.5, 0.3], [0.3, 0.5]]))


class TestBernoulliPairMi:
    def test_independence_is_zero(self):
        assert bernoulli_pair_mi(0.5, 0.0) == 0.0

    def test_isomorphic_is_entropy(self):
        assert bernoulli_pair_mi(0.5, 1.0) == pytest.approx(math.log(2), abs=1e-12)
        for p in (0.1, 0.37, 0.9):
            entropy = -p * math.log(p) - (1 - p) * math.log1p(-p)
            assert bernoulli_pair_mi(p, 1.0) == pytest.approx(entropy, abs=1e-15)

    def test_against_table_oracle(self):
        # frozen from the oracle: table {0.574, 0.126, 0.126, 0.174}
        assert table_mi_oracle(0.3, 0.4) == pytest.approx(0.0768012612301816, abs=1e-12)
        for p in (0.05, 0.3, 0.5, 0.62, 0.95):
            for rho in (0.01, 0.2, 0.4, 0.85, 0.999):
                assert bernoulli_pair_mi(p, rho) == pytest.approx(
                    table_mi_oracle(p, rho), abs=1e-12)

    @pytest.mark.parametrize("p", [1e-8, 0.05, 0.3, 0.5, 0.62, 0.95, 1 - 1e-6])
    def test_against_mpmath_down_to_tiny_rho(self, p):
        for rho in (0.999, 0.9, 0.6, 0.5, 0.3, 0.1, 1e-2, 1e-4, 1e-7, 1e-10, 1e-12, 1e-15):
            exact = mpmath_mi_oracle(p, rho)
            assert abs(bernoulli_pair_mi(p, rho) - exact) <= 1e-14 * exact, rho

    def test_degenerate_p(self):
        assert bernoulli_pair_mi(0.0, 0.7) == 0.0
        assert bernoulli_pair_mi(1.0, 0.7) == 0.0

    def test_symmetric_in_p(self):
        for p in (0.1, 0.25, 0.49):
            for rho in (0.3, 0.8):
                assert bernoulli_pair_mi(p, rho) == pytest.approx(
                    bernoulli_pair_mi(1 - p, rho), abs=1e-12)

    def test_nonnegative_and_zero_iff(self):
        for p in (0.2, 0.5, 0.9):
            for rho in (0.1, 0.5, 1.0):
                assert bernoulli_pair_mi(p, rho) > 0.0

    def test_monotone_in_rho(self):
        grid = np.linspace(0.0, 1.0, 21)
        vals = [bernoulli_pair_mi(0.35, r) for r in grid]
        assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))

    def test_range_errors(self):
        for call, value in ((lambda: bernoulli_pair_mi(-0.1, 0.5), "p value -0.1"),
                            (lambda: bernoulli_pair_mi(math.nan, 0.5), "p value nan"),
                            (lambda: bernoulli_pair_mi(0.5, 1.5), "rho value 1.5"),
                            (lambda: bernoulli_pair_mi(0.5, math.nan), "rho value nan"),
                            (lambda: brute_force_pair_mi(er_params(3, 0.5), math.nan),
                             "rho value nan")):
            with pytest.raises(ValueError, match=value + r" is outside \[0, 1\]"):
                call()


class TestRhoSbmMi:
    def test_zero_rho(self):
        assert rho_sbm_mi(K2_EXAMPLE, 0.0) == 0.0

    def test_three_vertex_isomorphic(self):
        assert rho_sbm_mi(er_params(3, 0.5), 1.0) == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_pair_counts_sum(self):
        # every vertex pair counts once: H(G1) = I(G1; G1) = C(n, 2) log 2 when every lambda is 1/2
        halves = SbmParams(BlockPartition((3, 4)), np.full((2, 2), 0.5))
        for total in (sbm_entropy(halves), rho_sbm_mi(halves, 1.0)):
            assert total == pytest.approx(7 * 6 // 2 * math.log(2), abs=1e-12)

    def test_k2_example_matches_brute_force(self):
        closed = rho_sbm_mi(K2_EXAMPLE, 0.4)
        assert closed == pytest.approx(2 * bernoulli_pair_mi(0.5, 0.4)
                                       + 4 * bernoulli_pair_mi(0.3, 0.4), abs=1e-12)
        assert closed == pytest.approx(brute_force_pair_mi(K2_EXAMPLE, 0.4), abs=1e-9)


class TestSbmEntropy:
    def test_zero_lambda(self):
        assert sbm_entropy(SbmParams(BlockPartition((4,)), np.array([[0.0]]))) == 0.0

    def test_er_half(self):
        assert sbm_entropy(er_params(4, 0.5)) == pytest.approx(6 * math.log(2), abs=1e-12)

    def test_against_enumeration(self):
        assert sbm_entropy(K2_EXAMPLE) == pytest.approx(
            entropy_enumeration_oracle(K2_EXAMPLE), abs=1e-10)


class TestBruteForce:
    def test_zero_rho(self):
        assert brute_force_pair_mi(K2_EXAMPLE, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_rho_one_equals_entropy(self):
        assert brute_force_pair_mi(K2_EXAMPLE, 1.0) == pytest.approx(
            sbm_entropy(K2_EXAMPLE), abs=1e-9)

    def test_matches_closed_form_random_params(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 3))
            if k == 1 or n < 2:
                params = er_params(n, float(rng.uniform(0.05, 0.95)))
            else:
                n1 = int(rng.integers(1, n))
                lam = rng.uniform(0.05, 0.95, size=(2, 2))
                lam = (lam + lam.T) / 2
                params = SbmParams(BlockPartition((n1, n - n1)), lam)
            rho = float(rng.choice([0.0, 0.25, 0.5, 0.9, 1.0]))
            assert abs(rho_sbm_mi(params, rho) - brute_force_pair_mi(params, rho)) < 1e-9

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            brute_force_pair_mi(er_params(7, 0.5), 0.5)


class TestSmallRhoRatio:
    def test_rho_one_half_p(self):
        # h(1/2) / (1/2) = 2 ln 2
        assert mi_small_rho_ratio(er_params(10, 0.5), 1.0) == pytest.approx(
            2 * math.log(2), abs=1e-12)

    def test_monotone_approach_to_one(self):
        params = er_params(100, 0.3)
        r1 = mi_small_rho_ratio(params, 0.1)
        r2 = mi_small_rho_ratio(params, 0.01)
        r3 = mi_small_rho_ratio(params, 0.001)
        assert abs(r3 - 1) < abs(r2 - 1) < abs(r1 - 1)
        assert abs(r3 - 1) < 5e-3

    def test_asymptotic_bracket(self):
        for p in (0.3, 0.5):
            ratio = mi_small_rho_ratio(er_params(200, p), 0.01)
            assert 0.98 <= ratio <= 1.02

    def test_rho_zero_rejected(self):
        with pytest.raises(ValueError):
            mi_small_rho_ratio(er_params(10, 0.5), 0.0)

    def test_one_vertex_rejected(self):
        # C(1, 2) = 0 vertex pairs: the ratio has no denominator
        with pytest.raises(ValueError, match=r"^n value 1 is outside \[2, inf\)$"):
            mi_small_rho_ratio(er_params(1, 0.5), 0.5)


@pytest.mark.parametrize("call", [
    lambda params: rho_sbm_mi(params, 0.5),
    sbm_entropy,
    lambda params: mi_small_rho_ratio(params, 0.5),
    lambda params: brute_force_pair_mi(params, 0.5),
], ids=["rho_sbm_mi", "sbm_entropy", "mi_small_rho_ratio", "brute_force_pair_mi"])
@pytest.mark.parametrize("params", [None, "er", (3,)])
def test_model_that_is_not_one_rejected(call, params):
    with pytest.raises(ValueError, match="^params must be a SbmParams, got "):
        call(params)


class TestDataProcessingBound:
    def test_mi_below_entropy(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = float(rng.uniform(0.05, 0.95))
            rho = float(rng.uniform(0.0, 1.0))
            params = er_params(int(rng.integers(2, 30)), p)
            assert rho_sbm_mi(params, rho) <= sbm_entropy(params) + 1e-12
