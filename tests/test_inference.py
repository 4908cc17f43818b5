import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from corrmatch import (
    apply_permutation,
    invariant_stat,
    paired_z,
    phase_transition_experiment,
    pooled_z,
    power_er_experiment,
    power_omni_experiment,
    sample_edge_correlation,
)
from corrmatch.graphs import BlockPartition, graph_from_edges
from corrmatch.samplers import SbmParams
from helpers import complete_graph, random_graph


class TestPooledZ:
    def test_equal_edge_counts(self):
        a = graph_from_edges(4, [(0, 1), (2, 3)])
        b = graph_from_edges(4, [(0, 2), (1, 3)])
        assert pooled_z(a, b) == 0.0

    def test_hand_case(self):
        # n=3: densities 2/3 and 1/3, pooled 1/2
        a = graph_from_edges(3, [(0, 1), (1, 2)])
        b = graph_from_edges(3, [(0, 1)])
        expected = (1 / 3) / math.sqrt(2 * 0.25 / 3)
        assert pooled_z(a, b) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8165, abs=1e-4)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(1)
        a = random_graph(10, 0.3, rng)
        b = random_graph(10, 0.6, rng)
        assert pooled_z(a, b) == pooled_z(b, a)

    def test_degenerate_density(self):
        assert pooled_z(graph_from_edges(4, ()), graph_from_edges(4, ())) == 0.0
        assert pooled_z(complete_graph(4), complete_graph(4)) == 0.0

    @pytest.mark.parametrize("stat", [pooled_z, paired_z])
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices_rejected(self, stat, n):
        with pytest.raises(ValueError, match="n >= 2"):
            stat(graph_from_edges(n, ()), graph_from_edges(n, ()))


# The pooled test's critical value is ndtri(1 - alpha/2); scipy.stats is the oracle.
def assert_ndtri_is_norm_ppf(alpha):
    q = 1.0 - alpha / 2.0
    assert float(ndtri(q)).hex() == float(norm.ppf(q)).hex()


@pytest.mark.parametrize("alpha", [1e-300, 1e-12, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9, 0.999])
def test_normal_critical_value_grid(alpha):
    assert_ndtri_is_norm_ppf(alpha)


@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_normal_critical_value_bitwise(alpha):
    assert_ndtri_is_norm_ppf(alpha)


class TestPairedZ:
    def test_exact_zero_correlation_matches_pooled(self):
        # upper-tri vectors (1,1,1,0,0,0) and (1,0,0,1,0,0) have sample
        # correlation exactly 0
        a = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        b = graph_from_edges(4, [(0, 1), (1, 2)])
        assert sample_edge_correlation(a, b) == 0.0
        assert paired_z(a, b) == pooled_z(a, b)

    def test_positive_correlation_inflates(self):
        a = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        b = graph_from_edges(4, [(0, 1), (0, 2)])
        assert sample_edge_correlation(a, b) > 0.0
        assert paired_z(a, b) > pooled_z(a, b)

    def test_identical_graphs(self):
        rng = np.random.default_rng(2)
        a = random_graph(8, 0.5, rng)
        assert paired_z(a, a) == 0.0


class TestInvariantStat:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(3)
        a = random_graph(9, 0.5, rng)
        for kind in ("max_degree", "triangles", "spectral"):
            assert invariant_stat(a, a, kind) == 0.0

    def test_label_free(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_graph(12, 0.4, rng)
            b = random_graph(12, 0.4, rng)
            sigma = rng.permutation(12)
            # integer invariants are exactly label-free; the spectral norm
            # only up to eigensolver roundoff
            for kind in ("max_degree", "triangles"):
                assert invariant_stat(a, apply_permutation(b, sigma), kind) == \
                    invariant_stat(a, b, kind)
            assert invariant_stat(a, apply_permutation(b, sigma), "spectral") == \
                pytest.approx(invariant_stat(a, b, "spectral"), abs=1e-9)

    def test_k4_vs_empty(self):
        k4 = complete_graph(4)
        e4 = graph_from_edges(4, ())
        assert invariant_stat(k4, e4, "max_degree") == 3.0
        assert invariant_stat(k4, e4, "triangles") == 4.0
        assert invariant_stat(k4, e4, "spectral") == pytest.approx(3.0, abs=1e-9)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            invariant_stat(graph_from_edges(2, ()), graph_from_edges(2, ()), "girth")


class TestPhaseTransitionExperiment:
    def test_small_run_schema_and_determinism(self):
        params = SbmParams(BlockPartition((10, 10)),
                           np.array([[0.5, 0.2], [0.2, 0.5]]))
        rows1 = phase_transition_experiment(mc_reps=3, master_seed=1,
                                            rho_grid=(0.0, 1.0), params=params)
        rows2 = phase_transition_experiment(mc_reps=3, master_seed=1,
                                            rho_grid=(0.0, 1.0), params=params)
        assert rows1 == rows2
        variants = {r["variant"] for r in rows1}
        assert variants == {"disagreements_identity", "disagreements_matched",
                            "correlation_matched", "correlation_shuffled"}

    def test_isomorphic_case_zeroes(self):
        params = SbmParams(BlockPartition((12,)), np.array([[0.4]]))
        rows = phase_transition_experiment(mc_reps=4, master_seed=2,
                                           rho_grid=(1.0,), params=params)
        by = {r["variant"]: r["mean"] for r in rows}
        assert by["disagreements_identity"] == 0.0
        assert by["disagreements_matched"] == 0.0


class TestPowerErExperiment:
    def test_tiny_run_schema(self):
        rows = power_er_experiment(p=0.5, q=0.3, n=16, rho=0.4,
                                   s_grid=(0, 16), x_grid=(0, 8),
                                   alpha=0.1, mc_reps=10, n_null=19,
                                   master_seed=4)
        assert len(rows) == 2 * 2 * 3
        assert {r["variant"] for r in rows} == {"paired", "pooled", "matched"}
        for r in rows:
            assert 0.0 <= r["power"] <= 1.0
            assert r["std_err"] <= 0.5

    def test_all_seeded_power_independent_of_x(self):
        rows = power_er_experiment(p=0.5, q=0.3, n=14, rho=0.4,
                                   s_grid=(14,), x_grid=(0, 7, 14),
                                   alpha=0.1, mc_reps=12, n_null=19,
                                   master_seed=5)
        paired = [r["power"] for r in rows if r["variant"] == "paired"]
        assert len(set(paired)) == 1

    def test_infeasible_rho_rejected(self):
        with pytest.raises(ValueError):
            power_er_experiment(p=0.9, q=0.1, n=10, rho=0.9,
                                s_grid=(0,), x_grid=(0,),
                                mc_reps=2, n_null=19, alpha=0.1)

    @pytest.mark.parametrize("name", ["p", "q", "rho", "null_edge_p"])
    @pytest.mark.parametrize("value", [math.nan, 1.5, -0.1, math.inf])
    def test_probabilities_checked_first(self, name, value):
        # before the feasibility check, and naming the argument
        with pytest.raises(ValueError, match=f"^{name} value {value} is outside"):
            power_er_experiment(n=6, s_grid=(0,), x_grid=(0,), mc_reps=2, n_null=20,
                                **{name: value})

    def test_determinism(self):
        kwargs = dict(p=0.5, q=0.3, n=12, rho=0.4, s_grid=(0,), x_grid=(6,),
                      alpha=0.1, mc_reps=6, n_null=19, master_seed=6)
        assert power_er_experiment(**kwargs) == power_er_experiment(**kwargs)

    def test_level_held_at_the_null(self):
        # p = q: every row is a rejection rate under the null. The paired and
        # matched tests are calibrated on n_null draws, so their level carries
        # the critical value's own noise, Beta(n_null + 1 - rank, rank), on top
        # of the replicates'; the pooled test's normal critical value has none
        alpha, mc_reps, n_null = 0.05, 400, 199
        rows = power_er_experiment(p=0.4, q=0.4, n=20, rho=0.7, s_grid=(0, 10),
                                   x_grid=(0, 10, 20), alpha=alpha, mc_reps=mc_reps,
                                   n_null=n_null, master_seed=3)
        var = alpha * (1.0 - alpha)
        replicate_only = alpha + 3.0 * math.sqrt(var / mc_reps)
        with_null = alpha + 3.0 * math.sqrt(var / mc_reps + var / (n_null + 2))
        assert len(rows) == 2 * 3 * 3
        for r in rows:
            bound = replicate_only if r["variant"] == "pooled" else with_null
            assert r["power"] <= bound, (r, bound)


class TestPowerOmniExperiment:
    def test_tiny_run_invariants_constant_in_x(self):
        rows = power_omni_experiment(n=24, d=3, num_anomalous=6, mix_w=0.2,
                                     x_grid=(0, 8, 16), alpha=0.1, mc_reps=8,
                                     n_null=19, master_seed=7)
        for kind in ("max_degree", "triangles", "spectral"):
            powers = [r["power"] for r in rows if r["variant"] == kind]
            assert len(set(powers)) == 1

    def test_x_zero_omni_equals_matched(self):
        rows = power_omni_experiment(n=20, d=3, num_anomalous=5, mix_w=0.2,
                                     x_grid=(0,), alpha=0.1, mc_reps=8,
                                     n_null=19, master_seed=8)
        by = {r["variant"]: r["power"] for r in rows}
        assert by["omni_shuffled"] == by["omni_matched"]

    def test_identical_pairs_skip_the_embedding(self, monkeypatch):
        # the null pairs at x = 0, and those that matching recovers, are a
        # graph beside itself: t2_omni scores them 0 without calling ase
        from corrmatch import embedding
        real_ase = embedding.ase
        halves_equal = []

        def recording_ase(m, d):
            n = m.shape[0] // 2
            halves_equal.append(np.array_equal(m[:n, :n], m[n:, n:]))
            return real_ase(m, d)

        monkeypatch.setattr(embedding, "ase", recording_ase)
        power_omni_experiment(n=20, d=3, num_anomalous=5, x_grid=(0, 10), alpha=0.1,
                              mc_reps=4, n_null=19, master_seed=8)
        assert halves_equal and not any(halves_equal)

    def test_graph_equal_to_b_reuses_t2(self, monkeypatch):
        # x = 0 leaves b as it is, and matching may restore it: both reuse
        # the replicate's one T2(a, b) instead of embedding (a, b) again
        from corrmatch import embedding, inference
        real_ase = embedding.ase
        real_sample = inference.sample_correlated_heterogeneous
        seen, pairs = [], []

        def recording_ase(m, d):
            seen.append(np.asarray(m).tobytes())
            return real_ase(m, d)

        def recording_sample(spec, gen):
            a, b = real_sample(spec, gen)
            pairs.append(embedding.omnibus(a, b).tobytes())
            return a, b

        monkeypatch.setattr(embedding, "ase", recording_ase)
        monkeypatch.setattr(inference, "sample_correlated_heterogeneous", recording_sample)
        power_omni_experiment(n=20, d=3, num_anomalous=5, x_grid=(0, 4), alpha=0.1,
                              mc_reps=4, n_null=19, master_seed=8)
        assert len(pairs) == 4
        # no replicate embeds its (a, b) twice (a pair with a == b is never embedded)
        counts = [seen.count(p) for p in pairs]
        assert max(counts) == 1, counts

    @pytest.mark.parametrize("x_grid, drawn", [((0, 10), {1, 2}), ((10, 0), {0, 2})])
    def test_x_zero_null_cell_draws_nothing(self, monkeypatch, x_grid, drawn):
        # x = 0 shuffles nothing: its critical value is (0, 0) without a draw,
        # while the other x cell and the invariants' last cell draw n_null each
        from corrmatch._parallel import MonteCarlo
        real_generator = MonteCarlo.generator
        null_cells = []

        def spy(self, role, *index):
            if role == "null":
                null_cells.append(index[0])
            return real_generator(self, role, *index)

        monkeypatch.setattr(MonteCarlo, "generator", spy)
        rows = power_omni_experiment(n=20, d=3, num_anomalous=5, x_grid=x_grid, alpha=0.1,
                                     mc_reps=3, n_null=19, master_seed=8)
        assert set(null_cells) == drawn
        assert all(null_cells.count(cell) == 19 for cell in drawn)
        assert len(rows) == 2 * 5

    def test_exact_copy_null_rejects_nothing(self):
        # num_anomalous=0: every replicate pair is a graph and its exact copy
        rows = power_omni_experiment(n=40, num_anomalous=0, x_grid=(0, 10, 20, 30),
                                     mc_reps=20, n_null=20, master_seed=3)
        for r in rows:
            if r["variant"] != "omni_shuffled" or r["x"] == 0:
                assert r["power"] == 0.0, r

    def test_determinism(self):
        kwargs = dict(n=18, d=3, num_anomalous=4, mix_w=0.2, x_grid=(6,),
                      alpha=0.1, mc_reps=5, n_null=19, master_seed=9)
        assert power_omni_experiment(**kwargs) == power_omni_experiment(**kwargs)
