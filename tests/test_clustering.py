import numpy as np
import pytest
from scipy.special import logsumexp

from corrmatch import (
    BlockPartition,
    SbmParams,
    ari,
    ase,
    cluster_gain_experiment,
    cluster_real_experiment,
    fit_gmm,
    joint_cluster,
    omnibus,
    sample_rho_sbm,
    shuffle_cluster_experiment,
    single_cluster,
    stream,
)
from corrmatch import _parallel
from corrmatch.clustering import _kmeanspp_centers
from corrmatch.inference import (
    phase_transition_experiment,
    power_er_experiment,
    power_omni_experiment,
)


TWO_BLOCK_STRONG = SbmParams(BlockPartition((50, 50)),
                             np.array([[0.9, 0.05], [0.05, 0.9]]))


def _inv_whiten(chol, rhs):
    return np.linalg.inv(chol) @ rhs


def _shifted_logsumexp(log_prob):
    """fit_gmm's max-shifted log-sum-exp over axis 0 of a (k, n) array."""
    top = log_prob.max(axis=0)
    return np.log(np.exp(log_prob - top).sum(axis=0)) + top


def _log_gaussian(points, mean, cov, whiten=_inv_whiten):
    """Log-density of N(mean, cov) at each row of points; ``whiten(chol,
    rhs)`` solves chol @ sol = rhs."""
    d = points.shape[1]
    chol = np.linalg.cholesky(cov)
    diff = points - mean
    sol = whiten(chol, diff.T)
    maha = (sol ** 2).sum(axis=0)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)


def reference_fit_gmm(points, k, rng, restarts=5, max_iters=200, tol=1e-6,
                      whiten=_inv_whiten, lse=_shifted_logsumexp):
    """Per-component EM on (k, n) responsibilities, one restart after
    another: the oracle for fit_gmm, which must reproduce it bit for bit
    with the default ``whiten`` and ``lse`` (the log-sum-exp over axis
    0). Also returns every restart's trace."""
    x = np.asarray(points, dtype=np.float64)
    n, d = x.shape
    eps = 1e-6 * float(np.var(x, axis=0).mean())
    if eps <= 0.0:
        eps = 1e-6
    reg = eps * np.eye(d)
    best = None
    traces = []
    for _ in range(restarts):
        centers = _kmeanspp_centers(x, k, rng)
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
        trace = []
        for it in range(max_iters):
            log_prob = np.stack(
                [np.log(weights[j]) + _log_gaussian(x, means[j], covs[j], whiten)
                 for j in range(k)],
                axis=0,
            )
            norm = lse(log_prob)
            log_resp = log_prob - norm
            trace.append(float(norm.sum()))
            if it > 0 and abs(trace[-1] - trace[-2]) < tol:
                break
            resp = np.exp(log_resp)
            nk = np.maximum(resp.sum(axis=1), 1e-300)
            weights = nk / n
            means = (resp @ x) / nk[:, None]
            for j in range(k):
                diff = x - means[j]
                covs[j] = (resp[j][:, None] * diff).T @ diff / nk[j] + reg
        labels = np.argmax(log_resp, axis=0).astype(np.int64)
        traces.append(tuple(trace))
        if best is None or trace[-1] > best[4][-1]:
            best = (labels, weights.copy(), means.copy(), covs.copy(), tuple(trace))
    return best + (traces,)


def assert_independent_oracles(x, k, rng, restarts, max_iters, model, labels, rtol=1e-12):
    """Oracles that share none of fit_gmm's whitening or log-sum-exp. The
    LU solve and scipy's logsumexp round differently: equal labels and
    stopping iterations, traces within ``rtol``. A fit that stopped on
    tol keeps the parameters of its last E-step, so its log-likelihood is
    the mixture density of the returned model under scipy.stats."""
    from scipy.stats import multivariate_normal

    ref_labels, _, means, covs, trace, _ = reference_fit_gmm(
        x, k, rng, restarts=restarts, max_iters=max_iters, whiten=np.linalg.solve,
        lse=lambda log_prob: logsumexp(log_prob, axis=0))
    assert np.array_equal(labels, ref_labels)
    assert len(model.loglik_trace) == len(trace)
    np.testing.assert_allclose(model.loglik_trace, trace, rtol=rtol, atol=0)
    np.testing.assert_allclose(model.means, means, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(model.covariances, covs, rtol=1e-9, atol=1e-12)
    if len(trace) < max_iters:
        dens = [np.log(w) + multivariate_normal.logpdf(x, m, c).reshape(-1)
                for w, m, c in zip(model.weights, model.means, model.covariances)]
        assert model.loglik == pytest.approx(float(logsumexp(dens, axis=0).sum()),
                                             rel=1e-12, abs=1e-9)


class TestFitGmm:
    def test_single_component_moments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 2)) @ np.array([[1.0, 0.3], [0.0, 0.7]])
        model, labels = fit_gmm(x, 1, stream(1, 0), restarts=1)
        eps = 1e-6 * x.var(axis=0).mean()
        assert np.allclose(model.means[0], x.mean(axis=0), atol=1e-9)
        expected_cov = np.cov(x.T, bias=True) + eps * np.eye(2)
        assert np.allclose(model.covariances[0], expected_cov, atol=1e-8)
        assert labels.tolist() == [0] * 200

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(60, 2))
        b = rng.normal(size=(60, 2)) + 20.0
        x = np.vstack([a, b])
        truth = np.array([0] * 60 + [1] * 60)
        _, labels = fit_gmm(x, 2, stream(3, 0))
        assert ari(labels, truth) == 1.0

    def test_loglik_trace_nondecreasing(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=(80, 2)) + rng.choice([0.0, 3.0], size=(80, 1))
            model, _ = fit_gmm(x, 2, stream(5, 0), restarts=2)
            trace = model.loglik_trace
            assert all(t2 >= t1 - 1e-8 for t1, t2 in zip(trace, trace[1:]))

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 3))
        model, _ = fit_gmm(x, 3, stream(7, 0))
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert (model.weights >= 0).all()

    def test_deterministic_given_stream(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 2))
        m1, l1 = fit_gmm(x, 2, stream(9, 0), restarts=3)
        m2, l2 = fit_gmm(x, 2, stream(9, 0), restarts=3)
        assert np.array_equal(l1, l2)
        assert m1.loglik == m2.loglik

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            fit_gmm(np.zeros((3, 2)), 4, stream(10, 0))

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -1},
                                        {"max_iters": 0}, {"max_iters": -3},
                                        {"k": 2.0}, {"k": True}, {"restarts": 2.5},
                                        {"restarts": True}, {"max_iters": 3.5},
                                        {"tol": np.nan}, {"tol": -1.0}, {"tol": np.inf},
                                        {"k": 21}, {"k": np.nan}])
    def test_rejects_nonpositive_counts(self, kwargs):
        x = np.random.default_rng(17).normal(size=(20, 2))
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            fit_gmm(x, **{"k": 2, "rng": stream(18, 0), **kwargs})

    def test_rejects_fewer_than_two_points(self):
        # np.cov of one point is NaN: the fit came back with a NaN loglik
        with pytest.raises(ValueError, match="at least 2 points"):
            fit_gmm(np.array([[1.0, 2.0]]), 1, stream(21, 0))

    @pytest.mark.parametrize("x, k", [
        (np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0]]), 1),  # NaN loglik
        (np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0]]), 2),  # "contain NaN"
        # the variance is finite, k-means++'s total squared distance is not
        (np.tile([[1e153, 0.0], [-1e153, 0.0], [0.0, 1.0]], (200, 1)), 2),
    ])
    def test_rejects_points_whose_squares_overflow(self, x, k):
        with pytest.raises(ValueError, match="too spread out.*rescale"):
            fit_gmm(x, k, stream(22, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_points(self, bad):
        x = np.random.default_rng(19).normal(size=(20, 2))
        x[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_gmm(x, 2, stream(20, 0))


class TestFitGmmOracle:
    """The vectorised EM, with its restarts in lockstep, equals the
    per-component, per-restart loop exactly, and the independent oracles
    within their tolerances."""

    @pytest.mark.parametrize("d, k", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3),
                                      (2, 4), (4, 2), (5, 3), (3, 5), (6, 2)])
    def test_bit_identical_to_per_component_em(self, d, k):
        rng = np.random.default_rng(100 * d + k)
        for rep in range(3):
            n = int(rng.integers(max(k, 20), 90))
            x = rng.normal(size=(n, d)) + rng.choice([0.0, 2.5, 6.0], size=(n, 1))
            model, labels = fit_gmm(x, k, stream(rep, 0), restarts=3)
            ref_labels, weights, means, covs, trace, _ = reference_fit_gmm(
                x, k, stream(rep, 0), restarts=3)
            assert np.array_equal(labels, ref_labels)
            assert model.loglik_trace == trace
            assert np.array_equal(model.means, means)
            assert np.array_equal(model.covariances, covs)
            assert np.array_equal(model.weights, weights)
            assert_independent_oracles(x, k, stream(rep, 0), 3, 200, model, labels)

    @staticmethod
    def _assert_matches_oracle(x, k, seed, restarts, max_iters):
        gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        model, labels = fit_gmm(x, k, gen, restarts=restarts, max_iters=max_iters)
        ref_labels, weights, means, covs, trace, traces = reference_fit_gmm(
            x, k, ref_gen, restarts=restarts, max_iters=max_iters)
        assert np.array_equal(labels, ref_labels)
        assert model.loglik_trace == trace
        assert np.array_equal(model.means, means)
        assert np.array_equal(model.covariances, covs)
        assert np.array_equal(model.weights, weights)
        # callers share one generator between fits, so draw order is
        # part of the contract
        assert gen.bit_generator.state == ref_gen.bit_generator.state
        # a component collapsing onto the duplicates passes through
        # covariances of condition number up to ~6e3 (one eigenvalue at the
        # ridge eps), where the two whitenings differ by about cond * 2**-52:
        # traces move by up to 2.7e-11 relative; distinct points, < 1e-15
        assert_independent_oracles(x, k, np.random.default_rng(seed), restarts, max_iters,
                                   model, labels, rtol=1e-10)
        return traces

    @pytest.mark.parametrize("restarts", [1, 2, 5])
    @pytest.mark.parametrize("max_iters", [1, 3, 200])
    def test_lockstep_restarts_bit_identical(self, restarts, max_iters):
        rng = np.random.default_rng(10 * restarts + max_iters)
        uneven = False
        for d, k in [(1, 2), (2, 2), (2, 3), (3, 2), (2, 4)]:
            n = int(rng.integers(max(k, 20), 120))
            x = rng.normal(size=(n, d)) + rng.choice([0.0, 2.5, 6.0], size=(n, 1))
            x[: n // 4] = x[0]  # duplicate points
            traces = self._assert_matches_oracle(x, k, d + 7 * k, restarts, max_iters)
            lengths = {len(t) for t in traces}
            if len(lengths) > 1:
                uneven = True
                # caps between the shortest and the longest run: in one
                # stack, some restarts stop early and the others hit the cap
                for cap in sorted(lengths)[1:]:
                    self._assert_matches_oracle(x, k, d + 7 * k, restarts, cap - 1)
        if restarts > 1 and max_iters == 200:
            assert uneven, "no case had restarts stopping at different iterations"

    def test_bit_identical_on_omnibus_embedding(self):
        params = SbmParams(BlockPartition((50, 50)),
                           np.array([[0.1, 0.05], [0.05, 0.2]]))
        for rep in range(3):
            g1, g2 = sample_rho_sbm(params, 0.5, stream(rep, 0))
            z = ase(omnibus(g1, g2), 2)
            model, labels = fit_gmm(z, 2, stream(rep, 0), restarts=3)
            ref_labels, _, means, covs, trace, _ = reference_fit_gmm(z, 2, stream(rep, 0),
                                                                     restarts=3)
            assert np.array_equal(labels, ref_labels)
            assert model.loglik_trace == trace
            assert np.array_equal(model.means, means)
            assert np.array_equal(model.covariances, covs)
            assert_independent_oracles(z, 2, stream(rep, 0), 3, 200, model, labels)

    def test_logsumexp_matches_scipy(self):
        rng = np.random.default_rng(21)
        a = rng.normal(scale=30.0, size=(500, 9))
        a[:50, 1] = a[:50, 0]  # two entries tie for the row maximum
        a[:50, 2:] = a[:50, [0]] - rng.uniform(0.0, 5.0, size=(50, 7))
        a[50:60] = 7.25  # every entry ties
        for k in (1, 2, 3, 4, 9):
            part = a[:, :k]
            np.testing.assert_allclose(_shifted_logsumexp(np.ascontiguousarray(part.T)),
                                       logsumexp(part, axis=1), rtol=1e-15, atol=0)


class TestAri:
    def test_identical_is_one(self):
        labels = np.array([0, 0, 1, 2, 2, 1])
        assert ari(labels, labels) == 1.0

    def test_renaming_invariance(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([5, 5, 9, 9, 7, 7])
        assert ari(a, b) == 1.0

    def test_one_cluster_vs_singletons(self):
        assert ari(np.zeros(5, dtype=int), np.arange(5)) == 0.0

    def test_hand_contingency_case(self):
        # contingency of (1,1,2,2,3,3) vs (1,1,2,3,3,3):
        # index=2, expected=0.8, max=3.5 -> (2-0.8)/(3.5-0.8) = 4/9
        a = np.array([1, 1, 2, 2, 3, 3])
        b = np.array([1, 1, 2, 3, 3, 3])
        assert ari(a, b) == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 3, size=30)
        b = rng.integers(0, 4, size=30)
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)

    def test_degenerate_both_trivial(self):
        assert ari(np.zeros(4, dtype=int), np.zeros(4, dtype=int)) == 1.0
        assert ari(np.arange(4), np.arange(4)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ari(np.zeros(3), np.zeros(4))


class TestJointCluster:
    def test_strong_signal_recovers_blocks(self):
        gen = stream(12, 0)
        g1, g2 = sample_rho_sbm(TWO_BLOCK_STRONG, 0.8, gen)
        labels_a, labels_b = joint_cluster(g1, g2, 2, 2, stream(13, 0))
        truth = TWO_BLOCK_STRONG.partition.membership
        assert ari(labels_a, truth) >= 0.9
        assert labels_a.shape == (100,) and labels_b.shape == (100,)

    def test_nested_lists_read_like_arrays(self):
        g1, g2 = sample_rho_sbm(TWO_BLOCK_STRONG, 0.8, stream(12, 0))
        from_lists = joint_cluster(g1.tolist(), g2.tolist(), 2, 2, stream(13, 0))
        for labels, expected in zip(from_lists, joint_cluster(g1, g2, 2, 2, stream(13, 0))):
            assert np.array_equal(labels, expected)
        with pytest.raises(ValueError, match=r"^graph size mismatch: \(100, 100\) vs \(99, 99\)$"):
            joint_cluster(g1, g2[:99, :99], 2, 2, stream(13, 0))

    def test_vectors_rejected(self):
        # two length-n vectors used to broadcast into a 2n x 2n omnibus matrix
        with pytest.raises(ValueError, match=r"^a and b must be square matrices, got shape \(3,\)$"):
            joint_cluster(np.zeros(3), np.zeros(3), 1, 1, stream(13, 0))

    def test_single_graph_baseline_runs(self):
        gen = stream(14, 0)
        g1, _ = sample_rho_sbm(TWO_BLOCK_STRONG, 0.5, gen)
        labels = single_cluster(g1, 2, 2, stream(15, 0))
        assert ari(labels, TWO_BLOCK_STRONG.partition.membership) >= 0.9

    def test_embedding_pipeline_dimensions(self):
        gen = stream(16, 0)
        g1, g2 = sample_rho_sbm(TWO_BLOCK_STRONG, 0.5, gen)
        x = ase(g1, 2)
        assert x.shape == (100, 2)


_SMALL_SBM = SbmParams(BlockPartition((6, 6)), np.array([[0.6, 0.1], [0.1, 0.6]]))
_EMPTY_12 = np.zeros((12, 12), dtype=np.int8)
_HALF_EDGE_12 = _EMPTY_12 + np.pad([[0, 0.5], [0.5, 0]], (0, 10))  # one entry of 0.5
_ONE_VERTEX = SbmParams(BlockPartition((1,)), np.array([[0.5]]))
# experiment -> (entry point, tiny arguments that pass every check, its grid argument)
_SMALL_RUNS = {
    "phase-transition": (phase_transition_experiment,
                         dict(mc_reps=2, params=_SMALL_SBM), "rho_grid"),
    "power-er": (power_er_experiment,
                 dict(n=12, s_grid=(0, 6), x_grid=(0, 6), mc_reps=2, n_null=20), "s_grid"),
    "power-omni": (power_omni_experiment,
                   dict(n=12, num_anomalous=4, x_grid=(0, 6), mc_reps=2, n_null=20), "x_grid"),
    "cluster-gain": (cluster_gain_experiment,
                     dict(params=_SMALL_SBM, rho_grid=(0.5,), d=2, k=2, mc_reps=2,
                          master_seed=0), "rho_grid"),
    "cluster-shuffle": (shuffle_cluster_experiment,
                        dict(params=_SMALL_SBM, rho=0.5, s_grid=(0,), d=2, k=2, mc_reps=2,
                             master_seed=0), "s_grid"),
    "cluster-real": (cluster_real_experiment,
                     dict(a=_EMPTY_12, b=_EMPTY_12, labels=_SMALL_SBM.partition.membership,
                          s_grid=(0,), d=2, k=2, mc_reps=2, master_seed=0), "s_grid"),
}


class TestClusterExperiments:
    def test_gain_table_schema_and_determinism(self):
        params = SbmParams(BlockPartition((20, 20)),
                           np.array([[0.6, 0.05], [0.05, 0.6]]))
        rows1 = cluster_gain_experiment(params, (0.3,), d=2, k=2, mc_reps=4,
                                        master_seed=5, restarts=2)
        rows2 = cluster_gain_experiment(params, (0.3,), d=2, k=2, mc_reps=4,
                                        master_seed=5, restarts=2)
        assert rows1 == rows2
        assert {r["variant"] for r in rows1} == {"omni", "single"}
        for r in rows1:
            assert -1.0 <= r["mean_ari"] <= 1.0

    def test_shuffle_table_all_seeded_matches(self):
        # with every vertex seeded nothing is shuffled, so the matched
        # and unmatched joint variants coincide exactly
        params = SbmParams(BlockPartition((15, 15)),
                           np.array([[0.7, 0.1], [0.1, 0.7]]))
        rows = shuffle_cluster_experiment(params, rho=0.5, s_grid=(30,), d=2, k=2,
                                          mc_reps=3, master_seed=6, restarts=2)
        by_variant = {r["variant"]: r for r in rows}
        assert by_variant["omni_shuffled"]["mean_ari"] == by_variant["omni_matched"]["mean_ari"]

    def test_real_pair_read_from_nested_lists(self):
        fn, kwargs, _ = _SMALL_RUNS["cluster-real"]
        g1, g2 = sample_rho_sbm(_SMALL_SBM, 0.5, stream(17, 0))
        rows = fn(**{**kwargs, "a": g1.tolist(), "b": g2.tolist()})
        assert rows == fn(**{**kwargs, "a": g1, "b": g2})

    @pytest.mark.parametrize("name, bad, match", [
        pytest.param(name, bad, match, id=f"{name}-{bad}")
        for name in _SMALL_RUNS
        for bad, match in (({"mc_reps": 0}, "mc_reps"), ({"mc_reps": -2}, "mc_reps"),
                           ({"mc_reps": 2.5}, "mc_reps must be an integer"),
                           ({"mc_reps": True}, "mc_reps must be an integer"),
                           ({_SMALL_RUNS[name][2]: ()}, "must not be empty"),
                           ({_SMALL_RUNS[name][2]: (0, 0)}, "must not repeat"))
    ] + [
        pytest.param(name, bad, match, id=f"{name}-{bad}")
        for name in ("power-er", "power-omni")
        for bad, match in (({"alpha": 0.0}, "alpha"), ({"alpha": 1.0}, "alpha"),
                           ({"alpha": 1.5}, "alpha"), ({"alpha": 0.01, "n_null": 50}, "n_null"),
                           ({"n_null": 20.5}, "n_null must be an integer"),
                           ({"alpha": 0.5j}, r"^alpha must be a real number, got 0.5j$"),
                           ({"alpha": "0.1"}, r"^alpha must be a real number, got '0.1'$"))
    ] + [
        pytest.param(name, bad, match, id=f"{name}-{bad}")
        for name, bad, match in (
            ("power-er", {"x_grid": ()}, "x_grid"),
            ("power-er", {"x_grid": (6, 6)}, "must not repeat"),
            # grid values outside the graph, all with n = 12
            ("power-er", {"s_grid": (0, 50)}, "s_grid"),
            ("power-er", {"s_grid": (-1,)}, "s_grid"),
            ("power-er", {"x_grid": (0, -5)}, "x_grid"),
            # edge densities need a vertex pair
            ("power-er", {"n": 1, "s_grid": (0,), "x_grid": (0,)}, "n value 1 is outside"),
            ("power-er", {"n": 12.0}, "n must be an integer, got 12.0"),
            ("power-omni", {"x_grid": (0, 13)}, "x_grid"),
            ("power-omni", {"x_grid": (-1,)}, "x_grid"),
            ("power-omni", {"num_anomalous": 13}, "num_anomalous"),
            ("power-omni", {"num_anomalous": -1}, "num_anomalous"),
            ("cluster-shuffle", {"s_grid": (0, 13)}, "s_grid"),
            ("cluster-shuffle", {"s_grid": (-1,)}, "s_grid"),
            ("cluster-real", {"s_grid": (13,)}, "s_grid"),
            ("cluster-real", {"s_grid": (-2,)}, "s_grid"),
            # count grids hold integers: no cast to a count no one asked for
            ("power-er", {"s_grid": (0, 2.5)}, "s_grid must be an integer, got 2.5"),
            ("power-er", {"x_grid": (0, 6.9)}, "x_grid must be an integer, got 6.9"),
            ("power-omni", {"x_grid": (0, 6.0)}, "x_grid must be an integer, got 6.0"),
            ("power-omni", {"num_anomalous": 4.0}, "num_anomalous must be an integer"),
            ("cluster-shuffle", {"s_grid": (True, 3.7)}, "s_grid must be an integer, got True"),
            ("cluster-real", {"s_grid": (np.float64(4.0),)}, "s_grid must be an integer"),
            # stream ids past their block: six s values x 2e6 replicates
            # would reach the null block
            ("power-er", {"mc_reps": 2_000_000, "s_grid": range(0, 12, 2)}, "replicate block"),
            ("power-er", {"n_null": 5_000_000}, "null block"),
            ("power-er", {"mc_reps": 10 ** 6, "s_grid": (0,), "x_grid": range(71)},
             "shuffle block"),
            ("power-omni", {"mc_reps": 10 ** 6, "x_grid": range(71)}, "shuffle block"),
            ("cluster-gain", {"mc_reps": 10 ** 7 + 1}, "replicate block"),
        )
    ] + [
        pytest.param(name, {"d": bad}, match, id=f"{name}-d-{bad}")
        for name in ("power-omni", "cluster-gain", "cluster-shuffle", "cluster-real")
        for bad, match in ((0, "d value 0 is outside"), (2.5, "d must be an integer"),
                           (True, "d must be an integer"),
                           # 12 vertices; power-omni embeds the 24 x 24 omnibus matrix
                           (25 if name == "power-omni" else 13, "d value .* is outside"))
    ] + [
        # fit_gmm needs two points: a 1-vertex graph is rejected up front
        pytest.param(name, bad, "n value 1 is outside", id=f"{name}-one-vertex")
        for name, bad in (
            ("cluster-gain", {"params": _ONE_VERTEX, "d": 1, "k": 1}),
            ("cluster-shuffle", {"params": _ONE_VERTEX, "d": 1, "k": 1}),
            ("cluster-real", {"a": _EMPTY_12[:1, :1], "b": _EMPTY_12[:1, :1],
                              "labels": [0], "d": 1, "k": 1}),
        )
    ] + [
        # the user's graphs are checked before the shuffles and the matcher read them
        pytest.param("cluster-real", {side: _HALF_EDGE_12},
                     "^adjacency entries must be real 0 or 1$", id=f"cluster-real-half-edge-{side}")
        for side in ("a", "b")
    ] + [
        # labels are integers: fractional ones are not truncated into blocks
        pytest.param("cluster-real", {"labels": labels},
                     "^labels must be a sequence of integer vertex ids, without bools$",
                     id=f"cluster-real-labels-{kind}")
        for kind, labels in (("fractional", [0.7, 1.2, 1.9] * 4),
                             ("float-array", np.linspace(0.0, 1.0, 12)),
                             ("bool", [True, False] * 6))
    ] + [
        pytest.param(name, {"restarts": bad}, "restarts", id=f"{name}-restarts-{bad}")
        for name in ("cluster-gain", "cluster-shuffle", "cluster-real")
        for bad in (0, 2.5, True)
    ] + [
        # correlation grids hold real numbers in [0, 1]
        pytest.param(name, {"rho_grid": grid}, match, id=f"{name}-rho_grid-{grid}")
        for name in ("phase-transition", "cluster-gain")
        for grid, match in (((1j,), r"^rho_grid must be a real number, got 1j$"),
                            ((None,), r"^rho_grid must be a real number, got None$"),
                            ((0.5, 1.5), r"^rho_grid value 1.5 is outside \[0, 1\]$"),
                            ((-0.1,), r"^rho_grid value -0.1 is outside \[0, 1\]$"))
    ] + [
        # an iterator grid is read once: the repeat is found, not an empty grid
        pytest.param(name, {"rho_grid": iter((0.5, 0.5))}, "^rho_grid must not repeat",
                     id=f"{name}-rho_grid-iterator")
        for name in ("phase-transition", "cluster-gain")
    ] + [
        pytest.param(name, {"master_seed": bad}, match, id=f"{name}-master_seed-{bad}")
        for name in _SMALL_RUNS
        for bad, match in ((1.5, r"^master_seed must be an integer, got 1.5$"),
                           (-1, r"^master_seed value -1 is outside \[0, inf\)$"))
    ])
    def test_every_experiment_rejects_zero_mc_reps(self, monkeypatch, name, bad, match):
        # every argument is checked before the first random draw
        def no_draws(*args):
            raise AssertionError("drew from a random stream before rejecting the input")

        monkeypatch.setattr(_parallel, "stream", no_draws)
        fn, kwargs, _ = _SMALL_RUNS[name]
        with pytest.raises(ValueError, match=match):
            fn(**{**kwargs, **bad})
