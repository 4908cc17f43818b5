import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from corrmatch import (
    apply_permutation,
    er_params,
    faq_match,
    gm_objective,
    identity_permutation,
    identity_seeds,
    invert_permutation,
    read_permutation,
    read_seeds,
    sample_edge_correlation,
    sample_rho_sbm,
    sample_subset_shuffle,
    sample_uniform_permutation,
    sgm_match,
    solve_lap,
    transposition_delta,
    transposition_sweep,
    trace_objective,
    write_permutation,
)
from corrmatch import graphs, matching
from corrmatch.graphs import BlockPartition, empty_graph, graph_from_edges
from corrmatch.matching import MatchResult, _quadratic_step, _validate_seeds
from corrmatch.samplers import RngStream
from helpers import complete_graph, random_graph, traced_peak, write_seeds


def brute_force_lap(cost):
    """Exhaustive minimum over all assignments; also returns the
    lexicographically smallest optimal assignment."""
    n = cost.shape[0]
    best_val = None
    best_perm = None
    for perm in itertools.permutations(range(n)):
        val = sum(cost[i, perm[i]] for i in range(n))
        if best_val is None or val < best_val - 1e-12 or (
                abs(val - best_val) <= 1e-12 and perm < best_perm):
            best_val, best_perm = val, perm
    return np.array(best_perm), best_val


def reference_sgm_match(a, b, seeds=None, init="barycenter", max_iters=100, tol=1e-6):
    """Seeded Frank-Wolfe with every product written out: A*D*B twice
    and A*R*B twice per iteration, a per-vertex loop for a permutation
    init, and a relabel each for the two scores. The oracle for
    sgm_match, which must reproduce it bit for bit."""
    a = np.asarray(a, dtype=np.int8)
    b = np.asarray(b, dtype=np.int8)
    n = a.shape[0]
    seed_arr = _validate_seeds(seeds, n)
    s = seed_arr.shape[0]
    m = n - s
    free_a = np.setdiff1d(np.arange(n, dtype=np.int64), seed_arr[:, 0])
    free_b = np.setdiff1d(np.arange(n, dtype=np.int64), seed_arr[:, 1])
    ra = np.concatenate([seed_arr[:, 0], free_a])
    rb = np.concatenate([seed_arr[:, 1], free_b])
    af = a[np.ix_(ra, ra)].astype(np.float64)
    bf = b[np.ix_(rb, rb)].astype(np.float64)
    a22 = af[s:, s:]
    b22 = bf[s:, s:]
    lin = af[s:, :s] @ bf[s:, :s].T
    const = float((af[:s, :s] * bf[:s, :s]).sum())

    if m == 0:
        d = np.zeros((0, 0))
    elif isinstance(init, str):
        d = np.full((m, m), 1.0 / m) if init == "barycenter" else np.eye(m)
    else:
        match0 = invert_permutation(init)
        pos_b = np.full(n, -1, dtype=np.int64)
        pos_b[rb[s:]] = np.arange(m)
        d = np.zeros((m, m))
        for idx, u in enumerate(ra[s:]):
            d[idx, pos_b[match0[u]]] = 1.0

    def relaxed_obj(mat):
        return const + 2.0 * float((lin * mat).sum()) + float((a22 @ mat @ b22 * mat).sum())

    trace_vals = [relaxed_obj(d)] if m > 0 else [const]
    iterations = 0
    converged = m == 0
    for _ in range(max_iters if m > 0 else 0):
        iterations += 1
        grad = 2.0 * (a22 @ d @ b22) + 2.0 * lin
        q, _ = solve_lap(-grad)
        qmat = np.zeros((m, m))
        qmat[np.arange(m), q] = 1.0
        r = qmat - d
        c2 = float((a22 @ r @ b22 * r).sum())
        c1 = 2.0 * float((a22 @ r @ b22 * d).sum()) + 2.0 * float((lin * r).sum())
        t = _quadratic_step(c2, c1)
        if t > 0.0:
            d = d + t * r
        new_obj = relaxed_obj(d)
        prev_obj = trace_vals[-1]
        trace_vals.append(new_obj)
        if abs(new_obj - prev_obj) <= tol * max(1.0, abs(prev_obj)):
            converged = True
            break
    proj = solve_lap(-d)[0] if m > 0 else np.zeros(0, dtype=np.int64)
    match = np.empty(n, dtype=np.int64)
    match[ra[:s]] = rb[:s]
    match[free_a] = rb[s + proj]
    phi = invert_permutation(match)
    return MatchResult(phi, gm_objective(a, b, phi), trace_objective(a, b, phi),
                       iterations, converged, tuple(trace_vals))


def _oracle_cases():
    """(a, b, seeds, init, max_iters): n = 1 to 40, seed counts from none
    to all, empty and complete graphs (ties in every LAP) and random
    pairs, the three kinds of init and early, late and capped stops."""
    rng = np.random.default_rng(30)
    for n in (1, 2, 5, 13, 40):
        pairs = ((empty_graph(n), empty_graph(n)), (complete_graph(n), complete_graph(n)),
                 (complete_graph(n), random_graph(n, 0.5, rng)),
                 sample_rho_sbm(er_params(n, 0.4), 0.8, rng),
                 (random_graph(n, 0.3, rng), random_graph(n, 0.3, rng)))
        for a, b in pairs:
            for s in sorted({0, n // 3, n - 1, n}):
                verts = np.sort(rng.choice(n, size=s, replace=False))
                seeds = identity_seeds(verts) if s else None
                free = np.setdiff1d(np.arange(n), verts)
                phi = np.arange(n)
                phi[free] = rng.permutation(free)
                for init in ("barycenter", "identity", phi):
                    for max_iters in (1, 2, 100):
                        yield a, b, seeds, init, max_iters


def test_sgm_match_reproduces_reference_bit_for_bit():
    count = 0
    for a, b, seeds, init, max_iters in _oracle_cases():
        got = sgm_match(a, b, seeds=seeds, init=init, max_iters=max_iters)
        want = reference_sgm_match(a, b, seeds=seeds, init=init, max_iters=max_iters)
        assert np.array_equal(got.permutation, want.permutation)
        assert (got.objective, got.trace_value) == (want.objective, want.trace_value)
        assert type(got.objective) is type(got.trace_value) is int
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert got.objective_trace == want.objective_trace
        count += 1
    assert count == 765  # 17 (n, s) pairs x 5 graph pairs x 3 inits x 3 caps


@given(st.floats(min_value=0.0, max_value=1.0))
@example(0.0)
@example(5e-324)
@example(1.0 / 3.0)
@example(1.0)
def test_full_step_lands_exactly_on_the_vertex(x):
    """A t = 1 step d += 1.0 * (q - d) turns every iterate entry x into
    exactly q's entry, with a positive zero, so sgm_match may treat the
    iterate as the permutation q from then on."""
    one = x + 1.0 * (1.0 - x)
    zero = x + 1.0 * (0.0 - x)
    assert one == 1.0
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


def _step_recorder(monkeypatch):
    """Record every step size sgm_match takes, one list per call."""
    calls = []
    step = matching._quadratic_step

    def recording(c2, c1):
        t = step(c2, c1)
        calls[-1].append(t)
        return t
    monkeypatch.setattr(matching, "_quadratic_step", recording)
    return calls


def _shuffled_er_pairs():
    """(a, b, seeds, inits): correlated ER pairs with the non-seeds of b
    shuffled, at n in {60, 120}, p = 0.1 and rho in {0.3, 0.6}."""
    gen = RngStream(60).generator()
    for n in (60, 120):
        for rho in (0.3, 0.6):
            a, b = sample_rho_sbm(er_params(n, 0.1), rho, gen)
            s = n // 10
            b = apply_permutation(b, sample_subset_shuffle(n, np.arange(s), n - s, gen))
            phi = np.arange(n)
            phi[s:] = s + gen.permutation(n - s)
            yield a, b, identity_seeds(np.arange(s)), ("barycenter", "identity", phi)


def test_sgm_match_switches_regimes_bit_for_bit(monkeypatch):
    """Seeded matchings whose steps move between permutation iterates
    (t = 1) and fractional ones (0 < t < 1), both ways, match the
    oracle bit for bit."""
    calls = _step_recorder(monkeypatch)
    # a dense pair whose run stops at a fractional iterate with t == 0, which
    # keeps the previous score
    dense = sample_rho_sbm(er_params(20, 0.5), 0.3, RngStream(2).generator())
    cases = [*_shuffled_er_pairs(), (*dense, identity_seeds(np.arange(2)), ("identity",))]
    for a, b, seeds, inits in cases:
        for init in inits:
            for max_iters in (3, 100):
                calls.append([])
                got = sgm_match(a, b, seeds=seeds, init=init, max_iters=max_iters)
                want = reference_sgm_match(a, b, seeds=seeds, init=init, max_iters=max_iters)
                assert np.array_equal(got.permutation, want.permutation)
                assert (got.objective, got.iterations, got.converged) == \
                    (want.objective, want.iterations, want.converged)
                assert [math.copysign(1.0, v) for v in got.objective_trace] == \
                    [math.copysign(1.0, v) for v in want.objective_trace]
                assert got.objective_trace == want.objective_trace
    kinds = ["".join("1" if t == 1.0 else "f" if t > 0.0 else "0" for t in ts)
             for ts in calls if ts]
    assert any("1f" in k for k in kinds)  # permutation -> fractional
    assert any("f1" in k for k in kinds)  # fractional -> permutation
    assert any("f0" in k for k in kinds)  # fractional -> the same iterate


def test_no_projection_lap_after_a_full_step(monkeypatch):
    """One LAP per iteration, plus the final projection only when the
    last iterate is fractional."""
    laps = []
    solve = matching.linear_sum_assignment

    def counting(cost):
        laps.append(1)
        return solve(cost)
    monkeypatch.setattr(matching, "linear_sum_assignment", counting)
    calls = _step_recorder(monkeypatch)

    a = random_graph(30, 0.3, np.random.default_rng(61))
    calls.append([])
    res = faq_match(a, a, init="identity")
    assert res.objective == 0 and calls[-1] == [1.0]
    assert len(laps) == res.iterations == 1

    a, b, seeds, _ = next(_shuffled_er_pairs())
    laps.clear()
    calls.append([])
    res = sgm_match(a, b, seeds=seeds, max_iters=2)
    assert 0.0 < calls[-1][-1] < 1.0  # ends on a fractional iterate
    assert len(laps) == res.iterations + 1 == 3


def test_working_set(monkeypatch):
    """The graphs stay int8 and are widened one m x m copy at a time, R is
    dropped during the second product of a fractional step and the seed
    gradient is uint8, so a seeded run with fractional steps holds under
    4.75 m x m float64 arrays at once (5.8 with R kept and a float32 seed
    gradient, 8.2 with both graphs held in float64)."""
    n, s = 400, 20
    m = n - s
    gen = RngStream(62).generator()
    a, b = sample_rho_sbm(er_params(n, 0.1), 0.6, gen)
    b = apply_permutation(b, sample_subset_shuffle(n, np.arange(s), m, gen))
    calls = _step_recorder(monkeypatch)
    calls.append([])
    res, peak = traced_peak(sgm_match, a, b, seeds=identity_seeds(np.arange(s)),
                            init="identity", max_iters=3)
    assert res.iterations == 3 and any(0.0 < t < 1.0 for t in calls[-1])
    assert peak < 4.75 * 8 * m * m


@pytest.mark.parametrize("n, s, p, rho", [(60, 0, 0.3, 0.6), (330, 270, 0.97, 0.0)])
def test_narrow_seed_gradient_bit_for_bit(monkeypatch, n, s, p, rho):
    """The seed gradient is stored in the narrowest unsigned type that holds
    s: empty at s = 0, and uint16 past 255 seeds, where a dense pair has
    counts above 255. Runs with fractional steps match the oracle bit for bit."""
    gen = RngStream(63).generator()
    a, b = sample_rho_sbm(er_params(n, p), rho, gen)
    b = apply_permutation(b, sample_subset_shuffle(n, np.arange(s), n - s, gen))
    seeds = identity_seeds(np.arange(s)) if s else None
    counts = a[s:, :s].astype(np.int64) @ b[s:, :s].T.astype(np.int64)
    assert (counts.max(initial=0) > 255) == (s > 255)
    calls = _step_recorder(monkeypatch)
    for init in ("barycenter", "identity"):
        calls.append([])
        got = sgm_match(a, b, seeds=seeds, init=init)
        want = reference_sgm_match(a, b, seeds=seeds, init=init)
        assert np.array_equal(got.permutation, want.permutation)
        assert (got.objective, got.iterations, got.converged) == \
            (want.objective, want.iterations, want.converged)
        assert got.objective_trace == want.objective_trace
    assert any(0.0 < t < 1.0 for ts in calls for t in ts)


def test_match_does_not_recheck_the_costs_it_builds(monkeypatch):
    # the gradients and the final projection are finite and square by
    # construction, so no matrix goes through as_finite
    def no_checks(name, values):
        raise AssertionError(f"as_finite read {name}")

    a, b, seeds, _ = next(_shuffled_er_pairs())
    for mod in (matching, graphs):
        monkeypatch.setattr(mod, "as_finite", no_checks)
    calls = _step_recorder(monkeypatch)
    calls.append([])
    assert sgm_match(a, b, seeds=seeds, max_iters=2).iterations == 2
    assert 0.0 < calls[-1][-1] < 1.0  # so the final projection ran too


class TestSolveLap:
    def test_zero_matrix_identity(self):
        perm, total = solve_lap(np.zeros((5, 5)))
        assert perm.tolist() == [0, 1, 2, 3, 4]
        assert total == 0.0

    def test_two_by_two_swap(self):
        perm, total = solve_lap(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert perm.tolist() == [1, 0]
        assert total == 0.0

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            cost = rng.normal(size=(7, 7))
            perm, total = solve_lap(cost)
            _, best_val = brute_force_lap(cost)
            assert total == best_val
            assert cost[np.arange(7), perm].sum() == best_val

    def test_tied_costs_optimal(self):
        # small integer costs have many tied optima; any of them will do
        rng = np.random.default_rng(1)
        for _ in range(50):
            cost = rng.integers(0, 3, size=(5, 5)).astype(float)
            perm, total = solve_lap(cost)
            _, best_val = brute_force_lap(cost)
            assert sorted(perm.tolist()) == list(range(5))
            assert total == best_val
            assert cost[np.arange(5), perm].sum() == best_val

    def test_random_6x6_optimal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cost = rng.normal(size=(6, 6))
            perm, total = solve_lap(cost)
            _, best_val = brute_force_lap(cost)
            assert total == best_val

    def test_empty(self):
        perm, total = solve_lap(np.zeros((0, 0)))
        assert perm.dtype == np.int64 and perm.shape == (0,)
        assert total == 0.0 and isinstance(total, float)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_lap(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            solve_lap(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestFaqMatch:
    def test_self_match_from_identity(self):
        rng = np.random.default_rng(3)
        a = random_graph(15, 0.4, rng)
        res = faq_match(a, a, init="identity")
        assert res.objective == 0
        assert res.iterations == 1
        assert res.converged
        assert np.array_equal(res.permutation, identity_permutation(15))

    def test_start_at_planted_optimum(self):
        rng = np.random.default_rng(4)
        a = random_graph(20, 0.4, rng)
        sigma = rng.permutation(20)
        b = apply_permutation(a, sigma)
        res = faq_match(a, b, init=invert_permutation(sigma))
        assert res.objective == 0

    def test_objective_fields_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_graph(12, 0.4, rng)
            b = random_graph(12, 0.4, rng)
            res = faq_match(a, b)
            assert res.objective == gm_objective(a, b, res.permutation)
            assert res.trace_value == trace_objective(a, b, res.permutation)

    def test_trace_nondecreasing(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_graph(14, 0.5, rng)
            b = random_graph(14, 0.5, rng)
            res = faq_match(a, b)
            trace = res.objective_trace
            assert all(t2 >= t1 - 1e-9 for t1, t2 in zip(trace, trace[1:]))

    def test_bad_init_rejected(self):
        a = graph_from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            faq_match(a, a, init="nonsense")
        with pytest.raises(ValueError):
            faq_match(a, a, init=np.array([0, 0, 1]))
        with pytest.raises(ValueError, match=r"^init must be a sequence of integer vertex ids, "
                                             r"without bools$"):
            faq_match(a, a, init=[0.0, 1.9, 2.0])
        with pytest.raises(ValueError, match="init"):
            faq_match(a, a, init=np.eye(3))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            faq_match(graph_from_edges(3, []), graph_from_edges(4, []))

    @pytest.mark.parametrize("init, seeds, match", [
        # checked even when every vertex is seeded
        ("bogus", [(0, 0), (1, 1), (2, 2)], r"^unknown init 'bogus'$"),
        ([0, 0, 0], [(0, 0), (1, 1), (2, 2)], r"^init permutation must be a bijection of \[n\]$"),
        # numpy reads both as integer ids; the vertex-id rule does not
        ([True, False, 2], None, "^init must be a sequence of integer vertex ids, without bools$"),
        ([0, 1, 2.0], None, "^init must be a sequence of integer vertex ids, without bools$"),
    ])
    def test_init_is_a_sequence_of_vertex_ids(self, init, seeds, match):
        a = graph_from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match=match):
            sgm_match(a, a, seeds=seeds, init=init)


class TestSgmMatch:
    def test_all_seeded_returns_stated_correspondence(self):
        rng = np.random.default_rng(7)
        a = random_graph(8, 0.5, rng)
        sigma = rng.permutation(8)
        b = apply_permutation(a, sigma)
        seeds = np.stack([np.arange(8), sigma[np.arange(8)]], axis=1)
        res = sgm_match(a, b, seeds=seeds)
        assert res.objective == 0
        assert res.iterations == 0
        assert res.converged

    def test_planted_shuffle_recovered_with_seeds(self):
        gen = RngStream(8).generator()
        a, b = sample_rho_sbm(er_params(80, 0.3), 1.0, gen)
        sigma = sample_subset_shuffle(80, np.arange(10), 70, gen)
        b_sh = apply_permutation(b, sigma)
        res = sgm_match(a, b_sh, seeds=identity_seeds(np.arange(10)))
        assert res.objective == 0
        assert np.array_equal(res.permutation, invert_permutation(sigma))

    def test_empty_seeds_equals_faq(self):
        rng = np.random.default_rng(9)
        a = random_graph(12, 0.4, rng)
        b = random_graph(12, 0.4, rng)
        r1 = sgm_match(a, b, seeds=None)
        r2 = faq_match(a, b)
        assert np.array_equal(r1.permutation, r2.permutation)
        assert r1.objective_trace == r2.objective_trace

    def test_seeds_are_fixed_points(self):
        gen = RngStream(10).generator()
        a, b = sample_rho_sbm(er_params(30, 0.4), 0.8, gen)
        sigma = sample_subset_shuffle(30, [2, 11, 17], 27, gen)
        b_sh = apply_permutation(b, sigma)
        res = sgm_match(a, b_sh, seeds=identity_seeds([2, 11, 17]))
        for v in (2, 11, 17):
            assert res.permutation[v] == v

    @pytest.mark.parametrize("seeds, match", [([(0, 1), (0, 2)], "conflicting"),
                                              ([(0, 1), (2, 1)], "conflicting"),
                                              ([0, 1], "pairs"), ([(0, 1, 2)], "pairs"),
                                              ([(0, 4)], r"seeds value 4 is outside \[0, 3\]"),
                                              ([(-1, 0)], r"seeds value -1 is outside \[0, 3\]"),
                                              ([(0.5, 0.5)], "seeds must be a sequence"),
                                              ([(True, 2)], "seeds must be a sequence")])
    def test_conflicting_seeds_rejected(self, seeds, match):
        a = graph_from_edges(4, [(0, 1)])
        with pytest.raises(ValueError, match=match):
            sgm_match(a, a, seeds=seeds)

    def test_permutation_init_with_seeds(self):
        gen = RngStream(40).generator()
        a, b = sample_rho_sbm(er_params(30, 0.4), 1.0, gen)
        sigma = sample_subset_shuffle(30, [0, 1, 2], 27, gen)
        b_sh = apply_permutation(b, sigma)
        res = sgm_match(a, b_sh, seeds=identity_seeds([0, 1, 2]),
                        init=invert_permutation(sigma))
        assert res.objective == 0

    def test_permutation_init_must_respect_seeds(self):
        gen = RngStream(41).generator()
        a, b = sample_rho_sbm(er_params(10, 0.5), 0.5, gen)
        bad = np.roll(np.arange(10), 1)  # maps a seed target onto a non-seed
        with pytest.raises(ValueError):
            sgm_match(a, b, seeds=identity_seeds([0]), init=bad)

    @pytest.mark.parametrize("kwargs, match", [
        pytest.param({"max_iters": -5}, "max_iters value -5", id="max_iters-negative"),
        pytest.param({"max_iters": True}, "max_iters must be an integer", id="max_iters-bool"),
        pytest.param({"max_iters": 2.5}, "max_iters must be an integer", id="max_iters-float"),
        pytest.param({"max_iters": math.nan}, "max_iters must be an integer", id="max_iters-nan"),
        pytest.param({"tol": float("nan")}, r"tol value nan is outside \[0, inf\)", id="tol-nan"),
        pytest.param({"tol": float("inf")}, r"tol value inf is outside \[0, inf\)", id="tol-inf"),
        pytest.param({"tol": -1.0}, r"tol value -1.0 is outside \[0, inf\)", id="tol-negative"),
    ])
    def test_rejects_bad_iteration_controls(self, kwargs, match):
        a = graph_from_edges(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=match):
            sgm_match(a, a, **kwargs)

    def test_zero_iterations_project_the_init(self):
        a = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        b = apply_permutation(a, np.array([1, 0, 2, 4, 3]))
        res = sgm_match(a, b, init="identity", max_iters=0)
        assert res.iterations == 0 and not res.converged
        assert np.array_equal(res.permutation, np.arange(5))
        assert res.objective == gm_objective(a, b, np.arange(5))

    @pytest.mark.parametrize("bad, match", [
        pytest.param([[0, 1], [0, 0]], "symmetric", id="asymmetric"),
        pytest.param([[0, 2], [2, 0]], "0 or 1", id="entry-2"),
        pytest.param([[1, 1], [1, 0]], "self-loops", id="self-loop"),
        pytest.param([[0, 1, 0], [1, 0, 1]], "square", id="non-square"),
    ])
    def test_rejects_non_adjacency(self, bad, match):
        good = graph_from_edges(2, [(0, 1)])
        for matcher in (sgm_match, faq_match):
            for a, b in ((bad, good), (good, bad)):
                with pytest.raises(ValueError, match=match):
                    matcher(np.array(a), np.array(b))


class TestAlignment:
    def test_matching_raises_correlation_of_independent_pair(self):
        corr_matched = []
        corr_shuffled = []
        for i in range(10):
            gen = RngStream(13, i).generator()
            a, b = sample_rho_sbm(er_params(60, 0.4), 0.0, gen)
            sigma = sample_uniform_permutation(60, gen)
            b_sh = apply_permutation(b, sigma)
            res = sgm_match(a, b_sh, init="barycenter")
            corr_matched.append(sample_edge_correlation(a, apply_permutation(b_sh, res.permutation)))
            corr_shuffled.append(sample_edge_correlation(a, b_sh))
        assert np.mean(corr_matched) >= np.mean(corr_shuffled)


def _int64_sweep(a, b, partition):
    """transposition_sweep's formula with every product in int64, each block
    scanned in row-major order: the oracle for its float64 product."""
    ab = a.astype(np.int64) @ b.astype(np.int64)
    diag = np.diag(ab)
    delta = 4 * (diag[:, None] + diag[None, :] - ab - ab.T - 2 * (a.astype(np.int64) * b))
    best = None
    for blk in range(partition.num_blocks):
        for i, j in itertools.combinations(partition.block_vertices(blk).tolist(), 2):
            if best is None or delta[i, j] < best[1]:
                best = (i, j), int(delta[i, j])
    return (False, None, 0) if best is None else (best[1] < 0, *best)


class TestTranspositionSweep:
    def test_identical_pair_without_twins(self):
        # path graph: distinct neighborhoods, all deltas positive
        n = 8
        g = graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])
        part = BlockPartition((n,))
        found, pair, delta = transposition_sweep(g, g, part)
        assert not found
        assert delta > 0

    def test_best_matches_o_n_formula(self):
        rng = np.random.default_rng(14)
        part = BlockPartition((6, 6))
        for _ in range(20):
            a = random_graph(12, 0.5, rng)
            b = random_graph(12, 0.5, rng)
            found, (i, j), delta = transposition_sweep(a, b, part)
            assert delta == transposition_delta(a, b, i, j)
            # exhaustive scan oracle
            best = min(
                transposition_delta(a, b, u, v)
                for blk in range(2)
                for u, v in itertools.combinations(part.block_vertices(blk).tolist(), 2)
            )
            assert delta == best
            assert found == (best < 0)

    def test_equals_the_int64_oracle(self):
        rng = np.random.default_rng(15)
        for sizes in ((1,), (2,), (1, 1), (9,), (3, 4, 5), (1, 20, 2, 7)):
            part = BlockPartition(sizes)
            for p, q in ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.2, 0.7), (0.5, 0.5)):
                a, b = random_graph(part.n, p, rng), random_graph(part.n, q, rng)
                got = transposition_sweep(a, b, part)
                assert got == _int64_sweep(a, b, part)
                assert type(got[2]) is int

    def test_no_eligible_pairs(self):
        g = graph_from_edges(2, [(0, 1)])
        found, pair, delta = transposition_sweep(g, g, BlockPartition((1, 1)))
        assert not found and pair is None


class TestMatchingFiles:
    def test_permutation_round_trip(self, tmp_path):
        phi = np.array([2, 0, 1, 3])
        path = tmp_path / "perm.txt"
        write_permutation(path, phi)
        assert np.array_equal(read_permutation(path), phi)

    def test_permutation_validated(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n0\n1\n")
        with pytest.raises(ValueError):
            read_permutation(path)

    def test_seed_file_round_trip(self, tmp_path):
        seeds = np.array([[0, 3], [2, 1]])
        path = tmp_path / "seeds.txt"
        write_seeds(path, seeds)
        assert np.array_equal(read_seeds(path), seeds)


class TestIdentitySeeds:
    @pytest.mark.parametrize("vertices", [[1.7], [True], np.array([0.5, 1.0]), 3])
    def test_non_integer_vertices_rejected(self, vertices):
        with pytest.raises(ValueError, match="vertices must be a sequence"):
            identity_seeds(vertices)

    def test_empty_seed_list_stays_legal(self):
        a = graph_from_edges(4, [(0, 1), (1, 2)])
        assert identity_seeds([]).shape == (0, 2)
        assert sgm_match(a, a, seeds=[]).objective == 0
        assert sgm_match(a, a, seeds=identity_seeds([])).objective == 0
