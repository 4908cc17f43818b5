"""One rule for real-valued input.

Every real matrix goes through ``graphs.as_finite`` (a bool, integer or
float dtype, every entry finite) and, where it must be symmetric,
``graphs.as_symmetric`` (square, symmetric to 1e-12 absolute, entries
in range). Every real scalar goes through ``graphs.check_range``, which
rejects what is not a real number. Each error names the argument.
"""

import numpy as np
import pytest

from corrmatch import (
    BlockPartition,
    HeterogeneousPair,
    SbmParams,
    anomaly_perturb,
    ase,
    bernoulli_pair_mi,
    er_params,
    fit_gmm,
    max_feasible_correlation,
    mi_small_rho_ratio,
    omnibus,
    power_er_experiment,
    procrustes_align,
    rho_sbm_mi,
    sample_rho_sbm,
    scree_elbow,
    sgm_match,
    solve_lap,
    stream,
    t1_semipar,
    t2_omni,
)
from corrmatch._parallel import critical_rank
from corrmatch.graphs import as_finite, as_symmetric, check_range

GOOD = 0.5 * (1.0 - np.eye(3))  # symmetric, zero diagonal, entries in [0, 1]

# routed call with the bad matrix m in one argument -> the name it reports
ROUTED = {
    "ase": (lambda m: ase(m, 1), "m"),
    "t2_omni a": (lambda m: t2_omni(m, GOOD, 1), "a"),
    "t2_omni b": (lambda m: t2_omni(GOOD, m, 1), "b"),
    "t1_semipar": (lambda m: t1_semipar(GOOD, m, 1), "b"),
    "omnibus": (lambda m: omnibus(m, GOOD), "a"),
    "procrustes_align": (lambda m: procrustes_align(GOOD, m), "y"),
    "fit_gmm": (lambda m: fit_gmm(m, 1, stream(0, 0)), "points"),
    "solve_lap": (solve_lap, "cost"),
    "SbmParams": (lambda m: SbmParams(BlockPartition((1, 1, 1)), m), "lambda"),
    "HeterogeneousPair p": (lambda m: HeterogeneousPair(m, GOOD, 0 * GOOD), "p"),
    "HeterogeneousPair q": (lambda m: HeterogeneousPair(GOOD, m, 0 * GOOD), "q"),
    "HeterogeneousPair rho": (lambda m: HeterogeneousPair(GOOD, GOOD, m), "rho"),
    "max_feasible_correlation": (lambda m: max_feasible_correlation(m, GOOD), "p"),
    "scree_elbow": (lambda m: scree_elbow(m.ravel()), "eigenvalues"),
    "anomaly_perturb": (lambda m: anomaly_perturb(m, 1, 0.5, stream(0, 0)), "x"),
}
NAN = GOOD.copy()
NAN[0, 1] = NAN[1, 0] = np.nan
BAD = {
    "complex": (GOOD + 0j, "must hold real numbers, got dtype complex128"),
    "string": (GOOD.astype(str), "must hold real numbers, got dtype <U"),
    "nan": (NAN, "entries must be finite, got a NaN or infinite entry"),
}


@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize("call", sorted(ROUTED))
def test_routed_matrices_rejected(call, kind):
    fn, name = ROUTED[call]
    m, message = BAD[kind]
    with pytest.raises(ValueError, match=f"^{name} {message}"):
        fn(m)


@pytest.mark.parametrize("values", [[1, 2], [True, False], np.arange(3, dtype=np.uint8),
                                    np.float32([0.5])])
def test_as_finite_reads_real_dtypes(values):
    out = as_finite("x", values)
    assert out.dtype == np.float64 and np.array_equal(out, np.asarray(values, dtype=np.float64))


@pytest.mark.parametrize("values, message", [
    ([1, None], "x must hold real numbers, got dtype object"),
    (np.array([b"1"]), "x must hold real numbers, got dtype |S1"),
    ([np.inf], "x entries must be finite"),
    ([-np.inf, 0.0], "x entries must be finite"),
    # finite in long double where it is wider than float64, never in float64
    (np.array(["1e400"], dtype=np.longdouble), "x entries must be finite"),
])
def test_as_finite_rejects(values, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        as_finite("x", values)


class TestAsSymmetric:
    def test_tolerance_is_absolute(self):
        m = np.array([[0.0, 1e6], [1e6 + 1e-6, 0.0]])  # relative 1e-12, absolute 1e-6
        with pytest.raises(ValueError, match="^m must be symmetric to 1e-12$"):
            as_symmetric("m", m)
        m = np.array([[0.0, 0.5], [0.5 + 2 ** -41, 0.0]])  # 4.5e-13 apart
        assert as_symmetric("m", m) is m  # a float64 array is not copied

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 2, 2), ()])
    def test_square_only(self, shape):
        with pytest.raises(ValueError, match=r"^m must be a square matrix, got shape"):
            as_symmetric("m", np.zeros(shape))

    def test_range_checked_on_min_and_max(self):
        with pytest.raises(ValueError, match=r"^m value -0.5 is outside \[0, 1\]$"):
            as_symmetric("m", -GOOD, 0, 1)
        with pytest.raises(ValueError, match=r"^m value 2.0 is outside \[-1, 1\]$"):
            as_symmetric("m", 4 * GOOD, -1, 1)
        assert as_symmetric("m", np.zeros((0, 0)), 0.5, 0.6).shape == (0, 0)


def test_ase_rejects_relative_asymmetry():
    # accepted before, with a leading eigenvalue that depended on which
    # triangle the eigensolver read (the Lanczos path reads both)
    x = np.random.default_rng(0).random((200, 2))
    m = x @ x.T
    m[np.triu_indices(200, 1)] *= 1 + 5e-6
    with pytest.raises(ValueError, match="^m must be symmetric to 1e-12$"):
        ase(m, 2)


def test_lambda_asymmetry_of_1e_10_rejected():
    with pytest.raises(ValueError, match="^lambda must be symmetric to 1e-12$"):
        SbmParams(BlockPartition((2, 2)), [[0.3, 0.1], [0.1000000001, 0.3]])


def test_empty_models_accepted():
    assert SbmParams(BlockPartition(()), np.zeros((0, 0))).n == 0
    assert HeterogeneousPair(np.zeros((0, 0)), np.zeros((0, 0)),
                             np.zeros((0, 0))).p_matrix.shape == (0, 0)


class TestHeterogeneousRho:
    def test_rho_lies_in_minus_one_to_one(self):
        with pytest.raises(ValueError, match=r"^rho value -1.5 is outside \[-1, 1\]$"):
            HeterogeneousPair(GOOD, GOOD, -1.5 * (1.0 - np.eye(3)))

    def test_infeasible_message_names_the_cell(self):
        off = 1.0 - np.eye(4)
        r = 0.3 * off
        r[2, 3] = r[3, 2] = 0.99
        with pytest.raises(ValueError, match=r"^rho=0.99 infeasible for marginals "
                                             r"\(0.4, 0.375\) at cell \(2, 3\)$"):
            HeterogeneousPair(0.4 * off, 0.375 * off, r)

    def test_power_er_rejects_through_the_pair(self):
        with pytest.raises(ValueError, match=r"^rho=0.99 infeasible for marginals "
                                             r"\(0.4, 0.375\) at cell \(0, 1\)$"):
            power_er_experiment(rho=0.99, n=6, s_grid=(0,), x_grid=(0,), mc_reps=2, n_null=20)


G3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int8)
# call with a non-real scalar -> the argument it names
SCALARS = {
    "bernoulli_pair_mi p": (lambda: bernoulli_pair_mi(0.5 + 0j, 0.1), "p"),
    "bernoulli_pair_mi rho": (lambda: bernoulli_pair_mi(0.5, np.complex128(0.1)), "rho"),
    "sample_rho_sbm": (lambda: sample_rho_sbm(er_params(4, 0.3), 0.5 + 0j, stream(0, 0)),
                       "rho"),
    "power_er_experiment": (lambda: power_er_experiment(p=0.4 + 0j, n=6, s_grid=(0,),
                                                        x_grid=(0,), mc_reps=2, n_null=20),
                            "p"),
    "sgm_match": (lambda: sgm_match(G3, G3, tol=1j), "tol"),
    "fit_gmm": (lambda: fit_gmm(np.eye(3), 1, stream(0, 0), tol="0"), "tol"),
    "anomaly_perturb": (lambda: anomaly_perturb(np.eye(3), 1, np.complex64(0.2), stream(0, 0)),
                        "w"),
    "check_range None": (lambda: check_range("v", (None,), 0), "v"),
    "mi_small_rho_ratio complex": (lambda: mi_small_rho_ratio(er_params(5, 0.3), 0.5j), "rho"),
    "mi_small_rho_ratio string": (lambda: mi_small_rho_ratio(er_params(5, 0.3), "0.5"), "rho"),
    "critical_rank": (lambda: critical_rank("0.1", 30), "alpha"),
    # one vertex, so no vertex pair reads rho
    "rho_sbm_mi": (lambda: rho_sbm_mi(er_params(1, 0.3), 0.5j), "rho"),
}


@pytest.mark.parametrize("call", sorted(SCALARS))
def test_non_real_scalars_rejected(call):
    fn, name = SCALARS[call]
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        fn()


@pytest.mark.parametrize("value", [0, 1, 0.5, True, np.float32(0.25), np.int8(1)])
def test_real_scalars_accepted(value):
    check_range("v", (value,), 0, 1)


@pytest.mark.parametrize("call, message", [
    # the closed range first, then the open end
    (lambda: mi_small_rho_ratio(er_params(5, 0.3), 1.5), r"rho value 1.5 is outside \[0, 1\]"),
    (lambda: mi_small_rho_ratio(er_params(5, 0.3), 0.0),
     r"rho must lie in \(0, 1\]; the ratio is undefined at 0"),
    (lambda: critical_rank(1.5, 30), r"alpha value 1.5 is outside \[0, 1\]"),
    (lambda: critical_rank(0.0, 30), "need 0 < alpha < 1, got 0.0"),
    (lambda: critical_rank(1.0, 30), "need 0 < alpha < 1, got 1.0"),
])
def test_open_intervals_checked_as_real_ranges(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_anomaly_perturb_reads_nested_lists_and_matrices_only():
    x = np.array([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])
    expected = anomaly_perturb(x, 1, 0.5, stream(0, 0))
    assert np.array_equal(x[0], [0.2, 0.3, 0.5])  # mixed in a copy
    assert np.array_equal(anomaly_perturb(x.tolist(), 1, 0.5, stream(0, 0)), expected)
    with pytest.raises(ValueError, match=r"^x must be an n x d matrix, got shape \(3,\)$"):
        anomaly_perturb(x[0], 1, 0.5, stream(0, 0))


def test_rho_sbm_mi_checks_rho_without_vertex_pairs():
    with pytest.raises(ValueError, match=r"^rho value 5.0 is outside \[0, 1\]$"):
        rho_sbm_mi(er_params(1, 0.3), 5.0)
