"""Adjacency spectral embedding, omnibus embedding, and the
embedding-based two-sample statistics.

The d-dimensional adjacency spectral embedding of a symmetric matrix M
takes the d eigenpairs of largest |eigenvalue| and scales the
eigenvectors by sqrt(|eigenvalue|); ranking by absolute value makes
this the spectral decomposition of (M^T M)^(1/2) without forming a
matrix square root. Eigenvector signs are fixed by making each
vector's largest-magnitude entry positive, so embeddings are
deterministic functions of their input.

Only the d leading eigenpairs are used; they come from Lanczos or the
full ``np.linalg.eigh``, see ``_leading_eigenpairs``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .graphs import _check_same_size, as_finite, as_symmetric, check_count
from .samplers import stream

# Lanczos for the k = d + 1 leading eigenpairs beats a full eigh from
# about n = 160 while k is at most n / 25. Measured (2-core VM, OpenBLAS,
# mean over omnibus matrices of random dot product and two-block SBM
# graph pairs, and single SBM graphs, k = 3 or 4), eigh against eigsh:
# 1.6-1.7 against 3.1-3.3 ms at n = 100, 2.5-2.8 against 2.6-3.6 ms at
# n = 140, 3.2-4.0 against 3.5-3.6 ms at n = 160 and 5.3-5.6 against
# 3.9-4.5 ms at n = 200. At n = 200 eigsh ties eigh at k = 8, and at
# n = 300 it still wins at k = 31 (12.7 against 13.2 ms).
_LANCZOS_MIN_N = 160
_LANCZOS_N_PER_K = 25
# Neighbouring |eigenvalues| closer than this times the largest are a
# tie, whose order only the full decomposition's position order decides.
_TIE_RTOL = 1e-9
_LANCZOS_SEED = 0  # fixed start vector and restarts: draws from no experiment stream


def _leading_eigenpairs(a: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors that include the d of largest |eigenvalue|.

    The d + 1 leading Lanczos eigenpairs when n is at least
    ``_LANCZOS_MIN_N``, d + 1 is at most n / ``_LANCZOS_N_PER_K``, and
    their |eigenvalues| are distinct to ``_TIE_RTOL``, so that ranking
    them cannot depend on their order. Otherwise, and when ARPACK fails,
    the full ``np.linalg.eigh``, whose ascending position order breaks
    ties. A constant start vector is orthogonal to the block-contrast
    eigenvectors of an equal-block SBM, so the fixed one is random.
    """
    n = a.shape[0]
    k = d + 1
    if n >= _LANCZOS_MIN_N and k * _LANCZOS_N_PER_K <= n:
        gen = stream(_LANCZOS_SEED)
        try:
            # a C-ordered copy: a @ x rounds differently for a Fortran-ordered a,
            # and the embedding must depend on the values alone; a bare matvec
            # skips scipy's matvec -> matmat wrappers on every Lanczos step
            c = np.ascontiguousarray(a)
            w, v = eigsh(LinearOperator(c.shape, matvec=c.dot, dtype=c.dtype), k=k,
                         which="LM", tol=0, v0=gen.uniform(-1.0, 1.0, n), rng=gen)
        except ArpackError:  # ArpackNoConvergence included
            pass
        else:
            mags = -np.sort(-np.abs(w))
            if np.all(mags[:-1] - mags[1:] > _TIE_RTOL * mags[0]):
                return w, v
    return np.linalg.eigh(a)


def ase(m: np.ndarray, d: int) -> np.ndarray:
    """Adjacency spectral embedding: n x d matrix U_d * diag(|lambda|_d)^(1/2).

    Eigenpairs are ranked by |eigenvalue| descending (ties by position
    in the ascending-eigenvalue decomposition); the eigenpairs come from
    Lanczos or the full ``np.linalg.eigh``, see ``_leading_eigenpairs``.
    ``m`` must pass ``as_symmetric``.
    """
    a = as_symmetric("m", m)
    n = a.shape[0]
    check_count("d", d, n)
    w, v = _leading_eigenpairs(a, d)
    order = np.argsort(-np.abs(w), kind="stable")[:d]
    vecs = v[:, order]
    lead = np.argmax(np.abs(vecs), axis=0)  # each column's largest-magnitude entry
    vecs *= np.where(vecs[lead, np.arange(d)] < 0, -1.0, 1.0)
    return vecs * np.sqrt(np.abs(w[order]))[None, :]


def omnibus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2n x 2n omnibus matrix [[A, (A+B)/2], [(A+B)/2, B]], written into
    one array (``np.block`` would allocate two n x 2n rows first)."""
    af, bf = as_finite("a", a), as_finite("b", b)
    _check_same_size(af, bf)
    if af.ndim != 2 or af.shape[0] != af.shape[1]:
        raise ValueError(f"a and b must be square matrices, got shape {af.shape}")
    n = af.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = af
    out[n:, n:] = bf
    out[:n, n:] = out[n:, :n] = (af + bf) / 2.0
    return out


def procrustes_align(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthogonal W minimizing ||x W - y||_F, and the residual.

    W = U V^T from the SVD of x^T y. When x^T y is rank deficient the
    minimizer is not unique; the returned W is the one induced by the
    SVD, not a canonical representative.
    """
    x, y = as_finite("x", x), as_finite("y", y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    u, _, vt = np.linalg.svd(x.T @ y)
    w = u @ vt
    return w, float(np.linalg.norm(x @ w - y))


def t1_semipar(a: np.ndarray, b: np.ndarray, d: int) -> float:
    """Semiparametric statistic: Procrustes distance of the two ASEs."""
    a, b = as_symmetric("a", a), as_symmetric("b", b)
    _check_same_size(a, b)
    return procrustes_align(ase(a, d), ase(b, d))[1]


def t2_omni(a: np.ndarray, b: np.ndarray, d: int) -> float:
    """Omnibus statistic: ||Xhat_O - Yhat_O||_F from the joint embedding.

    Exactly 0.0 when ``np.array_equal(a, b)``, without an embedding: the
    omnibus matrix of (A, A) is [[1, 1], [1, 1]] kron A, whose
    eigenvectors of nonzero eigenvalue all have the form [u; u], so the
    two halves of the embedding coincide for every d and every tie. Both
    paths check a and b (``as_symmetric``), their sizes and d in [1, 2n].
    """
    a, b = as_symmetric("a", a), as_symmetric("b", b)
    _check_same_size(a, b)
    n = a.shape[0]
    check_count("d", d, 2 * n)
    if np.array_equal(a, b):
        return 0.0
    z = ase(omnibus(a, b), d)
    return float(np.linalg.norm(z[:n] - z[n:]))


def scree_elbow(eigenvalues) -> int:
    """Max-gap elbow: argmax_i (|l_i| - |l_{i+1}|) over the leading half.

    ``eigenvalues`` must already be sorted by |value| descending. Ties
    go to the smallest i. Returns the number of values to keep (1-based).
    """
    vals = np.abs(as_finite("eigenvalues", eigenvalues))
    if vals.size == 0:
        raise ValueError("empty eigenvalue list")
    gaps = (vals[:-1] - vals[1:])[:max(1, vals.size // 2)]
    return int(np.argmax(gaps)) + 1 if gaps.size else 1
