"""Adjacency spectral embedding, omnibus embedding, and the
embedding-based two-sample statistics.

The d-dimensional adjacency spectral embedding of a symmetric matrix M
takes the d eigenpairs of largest |eigenvalue| and scales the
eigenvectors by sqrt(|eigenvalue|); ranking by absolute value makes
this the spectral decomposition of (M^T M)^(1/2) without forming a
matrix square root. Eigenvector signs are fixed by making each
vector's largest-magnitude entry positive, so embeddings are
deterministic functions of their input.
"""

from __future__ import annotations

import numpy as np

from .graphs import _check_same_size, check_count


def _check_symmetric(a: np.ndarray) -> None:
    """Reject a float64 matrix that is not square or not symmetric to 1e-12."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"input must be square, got {a.shape}")
    if not (np.array_equal(a, a.T) or np.allclose(a, a.T, atol=1e-12)):
        raise ValueError("input must be symmetric")


def ase(m: np.ndarray, d: int) -> np.ndarray:
    """Adjacency spectral embedding: n x d matrix U_d * diag(|lambda|_d)^(1/2).

    Eigenpairs are ranked by |eigenvalue| descending (ties by position
    in the ascending-eigenvalue decomposition).
    """
    a = np.asarray(m, dtype=np.float64)
    _check_symmetric(a)
    n = a.shape[0]
    check_count("d", d, n)
    w, v = np.linalg.eigh(a)
    order = np.argsort(-np.abs(w), kind="stable")[:d]
    vecs = v[:, order]
    lead = np.argmax(np.abs(vecs), axis=0)  # each column's largest-magnitude entry
    vecs *= np.where(vecs[lead, np.arange(d)] < 0, -1.0, 1.0)
    return vecs * np.sqrt(np.abs(w[order]))[None, :]


def omnibus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2n x 2n omnibus matrix [[A, (A+B)/2], [(A+B)/2, B]]."""
    _check_same_size(a, b)
    af = np.asarray(a, dtype=np.float64)
    bf = np.asarray(b, dtype=np.float64)
    avg = (af + bf) / 2.0
    return np.block([[af, avg], [avg, bf]])


def procrustes_align(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthogonal W minimizing ||x W - y||_F, and the residual.

    W = U V^T from the SVD of x^T y. When x^T y is rank deficient the
    minimizer is not unique; the returned W is the one induced by the
    SVD, not a canonical representative.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    u, _, vt = np.linalg.svd(x.T @ y)
    w = u @ vt
    residual = float(np.linalg.norm(x @ w - y))
    return w, residual


def t1_semipar(a: np.ndarray, b: np.ndarray, d: int) -> float:
    """Semiparametric statistic: Procrustes distance of the two ASEs."""
    _check_same_size(a, b)
    return procrustes_align(ase(a, d), ase(b, d))[1]


def t2_omni(a: np.ndarray, b: np.ndarray, d: int) -> float:
    """Omnibus statistic: ||Xhat_O - Yhat_O||_F from the joint embedding.

    Exactly 0.0 when ``np.array_equal(a, b)``, without an embedding: the
    omnibus matrix of (A, A) is [[1, 1], [1, 1]] kron A, whose
    eigenvectors of nonzero eigenvalue all have the form [u; u], so the
    two halves of the embedding coincide for every d and every tie. The
    input checks (sizes, d in [1, 2n], square, symmetric) are the same
    on both paths.
    """
    _check_same_size(a, b)
    n = a.shape[0]
    if np.array_equal(a, b):
        _check_symmetric(np.asarray(a, dtype=np.float64))
        check_count("d", d, 2 * n)
        return 0.0
    z = ase(omnibus(a, b), d)
    return float(np.linalg.norm(z[:n] - z[n:]))


def scree_elbow(eigenvalues) -> int:
    """Max-gap elbow: argmax_i (|l_i| - |l_{i+1}|) over the leading half.

    ``eigenvalues`` must already be sorted by |value| descending. Ties
    go to the smallest i. Returns the number of values to keep (1-based).
    """
    vals = np.abs(np.asarray(eigenvalues, dtype=np.float64))
    if vals.size == 0:
        raise ValueError("empty eigenvalue list")
    if vals.size == 1:
        return 1
    gaps = vals[:-1] - vals[1:]
    limit = max(1, vals.size // 2)
    gaps = gaps[:limit]
    return int(np.argmax(gaps)) + 1
