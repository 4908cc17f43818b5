"""Graph matching: linear assignment core, Frank-Wolfe relaxation, and
seeded matching.

The matcher maximizes trace(A P B P^T) over permutation matrices by
Frank-Wolfe ascent on the Birkhoff polytope: at each step the gradient
is 2*A*D*B (symmetric adjacencies), the ascent direction is the
permutation Q maximizing the linearized objective (a linear assignment
problem), and the step size solves the 1-d quadratic in R = Q - D
exactly. The final doubly stochastic iterate is projected to the
nearest permutation with one more assignment solve.

Each dense product is formed once: one A*D*B per iterate scores it and
gives the next gradient, and one A*R*B per step gives both line-search
coefficients. The result is relabelled once, for trace(A P B P^T); the
objective follows as ||A||^2 + ||B||^2 - 2 trace(A P B P^T).

Seeded matching reorders both graphs so the seed pairs occupy a leading
aligned block and optimizes only over the non-seed block; the seed
blocks contribute the linear gradient term 2*A21*B21^T.

Returned permutations use the relabeling convention of
``graphs.apply_permutation``: the result phi minimizes
``gm_objective(a, b, phi)``, and ``apply_permutation(b, phi)`` is b
aligned to a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graphs import (
    BlockPartition,
    _check_same_size,
    _read_int_lines,
    _write_int_lines,
    as_adjacency,
    invert_permutation,
    is_permutation,
    trace_objective,
)


def solve_lap(cost) -> tuple[np.ndarray, float]:
    """Exact linear assignment: permutation minimizing sum_i cost[i, phi(i)].

    Ties between optimal assignments keep the backend's deterministic
    (but unspecified) tie-break.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost must be square, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("cost entries must be finite")
    _, cols = linear_sum_assignment(c)
    perm = np.asarray(cols, dtype=np.int64)
    return perm, float(c[np.arange(c.shape[0]), perm].sum())


@dataclass(frozen=True)
class MatchResult:
    """Matcher output: permutation (apply_permutation convention),
    exact objective values, and the relaxed objective trace."""

    permutation: np.ndarray
    objective: int
    trace_value: int
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...]


def _validate_seeds(seeds, n: int) -> np.ndarray:
    arr = np.asarray(() if seeds is None else seeds, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("seeds must be an array of (u, v) pairs")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("seed vertex out of range")
    if len(set(arr[:, 0].tolist())) != arr.shape[0] or len(set(arr[:, 1].tolist())) != arr.shape[0]:
        raise ValueError("conflicting seeds: correspondence must be injective on both sides")
    return arr


def _quadratic_step(c2: float, c1: float) -> float:
    """Maximizer of c2*t^2 + c1*t on [0, 1]; ties prefer t = 1."""
    if c2 < 0.0:
        t_star = -c1 / (2.0 * c2)
        if 0.0 < t_star < 1.0:
            return t_star
    g1 = c2 + c1
    return 1.0 if g1 >= 0.0 else 0.0


def sgm_match(a: np.ndarray, b: np.ndarray, seeds=None, init="barycenter",
              max_iters: int = 100, tol: float = 1e-6) -> MatchResult:
    """Seeded Frank-Wolfe graph matching.

    ``a`` and ``b`` must be simple-graph adjacencies (``as_adjacency``);
    the gradient 2*A*D*B assumes symmetry. ``seeds`` is an iterable of
    (u, v) pairs asserting that vertex u of a corresponds to vertex v of
    b; seed pairs are fixed in the output.
    ``init`` is one of "barycenter", "identity", or a full-length
    permutation (apply_permutation convention, mapping non-seeds to
    non-seeds).
    """
    a = as_adjacency(a)
    b = as_adjacency(b)
    _check_same_size(a, b)
    n = a.shape[0]
    seed_arr = _validate_seeds(seeds, n)
    s = seed_arr.shape[0]
    m = n - s

    free_a = np.setdiff1d(np.arange(n, dtype=np.int64), seed_arr[:, 0], assume_unique=False)
    free_b = np.setdiff1d(np.arange(n, dtype=np.int64), seed_arr[:, 1], assume_unique=False)
    ra = np.concatenate([seed_arr[:, 0], free_a])
    rb = np.concatenate([seed_arr[:, 1], free_b])

    af = a[np.ix_(ra, ra)].astype(np.float64)
    bf = b[np.ix_(rb, rb)].astype(np.float64)
    a21 = af[s:, :s]
    b21 = bf[s:, :s]
    a22 = af[s:, s:]
    b22 = bf[s:, s:]
    lin = a21 @ b21.T  # gradient contribution of the seed blocks
    const = float((af[:s, :s] * bf[:s, :s]).sum())

    d = _initial_iterate(init, m, n, ra, rb, s)
    adb = a22 @ d @ b22  # scores d; 2*adb + 2*lin is the next gradient
    trace_vals = [const + 2.0 * float((lin * d).sum()) + float((adb * d).sum())]
    iterations = 0
    converged = m == 0
    for _ in range(max_iters if m > 0 else 0):
        iterations += 1
        q, _ = solve_lap(-(2.0 * adb + 2.0 * lin))
        r = np.zeros((m, m))
        r[np.arange(m), q] = 1.0
        r -= d  # R = Q - D
        arb = a22 @ r @ b22
        c2 = float((arb * r).sum())
        c1 = 2.0 * float((arb * d).sum()) + 2.0 * float((lin * r).sum())
        del arb
        t = _quadratic_step(c2, c1)
        if t > 0.0:
            d += t * r
            adb = a22 @ d @ b22
        del r
        new_obj = const + 2.0 * float((lin * d).sum()) + float((adb * d).sum())
        prev_obj = trace_vals[-1]
        trace_vals.append(new_obj)
        if abs(new_obj - prev_obj) <= tol * max(1.0, abs(prev_obj)):
            converged = True
            break
    del adb
    proj, _ = solve_lap(-d)

    # canonical full assignment: seeds identity, then projected block
    match = np.empty(n, dtype=np.int64)  # a-vertex -> b-vertex
    match[ra[:s]] = rb[:s]
    match[free_a] = rb[s + proj]
    phi = invert_permutation(match)
    trace_value = trace_objective(a, b, phi)
    return MatchResult(
        permutation=phi,
        objective=int(a.sum()) + int(b.sum()) - 2 * trace_value,
        trace_value=trace_value,
        iterations=iterations,
        converged=converged,
        objective_trace=tuple(trace_vals),
    )


def _initial_iterate(init, m: int, n: int, ra: np.ndarray, rb: np.ndarray, s: int) -> np.ndarray:
    if m == 0:
        return np.zeros((0, 0))
    if isinstance(init, str):
        if init == "barycenter":
            return np.full((m, m), 1.0 / m)
        if init == "identity":
            return np.eye(m)
        raise ValueError(f"unknown init {init!r}")
    arr = np.asarray(init, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != n or not is_permutation(arr):
            raise ValueError("init permutation must be a bijection of [n]")
        pos_b = np.full(n, -1, dtype=np.int64)
        pos_b[rb[s:]] = np.arange(m)
        cols = pos_b[invert_permutation(arr)[ra[s:]]]
        if (cols < 0).any():
            raise ValueError("init permutation must map non-seeds to non-seed targets")
        d = np.zeros((m, m))
        d[np.arange(m), cols] = 1.0
        return d
    raise ValueError(f"init must be 'barycenter', 'identity' or a permutation, got shape {arr.shape}")


def faq_match(a: np.ndarray, b: np.ndarray, init="barycenter",
              max_iters: int = 100, tol: float = 1e-6) -> MatchResult:
    """Unseeded Frank-Wolfe graph matching (seed set empty)."""
    return sgm_match(a, b, seeds=None, init=init, max_iters=max_iters, tol=tol)


def transposition_sweep(a: np.ndarray, b: np.ndarray, partition: BlockPartition):
    """Scan all within-block transpositions for an objective improvement.

    Returns (found, best_pair, best_delta) where found says whether any
    within-block transposition strictly decreases ||A - P B P^T||_F^2,
    best_pair is the (i, j) minimizing the delta (ties broken by block
    then row-major order), and best_delta its value. best_pair is None
    when no block has two vertices.
    """
    _check_same_size(a, b)
    ab = a.astype(np.int64) @ b.astype(np.int64)
    diag = np.diag(ab)
    full = diag[:, None] + diag[None, :] - ab - ab.T
    delta = 4 * (full - 2 * (a.astype(np.int64) * b.astype(np.int64)))

    best_delta = None
    best_pair = None
    for blk in range(partition.num_blocks):
        verts = partition.block_vertices(blk)
        if verts.shape[0] < 2:
            continue
        sub = delta[np.ix_(verts, verts)]
        iu, ju = np.triu_indices(verts.shape[0], k=1)
        vals = sub[iu, ju]
        pos = int(np.argmin(vals))
        if best_delta is None or vals[pos] < best_delta:
            best_delta = int(vals[pos])
            best_pair = (int(verts[iu[pos]]), int(verts[ju[pos]]))
    if best_delta is None:
        return False, None, 0
    return best_delta < 0, best_pair, best_delta


# -- file formats -----------------------------------------------------------

def write_permutation(path, phi: np.ndarray) -> None:
    """Write a permutation file: line i holds phi(i), 0-based."""
    _write_int_lines(path, phi, 1)


def read_permutation(path) -> np.ndarray:
    phi = _read_int_lines(path, 1)[0][:, 0]
    if not is_permutation(phi):
        raise ValueError(f"{path} does not contain a permutation of 0..{phi.shape[0]-1}")
    return phi


def write_seeds(path, seeds: np.ndarray) -> None:
    """Write a seed file: one 'u v' line per seed pair."""
    _write_int_lines(path, seeds, 2)


def read_seeds(path) -> np.ndarray:
    return _read_int_lines(path, 2)[0]


def identity_seeds(vertices) -> np.ndarray:
    """Seed pairs (u, u) for each u, i.e. known identity correspondences."""
    v = np.asarray(vertices, dtype=np.int64)
    return np.stack([v, v], axis=1)
