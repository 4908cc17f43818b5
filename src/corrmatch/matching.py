"""Graph matching: linear assignment core, Frank-Wolfe relaxation, and
seeded matching.

The matcher maximizes trace(A P B P^T) over permutation matrices by
Frank-Wolfe ascent on the Birkhoff polytope: at each step the gradient
is 2*A*D*B (symmetric adjacencies), the ascent direction is the
permutation Q maximizing the linearized objective (a linear assignment
problem), and the step size solves the 1-d quadratic in R = Q - D
exactly. A final fractional iterate is projected to the nearest
permutation with one more assignment solve.

A step from a fractional iterate forms A*R*B once for both line-search
coefficients and, when the iterate moves, one A*D*B that scores it and
gives the next gradient: 4 dense matmuls. While D is a permutation
matrix (the identity and permutation inits, and after every step of
length exactly t = 1, which lands exactly on Q), every product with D
or R is an exact integer matrix. Such a step forms A*Q*B as one matmul
of the column-gathered A with B, takes A*R*B = A*Q*B - A*D*B, scores by
O(m) gathers, and needs no final projection. Both ways give the same
bits. The result is relabelled once, for trace(A P B P^T); the
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
    _complement,
    _gather,
    _read_int_lines,
    _write_int_lines,
    as_adjacency,
    as_finite,
    as_vertex_ids,
    check_count,
    check_range,
    invert_permutation,
    is_permutation,
    trace_objective,
)


def solve_lap(cost) -> tuple[np.ndarray, float]:
    """Exact linear assignment: permutation minimizing sum_i cost[i, phi(i)].

    Ties between optimal assignments keep the backend's deterministic
    (but unspecified) tie-break.
    """
    c = as_finite("cost", cost)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost must be square, got shape {c.shape}")
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
    arr = as_vertex_ids("seeds", () if seeds is None else seeds, n)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("seeds must be an array of (u, v) pairs")
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
    non-seeds) of vertex ids (``as_vertex_ids``), checked even when every
    vertex is seeded. ``max_iters`` may be 0, which projects the init.
    """
    a = as_adjacency(a)
    b = as_adjacency(b)
    _check_same_size(a, b)
    check_count("max_iters", max_iters, low=0)
    check_range("tol", (tol,), 0)
    n = a.shape[0]
    seed_arr = _validate_seeds(seeds, n)
    s = seed_arr.shape[0]
    m = n - s

    free_a = _complement(seed_arr[:, 0], n)
    free_b = _complement(seed_arr[:, 1], n)
    ra = np.concatenate([seed_arr[:, 0], free_a])
    rb = np.concatenate([seed_arr[:, 1], free_b])
    # While D is exactly a permutation matrix, perm holds its columns and d
    # is None; otherwise perm is None and d holds D. A t == 1 step lands
    # exactly on Q: x + (1 - x) == 1 and x + (0 - x) == +0 for x in [0, 1].
    perm, d = _initial_iterate(init, m, n, ra, rb, s)

    af = _gather(a, ra).astype(np.float64)
    bf = _gather(b, rb).astype(np.float64)
    a21 = af[s:, :s]
    b21 = bf[s:, :s]
    a22 = af[s:, s:]
    b22 = bf[s:, s:]
    lin = a21 @ b21.T  # gradient contribution of the seed blocks
    const = float((af[:s, :s] * bf[:s, :s]).sum())
    rows = np.arange(m)

    def permuted_product(cols: np.ndarray) -> np.ndarray:
        """A*P*B for the permutation matrix P with a 1 at (i, cols[i]): exact."""
        return a22[:, invert_permutation(cols)] @ b22

    def score() -> float:
        """Relaxed objective of the current iterate."""
        if perm is None:
            return const + 2.0 * float((lin * d).sum()) + float((adb * d).sum())
        return const + 2.0 * float(lin[rows, perm].sum()) + float(adb[rows, perm].sum())

    # adb scores the iterate; 2*adb + 2*lin is the next gradient
    adb = a22 @ d @ b22 if perm is None else permuted_product(perm)
    trace_vals = [score()]
    iterations = 0
    converged = m == 0
    for _ in range(max_iters if m > 0 else 0):
        iterations += 1
        q = linear_sum_assignment(-(2.0 * adb + 2.0 * lin))[1]  # built finite and square
        if perm is not None:
            arb = permuted_product(q)
            arb -= adb  # A*R*B = A*Q*B - A*D*B
            arb_d = float(arb[rows, perm].sum())
            c2 = float(arb[rows, q].sum()) - arb_d
            c1 = 2.0 * arb_d + 2.0 * (float(lin[rows, q].sum()) - float(lin[rows, perm].sum()))
            t = _quadratic_step(c2, c1)
            if t == 1.0:
                adb += arb  # A*Q*B
            del arb
            if 0.0 < t < 1.0:
                d = _permutation_matrix(perm)
                r = _permutation_matrix(q) - d
        else:
            r = _permutation_matrix(q)
            r -= d  # R = Q - D
            arb = a22 @ r @ b22
            c2 = float((arb * r).sum())
            c1 = 2.0 * float((arb * d).sum()) + 2.0 * float((lin * r).sum())
            del arb
            t = _quadratic_step(c2, c1)
            if t == 1.0:  # D + R is exactly Q
                adb = permuted_product(q)
        if t == 1.0:
            perm, d = q, None
        elif t > 0.0:
            d += t * r
            adb = a22 @ d @ b22
            perm = None
        r = None
        new_obj = score()
        prev_obj = trace_vals[-1]
        trace_vals.append(new_obj)
        if abs(new_obj - prev_obj) <= tol * max(1.0, abs(prev_obj)):
            converged = True
            break
    del adb
    # a permutation matrix D is the unique optimum of the assignment on -D
    proj = perm if perm is not None else linear_sum_assignment(-d)[1]

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


def _permutation_matrix(cols: np.ndarray) -> np.ndarray:
    """Float permutation matrix with a 1 at (i, cols[i])."""
    mat = np.zeros((cols.shape[0], cols.shape[0]))
    mat[np.arange(cols.shape[0]), cols] = 1.0
    return mat


def _initial_iterate(init, m: int, n: int, ra: np.ndarray, rb: np.ndarray,
                     s: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(perm, d): the columns of a permutation init and None, or None and
    the dense barycenter. Checks init whatever m is."""
    if isinstance(init, str):
        if init not in ("barycenter", "identity"):
            raise ValueError(f"unknown init {init!r}")
        if m == 0 or init == "identity":
            return np.arange(m), None
        return None, np.full((m, m), 1.0 / m)
    arr = as_vertex_ids("init", init, n)
    if arr.shape != (n,) or not is_permutation(arr):
        raise ValueError("init permutation must be a bijection of [n]")
    pos_b = np.full(n, -1, dtype=np.int64)
    pos_b[rb[s:]] = np.arange(m)
    cols = pos_b[invert_permutation(arr)[ra[s:]]]
    if (cols < 0).any():
        raise ValueError("init permutation must map non-seeds to non-seed targets")
    return cols, None


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


def read_seeds(path, vertices: int | None = None) -> np.ndarray:
    """Lines of 'u v' seed pairs; with ``vertices``, ids in [0, vertices)."""
    return _read_int_lines(path, 2, vertices)[0]


def identity_seeds(vertices) -> np.ndarray:
    """Seed pairs (u, u) for each u, i.e. known identity correspondences."""
    v = as_vertex_ids("vertices", vertices)
    return np.stack([v, v], axis=1)
