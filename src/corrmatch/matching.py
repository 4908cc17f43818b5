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

The graphs stay int8. The products with a permutation matrix and the
seed-block gradient are counts of at most n < 2**24, so float32 holds
every partial sum exactly and they run as sgemm, in any summation order;
their gathered sums run in float64, also exactly; the seed-block gradient
is kept in the narrowest unsigned type that holds s. The products with a
fractional iterate, (A*R)*B and (A*D)*B, stay float64 dgemms in that
order, each widening its graph to float64 just for that product. R is
rebuilt, with the same bits, after the second product, so a step holds
at most four m x m float64 arrays: D, A*R, the widened B and A*R*B.

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
    _inverse,
    _read_int_lines,
    _write_int_lines,
    apply_permutation,
    as_adjacency,
    as_finite,
    as_vertex_ids,
    as_vertex_pairs,
    check_count,
    check_range,
    is_permutation,
    trace_objective,
)
from .samplers import sample_subset_shuffle


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
    arr = as_vertex_pairs("seeds", () if seeds is None else seeds, n)
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

    ag = _gather(a, ra)  # int8, widened for one product at a time
    bg = _gather(b, rb)
    a22 = ag[s:, s:]
    b22 = bg[s:, s:]
    # gradient contribution of the seed blocks: counts of at most s, so uint8 up to 255 seeds
    lin = ag[s:, :s].astype(np.float32) @ bg[s:, :s].T.astype(np.float32)
    lin = lin.astype(np.min_scalar_type(s))  # every use widens it to float64
    const = float((ag[:s, :s] * bg[:s, :s]).sum())
    rows = np.arange(m)

    def permuted_product(cols: np.ndarray) -> np.ndarray:
        """A*P*B for the permutation matrix P with a 1 at (i, cols[i]): counts
        of at most m < 2**24, exact in float32 in any summation order."""
        return a22[:, _inverse(cols)].astype(np.float32) @ b22.astype(np.float32)

    def fractional_product(x: np.ndarray) -> np.ndarray:
        """(A*X)*B in float64, for a fractional X."""
        return (a22.astype(np.float64) @ x) @ b22.astype(np.float64)

    def direction(q: np.ndarray) -> np.ndarray:
        r = _permutation_matrix(q)  # R = Q - D in place, the same bits at each call
        r -= d
        return r

    def gathered(mat: np.ndarray, cols: np.ndarray) -> float:
        """sum_i mat[i, cols[i]]: exact, as mat holds integer counts."""
        return float(mat[rows, cols].sum(dtype=np.float64))

    def score() -> float:
        """Relaxed objective of the current iterate."""
        if perm is None:
            return const + 2.0 * float((lin * d).sum()) + float((adb * d).sum())
        return const + 2.0 * gathered(lin, perm) + gathered(adb, perm)

    # adb scores the iterate; 2*adb + 2*lin is the next gradient
    adb = fractional_product(d) if perm is None else permuted_product(perm)
    trace_vals = [score()]
    iterations = 0
    converged = m == 0
    for _ in range(max_iters if m > 0 else 0):
        iterations += 1
        # -(2*adb + 2*lin) bit for bit: both are >= 0, so doubling their sum is exact
        cost = np.add(adb, lin, dtype=np.float64)
        cost *= -2.0
        q = linear_sum_assignment(cost)[1]  # built finite and square
        del cost
        if perm is not None:
            arb = permuted_product(q)
            arb -= adb  # A*R*B = A*Q*B - A*D*B
            arb_d = gathered(arb, perm)
            c2 = gathered(arb, q) - arb_d
            c1 = 2.0 * arb_d + 2.0 * (gathered(lin, q) - gathered(lin, perm))
            t = _quadratic_step(c2, c1)
            if t == 1.0:
                adb += arb  # A*Q*B
            del arb
            if 0.0 < t < 1.0:
                d = _permutation_matrix(perm)
                r = direction(q)
        else:
            adb = None  # a t == 0 step keeps the score; any other step rebuilds adb
            ax = a22.astype(np.float64) @ direction(q)
            arb = ax @ b22.astype(np.float64)  # (A*R)*B, with R rebuilt after it
            r = direction(q)
            c2 = float(np.multiply(arb, r, out=ax).sum())
            c1 = (2.0 * float(np.multiply(arb, d, out=ax).sum())
                  + 2.0 * float(np.multiply(lin, r, out=ax).sum()))
            del ax, arb
            t = _quadratic_step(c2, c1)
            if t == 1.0:  # D + R is exactly Q
                adb = permuted_product(q)
        if t == 1.0:
            perm, d = q, None
        elif t > 0.0:
            r *= t
            d += r  # D + t*R
            r = adb = None  # freed before the products
            adb = fractional_product(d)
            perm = None
        r = None
        prev_obj = trace_vals[-1]
        new_obj = prev_obj if t == 0.0 else score()  # a t == 0 step keeps the iterate
        trace_vals.append(new_obj)
        if abs(new_obj - prev_obj) <= tol * max(1.0, abs(prev_obj)):
            converged = True
            break
    del adb
    # a permutation matrix D is the unique optimum of the assignment on -D
    proj = perm if perm is not None else linear_sum_assignment(-d)[1]
    del d, lin

    # canonical full assignment: seeds identity, then projected block
    match = np.empty(n, dtype=np.int64)  # a-vertex -> b-vertex
    match[ra[:s]] = rb[:s]
    match[free_a] = rb[s + proj]
    phi = _inverse(match)
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
    cols = pos_b[_inverse(arr)[ra[s:]]]
    if (cols < 0).any():
        raise ValueError("init permutation must map non-seeds to non-seed targets")
    return cols, None


def faq_match(a: np.ndarray, b: np.ndarray, init="barycenter",
              max_iters: int = 100, tol: float = 1e-6) -> MatchResult:
    """Unseeded Frank-Wolfe graph matching (seed set empty)."""
    return sgm_match(a, b, seeds=None, init=init, max_iters=max_iters, tol=tol)


def _shuffle_and_match(a: np.ndarray, b: np.ndarray, seeds: np.ndarray, k: int,
                       rng) -> tuple[np.ndarray, np.ndarray]:
    """(b_shuffled, b_realigned): b with k random vertices outside ``seeds``
    shuffled (``sample_subset_shuffle``), and that graph realigned to a by
    seeded matching on the identity pairs of ``seeds``. Matching draws
    nothing from ``rng``."""
    b_sh = apply_permutation(b, sample_subset_shuffle(b.shape[0], seeds, k, rng))
    res = sgm_match(a, b_sh, seeds=identity_seeds(seeds))
    return b_sh, apply_permutation(b_sh, res.permutation)


def transposition_sweep(a: np.ndarray, b: np.ndarray, partition: BlockPartition):
    """Scan all within-block transpositions for an objective improvement.

    Returns (found, best_pair, best_delta) where found says whether any
    within-block transposition strictly decreases ||A - P B P^T||_F^2,
    best_pair is the (i, j) minimizing the delta (ties broken by block
    then row-major order), and best_delta its value. best_pair is None
    when no block has two vertices.
    """
    a, b = as_adjacency(a), as_adjacency(b)
    _check_same_size(a, b)
    if not isinstance(partition, BlockPartition) or partition.n != a.shape[0]:
        raise ValueError(f"partition must be a BlockPartition of n={a.shape[0]}, got {partition!r}")
    ab = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)  # counts <= n: exact
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
