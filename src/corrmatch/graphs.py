"""Core graph and permutation primitives.

Graphs are simple and undirected, stored as dense symmetric 0/1 numpy
arrays with zero diagonal. Permutations are length-n integer arrays
``phi`` with ``phi[i]`` the new label of vertex ``i``; shuffling a graph
by ``phi`` produces the adjacency ``P A P^T`` whose (phi[i], phi[j])
entry equals the original (i, j) entry.

Objective values (matching objectives, disagreement counts,
transposition deltas) are computed in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ADJ_DTYPE = np.int8


def as_adjacency(a, copy: bool = False) -> np.ndarray:
    """Validate and return a simple-graph adjacency matrix.

    Accepts any square array-like with entries in {0, 1}, symmetric,
    zero diagonal. Returns an int8 array.
    """
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {m.shape}")
    if not np.isin(m, (0, 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")
    if np.any(np.diag(m) != 0):
        raise ValueError("adjacency must have zero diagonal (no self-loops)")
    if not np.array_equal(m, m.T):
        raise ValueError("adjacency must be symmetric")
    out = m.astype(ADJ_DTYPE, copy=copy)
    return out


def empty_graph(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=ADJ_DTYPE)


def complete_graph(n: int) -> np.ndarray:
    a = np.ones((n, n), dtype=ADJ_DTYPE)
    np.fill_diagonal(a, 0)
    return a


def graph_from_edges(n: int, edges) -> np.ndarray:
    """Adjacency from an iterable of (u, v) pairs."""
    a = empty_graph(n)
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop {u}")
        a[u, v] = 1
        a[v, u] = 1
    return a


def upper_triangle(a: np.ndarray) -> np.ndarray:
    """Strict upper-triangle entries of a as a flat vector (row-major)."""
    n = a.shape[0]
    iu = np.triu_indices(n, k=1)
    return a[iu]


# -- permutations -----------------------------------------------------------

def identity_permutation(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)


def is_permutation(phi: np.ndarray) -> bool:
    phi = np.asarray(phi)
    if phi.ndim != 1:
        return False
    n = phi.shape[0]
    return bool(np.array_equal(np.sort(phi), np.arange(n)))


def invert_permutation(phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi, dtype=np.int64)
    inv = np.empty_like(phi)
    inv[phi] = np.arange(phi.shape[0], dtype=np.int64)
    return inv


def compose_permutations(phi: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Composition (phi o tau): i -> phi[tau[i]]."""
    phi = np.asarray(phi, dtype=np.int64)
    tau = np.asarray(tau, dtype=np.int64)
    if phi.shape != tau.shape:
        raise ValueError("permutation length mismatch")
    return phi[tau]


def permutation_matrix(phi: np.ndarray) -> np.ndarray:
    """P with P[phi[i], i] = 1, so that P A P^T shuffles labels by phi."""
    phi = np.asarray(phi, dtype=np.int64)
    n = phi.shape[0]
    p = np.zeros((n, n), dtype=np.int64)
    p[phi, np.arange(n)] = 1
    return p


def transposition(n: int, i: int, j: int) -> np.ndarray:
    phi = identity_permutation(n)
    phi[i], phi[j] = phi[j], phi[i]
    return phi


def _check_same_size(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"graph size mismatch: {a.shape} vs {b.shape}")


def apply_permutation(g: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Relabel g by phi: edge {i,j} maps to edge {phi[i], phi[j]}.

    Equals P_phi G P_phi^T for the permutation matrix of phi.
    """
    phi = np.asarray(phi, dtype=np.int64)
    if phi.shape[0] != g.shape[0]:
        raise ValueError(f"permutation length {phi.shape[0]} != n {g.shape[0]}")
    if not is_permutation(phi):
        raise ValueError("phi is not a bijection of [n]")
    inv = invert_permutation(phi)
    return g[np.ix_(inv, inv)]


# -- matching objectives ----------------------------------------------------

def gm_objective(a: np.ndarray, b: np.ndarray, phi: np.ndarray) -> int:
    """Squared Frobenius matching objective ||A - P B P^T||_F^2.

    Each disagreeing unordered pair contributes 2.
    """
    _check_same_size(a, b)
    bp = apply_permutation(b, phi)
    d = a.astype(np.int64) - bp.astype(np.int64)
    return int((d * d).sum())


def trace_objective(a: np.ndarray, b: np.ndarray, phi: np.ndarray) -> int:
    """trace(A P B P^T); satisfies ||A-PBP^T||_F^2 = ||A||^2+||B||^2-2*this."""
    _check_same_size(a, b)
    bp = apply_permutation(b, phi)
    return int((a.astype(np.int64) * bp.astype(np.int64)).sum())


def edge_disagreements(a: np.ndarray, b: np.ndarray) -> int:
    """Number of unordered vertex pairs on which a and b differ."""
    _check_same_size(a, b)
    return int(np.abs(a.astype(np.int64) - b.astype(np.int64)).sum()) // 2


def sample_edge_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of the vectorized strict upper triangles.

    Returns 0.0 if either graph has zero edge variance (empty or
    complete), so Monte Carlo aggregation stays total.
    """
    _check_same_size(a, b)
    if a.shape[0] < 2:
        raise ValueError("need n >= 2")
    x = upper_triangle(a).astype(np.float64)
    y = upper_triangle(b).astype(np.float64)
    x -= x.mean()
    y -= y.mean()
    vx = float(x @ x)
    vy = float(y @ y)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return float(x @ y) / np.sqrt(vx * vy)


def transposition_delta(a: np.ndarray, b: np.ndarray, i: int, j: int) -> int:
    """Objective change ||A - P_tau B P_tau^T||_F^2 - ||A - B||_F^2 for tau = i<->j.

    Computed in O(n) as 4 * sum_{k != i,j} (A[i,k]-A[j,k]) * (B[i,k]-B[j,k]).
    """
    _check_same_size(a, b)
    if i == j:
        raise ValueError("transposition needs i != j")
    ai = a[i].astype(np.int64)
    aj = a[j].astype(np.int64)
    bi = b[i].astype(np.int64)
    bj = b[j].astype(np.int64)
    s = int(((ai - aj) * (bi - bj)).sum())
    # remove the k = i and k = j terms of the full sum
    s -= int((a[i, j]) * (b[i, j])) * 2
    return 4 * s


def fixed_error_counts(x: np.ndarray, y: np.ndarray, phi: np.ndarray) -> tuple[int, int]:
    """Fixed addition / occlusion error counts (F_A, F_O) for a shuffle phi.

    F_A counts unordered pairs that are non-edges of x, edges of phi(x),
    and non-edges of phi(y); F_O counts edges of x that phi occludes but
    phi(y) restores.
    """
    _check_same_size(x, y)
    px = apply_permutation(x, phi)
    py = apply_permutation(y, phi)
    xb = x.astype(bool)
    pxb = px.astype(bool)
    pyb = py.astype(bool)
    fa = (~xb) & pxb & (~pyb)
    fo = xb & (~pxb) & pyb
    iu = np.triu_indices(x.shape[0], k=1)
    return int(fa[iu].sum()), int(fo[iu].sum())


# -- invariant statistics ---------------------------------------------------

def max_degree(g: np.ndarray) -> int:
    if g.shape[0] == 0:
        return 0
    return int(g.sum(axis=1).max())


def triangle_count(g: np.ndarray) -> int:
    """Number of triangles, trace(A^3)/6."""
    a = g.astype(np.int64)
    t = int(np.trace(a @ a @ a))
    return t // 6


def spectral_norm(g: np.ndarray) -> float:
    """Largest |eigenvalue| of the (symmetric) adjacency matrix."""
    if g.shape[0] == 0:
        return 0.0
    w = np.linalg.eigvalsh(g.astype(np.float64))
    return float(np.abs(w).max())


# -- block structure --------------------------------------------------------

@dataclass(frozen=True)
class BlockPartition:
    """Partition of [n] into K blocks.

    ``membership[v]`` is the 0-based block of vertex v; ``sizes[i]``
    counts the vertices of block i.
    """

    sizes: tuple[int, ...]
    membership: np.ndarray = field(compare=False, default=None)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if any(s <= 0 for s in sizes):
            raise ValueError("block sizes must be positive")
        if self.membership is None:
            object.__setattr__(self, "membership", np.repeat(np.arange(len(sizes)), sizes))
        else:
            m = np.asarray(self.membership, dtype=np.int64)
            if m.shape[0] != sum(sizes):
                raise ValueError("membership length != sum of sizes")
            counts = np.bincount(m, minlength=len(sizes))
            if len(counts) != len(sizes) or not np.array_equal(counts, np.asarray(sizes)):
                raise ValueError("membership counts do not match sizes")
            object.__setattr__(self, "membership", m)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.sizes)

    def block_vertices(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.membership == i)


# -- file formats -----------------------------------------------------------

def write_edgelist(path, a: np.ndarray) -> None:
    """Write an edge list: header line '# n=<int>' then one 'u v' per line."""
    n = a.shape[0]
    iu, ju = np.nonzero(np.triu(a, k=1))
    with open(path, "w") as fh:
        fh.write(f"# n={n}\n")
        for u, v in zip(iu.tolist(), ju.tolist()):
            fh.write(f"{u} {v}\n")


def read_edgelist(path) -> np.ndarray:
    """Read an edge list file into an adjacency matrix.

    Accepts an optional '# n=<int>' header; otherwise n is inferred as
    max vertex id + 1. Self-loops and duplicate edges are rejected.
    """
    n = None
    edges = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("n="):
                    n = int(body[2:])
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                raise ValueError(f"{path}:{lineno}: self-loop {u}")
            edges.append((u, v))
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    a = empty_graph(n)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range in {path}: ({u}, {v}) with n={n}")
        if a[u, v]:
            raise ValueError(f"duplicate edge ({u}, {v}) in {path}")
        a[u, v] = 1
        a[v, u] = 1
    return a


def write_labels(path, labels) -> None:
    with open(path, "w") as fh:
        for lab in np.asarray(labels, dtype=np.int64).tolist():
            fh.write(f"{lab}\n")


def read_labels(path) -> np.ndarray:
    with open(path) as fh:
        vals = [int(line.strip()) for line in fh if line.strip()]
    return np.asarray(vals, dtype=np.int64)
