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

import functools
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

ADJ_DTYPE = np.int8


def as_adjacency(a) -> np.ndarray:
    """Validate and return a simple-graph adjacency matrix.

    Accepts any square array-like with entries in {0, 1}, symmetric,
    zero diagonal. Returns an int8 array.
    """
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {m.shape}")
    if m.dtype.kind == "c" or not ((m == 0) | (m == 1)).all():
        raise ValueError("adjacency entries must be real 0 or 1")
    if np.any(np.diag(m) != 0):
        raise ValueError("adjacency must have zero diagonal (no self-loops)")
    if not np.array_equal(m, m.T):
        raise ValueError("adjacency must be symmetric")
    return m.astype(ADJ_DTYPE, copy=False)


def graph_from_edges(n: int, edges) -> np.ndarray:
    """Adjacency from an (m, 2) array or a sequence of (u, v) pairs; () gives the empty graph."""
    n = check_count("n", n, low=0)
    u, v = as_vertex_pairs("edges", edges, n).T
    if (u == v).any():
        raise ValueError(f"self-loop {u[u == v][0]}")
    a = np.zeros((n, n), dtype=ADJ_DTYPE)
    a[u, v] = 1
    a[v, u] = 1
    return a


@functools.lru_cache(maxsize=16)
def _strict_upper_mask(n: int) -> np.ndarray:
    """Read-only n x n boolean mask of the strict upper triangle."""
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def upper_triangle(a: np.ndarray) -> np.ndarray:
    """Strict upper-triangle entries of a square a as a flat vector (row-major)."""
    return a[_strict_upper_mask(a.shape[0])]


# -- permutations -----------------------------------------------------------

def identity_permutation(n: int) -> np.ndarray:
    return np.arange(check_count("n", n, low=0), dtype=np.int64)


def is_permutation(phi: np.ndarray) -> bool:
    phi = np.asarray(phi)
    if phi.ndim != 1:
        return False
    n = phi.shape[0]
    return bool(np.array_equal(np.sort(phi), np.arange(n)))


def invert_permutation(phi) -> np.ndarray:
    phi = as_vertex_ids("phi", phi)
    if not is_permutation(phi):
        raise ValueError("phi is not a bijection of [n]")
    return _inverse(phi)


def _inverse(phi: np.ndarray) -> np.ndarray:
    """Inverse of an int64 array already known to be a permutation."""
    inv = np.empty_like(phi)
    inv[phi] = np.arange(phi.shape[0], dtype=np.int64)
    return inv


def _complement(vertices: np.ndarray, n: int) -> np.ndarray:
    """Sorted vertices of [n] not in ``vertices``, as int64."""
    keep = np.ones(n, dtype=bool)
    keep[vertices] = False
    return np.flatnonzero(keep).astype(np.int64, copy=False)


def _gather(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """g[np.ix_(idx, idx)] as two single-axis takes, in C order like np.ix_."""
    return g.take(idx, 0).take(idx, 1)


def transposition(n: int, i: int, j: int) -> np.ndarray:
    phi = identity_permutation(n)
    i, j = as_vertex_ids("i and j", (i, j), n)
    phi[i], phi[j] = phi[j], phi[i]
    return phi


def check_range(name: str, values, low: float, high: float = math.inf) -> None:
    """Reject the first of ``values`` that is not a real number (a complex
    number, a string or an array; a real 0-d array passes), or is outside
    [low, high], NaN, or +inf."""
    for v in values:
        inside = None
        # an array compares elementwise; a 0-d complex one is no real number, like a complex scalar
        if not (isinstance(v, np.ndarray) and (v.ndim or v.dtype.kind == "c")):
            try:
                inside = low <= v <= high and v != math.inf  # math.isinf overflows on 10**400
            except TypeError:
                pass
        if inside is None or isinstance(v, np.complexfloating):  # numpy orders complex numbers
            raise ValueError(f"{name} must be a real number, got {v!r}")
        if not inside:
            raise ValueError(f"{name} value {v} is outside [{low}, {high}"
                             + ("]" if high < math.inf else ")"))


def as_finite(name: str, values) -> np.ndarray:
    """``values`` as float64: a bool, integer or float array, all finite."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    with np.errstate(over="ignore"):  # a long double past float64's range becomes inf
        arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} entries must be finite, got a NaN or infinite entry")
    return arr


def as_matrix(name: str, m) -> np.ndarray:
    """``m`` as a finite float64 (``as_finite``) n x d matrix."""
    m = as_finite(name, m)
    if m.ndim != 2:
        raise ValueError(f"{name} must be an n x d matrix, got shape {m.shape}")
    return m


def as_symmetric(name: str, m, low: float = -math.inf, high: float = math.inf) -> np.ndarray:
    """``m`` as a finite float64 matrix (``as_finite``) that is square,
    symmetric to 1e-12 absolute, and has entries in [low, high]."""
    m = as_finite(name, m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not (np.array_equal(m, m.T) or np.allclose(m, m.T, rtol=0.0, atol=1e-12)):
        raise ValueError(f"{name} must be symmetric to 1e-12")
    if m.size and (low, high) != (-math.inf, math.inf):
        check_range(name, (m.min(), m.max()), low, high)
    return m


def check_count(name: str, value, high: float = math.inf, *, low: int = 1) -> int:
    """``value`` as an int; rejects a non-integer (bools included) or one outside [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    check_range(name, (value,), low, high)
    return int(value)


def as_vertex_ids(name: str, values, n: int | None = None) -> np.ndarray:
    """``values`` as int64 ids, in [0, n) if n is given, rejecting scalars,
    bools and non-integers like check_count: an array by its dtype, other
    input item by item too, as numpy reads [True, 2] as integers. Unsigned
    ids past int64's range are rejected, not wrapped to negative ones."""
    bools = False
    if not isinstance(values, np.ndarray) and np.iterable(values):
        values = list(values)
        bools = any(isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat)
    arr = np.asarray(values)
    if bools or arr.ndim == 0 or arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be a sequence of integer vertex ids, without bools")
    if arr.size and (n is not None or arr.dtype.kind == "u"):
        check_range(name, (arr.min(), arr.max()), 0,
                    np.iinfo(np.int64).max if n is None else n - 1)
    return arr.astype(np.int64, copy=False)


def as_vertex_pairs(name: str, values, n: int) -> np.ndarray:
    """``values`` as an (m, 2) array of ``as_vertex_ids`` in [0, n); empty input gives m = 0."""
    arr = as_vertex_ids(name, values, n)
    if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
        raise ValueError(f"{name} must be an array of (u, v) pairs")
    return arr.reshape(-1, 2)


def check_grid(name: str, values, high: float = math.inf, *, real: bool = False) -> list:
    """The grid ``values`` read once into a list of floats (``real``) or counts in [0, high]."""
    if not np.iterable(values):
        raise ValueError(f"{name} must be a sequence, got {values!r}")
    values = list(values)
    if real:
        check_range(name, values, 0, high)
    values = [float(v) if real else check_count(name, v, high, low=0) for v in values]
    if not values:
        raise ValueError(f"{name} must not be empty")
    if len(set(values)) != len(values):
        raise ValueError(f"{name} must not repeat a value, got {values}")
    return values


def _check_same_size(a: np.ndarray, b: np.ndarray) -> None:
    """Two graphs, embeddings or labelings of the same shape."""
    if a.shape != b.shape:
        raise ValueError(f"size mismatch: {a.shape} vs {b.shape}")


def _as_instance(name: str, value, cls: type):
    """``value`` if it is a ``cls`` (a model such as an SbmParams, or a
    numpy Generator), else a ValueError."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def apply_permutation(g: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Relabel g by phi: edge {i,j} maps to edge {phi[i], phi[j]}.

    Equals P_phi G P_phi^T for the permutation matrix of phi.
    """
    inv = invert_permutation(phi)
    if inv.shape[0] != g.shape[0]:
        raise ValueError(f"permutation length {inv.shape[0]} != n {g.shape[0]}")
    return _gather(g, inv)


# -- matching objectives ----------------------------------------------------

def gm_objective(a: np.ndarray, b: np.ndarray, phi: np.ndarray) -> int:
    """Squared Frobenius matching objective ||A - P B P^T||_F^2: each
    disagreeing unordered pair contributes 2."""
    return 2 * edge_disagreements(a, apply_permutation(b, phi))


def trace_objective(a: np.ndarray, b: np.ndarray, phi: np.ndarray) -> int:
    """trace(A P B P^T), summed in int64; ||A-PBP^T||_F^2 = ||A||^2+||B||^2-2*this."""
    _check_same_size(a, b)
    bp = apply_permutation(b, phi)
    return int(np.einsum("ij,ij->", a, bp, dtype=np.int64, casting="unsafe"))


def edge_disagreements(a: np.ndarray, b: np.ndarray) -> int:
    """Number of unordered vertex pairs on which a and b differ."""
    _check_same_size(a, b)
    diff = np.subtract(a, b, dtype=np.int64, casting="unsafe")  # the one n x n int64 array
    return int(np.abs(diff, out=diff).sum()) // 2


def sample_edge_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of the vectorized strict upper triangles.

    Returns 0.0 if either graph has zero edge variance (empty or
    complete), so Monte Carlo aggregation stays total.
    """
    _check_same_size(a, b)
    check_count("n", a.shape[0], low=2)
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
    i, j = as_vertex_ids("i and j", (i, j), a.shape[0])
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
    x, y = as_adjacency(x), as_adjacency(y)
    _check_same_size(x, y)
    px = apply_permutation(x, phi)
    py = apply_permutation(y, phi)
    xb = x.astype(bool)
    pxb = px.astype(bool)
    pyb = py.astype(bool)
    fa = (~xb) & pxb & (~pyb)
    fo = xb & (~pxb) & pyb
    return int(upper_triangle(fa).sum()), int(upper_triangle(fo).sum())


# -- invariant statistics ---------------------------------------------------

def max_degree(g: np.ndarray) -> int:
    return int(g.sum(axis=1).max(initial=0))


def triangle_count(g: np.ndarray) -> int:
    """Number of triangles, trace(A^3)/6.

    trace(A^3) = sum((A @ A) * A^T) in float64 is exact: entries of A^2
    are at most n, so every partial sum is an integer below n^3 < 2^53
    for n < 2 * 10^5.
    """
    a = g.astype(np.float64)
    return int(((a @ a) * a.T).sum()) // 6


def spectral_norm(g: np.ndarray) -> float:
    """Largest |eigenvalue| of the (symmetric) adjacency matrix."""
    return float(np.abs(np.linalg.eigvalsh(g.astype(np.float64))).max(initial=0.0))


# -- block structure --------------------------------------------------------

@dataclass(frozen=True)
class BlockPartition:
    """Partition of [n] into K consecutive blocks.

    ``membership[v]`` is the 0-based block of vertex v; ``sizes[i]``
    counts the vertices of block i.
    """

    sizes: tuple[int, ...]
    membership: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if not np.iterable(self.sizes):
            raise ValueError(f"sizes must be a sequence, got {self.sizes!r}")
        # numpy counts vertices in int64
        sizes = tuple(check_count("block size", s, np.iinfo(np.int64).max) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "membership", np.repeat(np.arange(len(sizes)), sizes))

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.sizes)

    def block_vertices(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.membership == i)


# -- file formats -----------------------------------------------------------
# Edge lists, labels, permutations and seeds share one format: lines of the
# same number of integers. Blank lines and lines whose first non-blank
# character is '#' are skipped; '# n=<int>' gives n.

_HEADER = re.compile(r"#\s*n=(.*)")


def _file_error(path, text: str, width: int, row: int | None = None,
                message: str = "") -> ValueError:
    """The error naming the first malformed line of a file's ``text``, or
    else the line of data row ``row`` with ``message`` (error path only)."""
    seen = -1  # index of the last data row read
    for lineno, line in enumerate(text.split("\n"), start=1):
        line, tokens = line.strip(), line.split()
        header = _HEADER.match(line)
        if header and not header[1].strip().isdecimal():
            return ValueError(f"{path}:{lineno}: expected '# n=<int>', got {line!r}")
        if not tokens or line.startswith("#"):
            continue
        if len(tokens) != width or not all(
                re.fullmatch(r"[+-]?[0-9]+", t) and -2 ** 63 <= int(t) < 2 ** 63 for t in tokens):
            return ValueError(f"{path}:{lineno}: expected {width} integer(s), got {line!r}")
        seen += 1
        if seen == row:
            return ValueError(f"{path}:{lineno}: {message}")
    return ValueError(f"{path}: expected lines of {width} integer(s)")


def _read_int_lines(path, width: int,
                    vertices: int | None = None) -> tuple[np.ndarray, int | None, str]:
    """The data rows of a file, shape (lines, width), its '# n=' count, and
    its text, which ``_file_error`` reads (a pipe cannot be read twice).
    With ``vertices``, every value must be a vertex id in [0, vertices)."""
    with open(path) as fh:
        text = fh.read()
    n = None
    for line in re.findall(r"^.*#.*", text, re.MULTILINE):  # the lines holding a '#'
        header = _HEADER.match(line.strip())
        if not line.lstrip().startswith("#") or header and not header[1].strip().isdecimal():
            raise _file_error(path, text, width)  # '#' after data, or a malformed '# n='
        n = int(header[1]) if header else n
    try:  # a last row of zeros fixes the width, also of a file without data
        rows = np.loadtxt(io.StringIO(f"{text}\n{' 0' * width}"), dtype=np.int64,
                          comments="#", ndmin=2)
    except ValueError:
        raise _file_error(path, text, width) from None
    rows = rows[:-1]
    if vertices is not None:
        bad = ((rows < 0) | (rows >= vertices)).any(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            row = rows[k].tolist()
            raise _file_error(path, text, width, k, f"vertex out of range "
                              f"{row[0] if width == 1 else tuple(row)} with n={vertices}")
    return rows, n, text


def _write_int_lines(path, values, width: int, header: str = "") -> None:
    """Write ``header``, then ``values`` as lines of ``width`` integers."""
    rows = np.asarray(values, dtype=np.int64).reshape(-1, width)
    line = " ".join(["%d"] * width) + "\n"
    with open(path, "w") as fh:
        fh.write(header + (line * len(rows)) % tuple(rows.ravel().tolist()))


def write_edgelist(path, a: np.ndarray) -> None:
    """Write an edge list: header line '# n=<int>' then one 'u v' per line."""
    _write_int_lines(path, np.argwhere(np.triu(a, k=1)), 2, header=f"# n={a.shape[0]}\n")


def read_edgelist(path) -> np.ndarray:
    """Read an edge list file into an adjacency matrix.

    Accepts an optional '# n=<int>' header; otherwise n is inferred as
    max vertex id + 1. Self-loops, vertices out of range and duplicate
    edges are rejected, naming the file line.
    """
    edges, n, text = _read_int_lines(path, 2)
    n = int(edges.max(initial=-1)) + 1 if n is None else n
    u, v = edges.T
    first = np.zeros(len(edges), dtype=bool)
    first[np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)[1]] = True
    for bad, message in ((u == v, "self-loop {u}"),
                         ((edges < 0).any(axis=1) | (edges >= n).any(axis=1),
                          "vertex out of range ({u}, {v}) with n={n}"),
                         (~first, "duplicate edge ({u}, {v})")):
        if bad.any():
            k = int(np.argmax(bad))
            raise _file_error(path, text, 2, k, message.format(u=u[k], v=v[k], n=n))
    return graph_from_edges(n, edges)


def write_labels(path, labels) -> None:
    """Write one integer label per line; ``labels`` is a 1-D ``as_vertex_ids`` input."""
    labels = as_vertex_ids("labels", labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be a 1-D labeling, got shape {labels.shape}")
    _write_int_lines(path, labels, 1)


def read_labels(path, vertices: int | None = None) -> np.ndarray:
    """One integer per line; with ``vertices``, each a vertex id in [0, vertices)."""
    return _read_int_lines(path, 1, vertices)[0][:, 0]
