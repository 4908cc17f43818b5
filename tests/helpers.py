"""Graph, permutation and seed-file helpers that only the unit tests use."""

import tracemalloc

import numpy as np


def random_graph(n, p, rng):
    """Erdos-Renyi(n, p) adjacency, int8, drawn from the upper triangle of rng.random."""
    u = rng.random((n, n))
    a = np.triu((u < p).astype(np.int8), k=1)
    return a + a.T


def complete_graph(n):
    a = np.ones((n, n), dtype=np.int8)
    np.fill_diagonal(a, 0)
    return a


def permutation_matrix(phi):
    """P with P[phi[i], i] = 1, so that P A P^T shuffles labels by phi."""
    n = len(phi)
    p = np.zeros((n, n), dtype=np.int64)
    p[phi, np.arange(n)] = 1
    return p


def write_seeds(path, seeds):
    """Write a seed file: one 'u v' line per seed pair."""
    with open(path, "w") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in np.asarray(seeds, dtype=np.int64).reshape(-1, 2))


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the most bytes that numpy and Python held at once
    during the call beyond what they held before it), by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
