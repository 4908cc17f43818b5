import itertools

import networkx as nx
import numpy as np
import pytest

from corrmatch import (
    BlockPartition,
    apply_permutation,
    as_adjacency,
    edge_disagreements,
    empty_graph,
    fixed_error_counts,
    gm_objective,
    graph_from_edges,
    identity_permutation,
    invert_permutation,
    max_degree,
    read_edgelist,
    read_labels,
    read_permutation,
    read_seeds,
    sample_edge_correlation,
    spectral_norm,
    trace_objective,
    transposition,
    transposition_delta,
    triangle_count,
    write_edgelist,
    write_labels,
    write_permutation,
)
from corrmatch.graphs import upper_triangle
from helpers import complete_graph, permutation_matrix, random_graph, traced_peak


PATH3 = graph_from_edges(3, [(0, 1), (1, 2)])
CHERRY3 = graph_from_edges(3, [(0, 1), (0, 2)])


class TestApplyPermutation:
    def test_identity(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert np.array_equal(apply_permutation(g, identity_permutation(4)), g)

    def test_complete_graph_invariant(self):
        k3 = complete_graph(3)
        for phi in itertools.permutations(range(3)):
            assert np.array_equal(apply_permutation(k3, np.array(phi)), k3)

    def test_path_swap_hand_case(self):
        # edge rule by hand: {0,1}->{1,0}, {1,2}->{0,2}
        out = apply_permutation(PATH3, transposition(3, 0, 1))
        assert np.array_equal(out, graph_from_edges(3, [(0, 1), (0, 2)]))

    def test_matches_matrix_conjugation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_graph(7, 0.4, rng)
            phi = rng.permutation(7)
            p = permutation_matrix(phi)
            assert np.array_equal(apply_permutation(g, phi), p @ g @ p.T)

    def test_involution_with_inverse(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_graph(9, 0.5, rng)
            phi = rng.permutation(9)
            back = apply_permutation(apply_permutation(g, phi), invert_permutation(phi))
            assert np.array_equal(back, g)

    @pytest.mark.parametrize("phi, match", [([0, 1], "length 2 != n 3"),
                                            ([0, 0, 1], "not a bijection"),
                                            ([0, 1, 3], "not a bijection"),
                                            ([0.5, 1, 2], "phi must be a sequence"),
                                            ([True, False, True], "phi must be a sequence")])
    def test_rejects_bad_permutation(self, phi, match):
        with pytest.raises(ValueError, match=match):
            apply_permutation(PATH3, np.array(phi))


@pytest.mark.parametrize("edges, match", [([(0.5, 2)], "edges must be a sequence"),
                                          ([(True, 2)], "edges must be a sequence"),
                                          (np.array([[0.0, 2.0]]), "edges must be a sequence"),
                                          ([(-1, 0)], r"edges value -1 is outside \[0, 2\]"),
                                          ([(0, 3)], r"edges value 3 is outside \[0, 2\]")])
def test_graph_from_edges_rejects_non_vertices(edges, match):
    with pytest.raises(ValueError, match=match):
        graph_from_edges(3, edges)


class TestObjectives:
    def test_gm_identity_zero(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert gm_objective(g, g, identity_permutation(5)) == 0

    def test_gm_hand_case(self):
        # pairs {1,2} and {0,2} disagree, each contributes 2
        assert gm_objective(PATH3, CHERRY3, identity_permutation(3)) == 4

    def test_gm_swap_aligns(self):
        assert gm_objective(PATH3, CHERRY3, transposition(3, 0, 1)) == 0

    def test_gm_invariant_under_simultaneous_relabel(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_graph(8, 0.4, rng)
            b = random_graph(8, 0.4, rng)
            sigma = rng.permutation(8)
            base = gm_objective(a, b, identity_permutation(8))
            assert gm_objective(apply_permutation(a, sigma),
                                apply_permutation(b, sigma),
                                identity_permutation(8)) == base

    def test_trace_self_counts_ordered_pairs(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert trace_objective(g, g, identity_permutation(4)) == 6

    def test_trace_empty(self):
        assert trace_objective(empty_graph(5), complete_graph(5), identity_permutation(5)) == 0

    def test_frobenius_trace_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = random_graph(6, 0.5, rng)
            b = random_graph(6, 0.5, rng)
            phi = rng.permutation(6)
            lhs = gm_objective(a, b, phi)
            rhs = int(a.sum()) + int(b.sum()) - 2 * trace_objective(a, b, phi)
            assert lhs == rhs

    def test_edge_disagreements(self):
        assert edge_disagreements(PATH3, PATH3) == 0
        assert edge_disagreements(complete_graph(3), empty_graph(3)) == 3
        assert edge_disagreements(PATH3, CHERRY3) == 2

    def test_disagreements_equal_half_objective(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_graph(10, 0.3, rng)
            b = random_graph(10, 0.3, rng)
            assert edge_disagreements(a, b) * 2 == gm_objective(a, b, identity_permutation(10))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, bool, np.float64])
    def test_counts_equal_the_int64_formulas(self, dtype):
        # the oracle widens both graphs to int64 and sums the full products
        rng = np.random.default_rng(8)
        for n in (0, 1, 2, 7, 30):
            for p, q in ((0.0, 1.0), (0.4, 0.6), (1.0, 1.0)):
                a = random_graph(n, p, rng).astype(dtype)
                b = random_graph(n, q, rng).astype(dtype)
                phi = rng.permutation(n)
                bp = apply_permutation(b, phi).astype(np.int64)
                got = trace_objective(a, b, phi)
                assert type(got) is int and got == int((a.astype(np.int64) * bp).sum())
                got = edge_disagreements(a, b)
                want = int(np.abs(a.astype(np.int64) - b.astype(np.int64)).sum()) // 2
                assert type(got) is int and got == want

    def test_disagreements_of_integer_matrices_equal_the_int64_formula(self):
        rng = np.random.default_rng(9)
        for x, y in ((rng.integers(-3, 4, (9, 9)), rng.integers(-3, 4, (9, 9))),
                     (rng.integers(0, 256, (9, 9), dtype=np.uint8),
                      rng.integers(0, 256, (9, 9), dtype=np.uint8))):
            want = int(np.abs(x.astype(np.int64) - y.astype(np.int64)).sum()) // 2
            assert edge_disagreements(x, y) == want

    def test_counts_hold_at_most_one_int64_graph(self):
        """trace_objective holds no n x n int64 array (the relabelled int8 b
        and its gathers take 2 n^2 bytes), edge_disagreements one."""
        n = 500
        rng = np.random.default_rng(10)
        a, b = random_graph(n, 0.3, rng), random_graph(n, 0.3, rng)
        _, peak = traced_peak(trace_objective, a, b, rng.permutation(n))
        assert peak < 4 * n * n
        _, peak = traced_peak(edge_disagreements, a, b)
        assert peak < 1.5 * 8 * n * n


class TestSampleEdgeCorrelation:
    def test_self_is_one(self):
        assert sample_edge_correlation(PATH3, PATH3) == pytest.approx(1.0)

    def test_complement_is_minus_one(self):
        comp = (complete_graph(3) - PATH3).astype(np.int8)
        assert sample_edge_correlation(PATH3, comp) == pytest.approx(-1.0)

    def test_hand_case(self):
        # vectors (1,0,0) and (1,0,1): 3-term Pearson gives 0.5
        a = graph_from_edges(3, [(0, 1)])
        b = graph_from_edges(3, [(0, 1), (1, 2)])
        assert sample_edge_correlation(a, b) == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_two_vertices(self, n):
        with pytest.raises(ValueError, match="n >= 2"):
            sample_edge_correlation(empty_graph(n), empty_graph(n))

    def test_zero_variance_convention(self):
        assert sample_edge_correlation(empty_graph(4), PATH3.copy() if False else graph_from_edges(4, [(0, 1)])) == 0.0
        assert sample_edge_correlation(complete_graph(4), graph_from_edges(4, [(0, 1)])) == 0.0


class TestTranspositionDelta:
    def test_self_pair_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_graph(8, 0.5, rng)
            i, j = (int(v) for v in rng.choice(8, size=2, replace=False))
            d = transposition_delta(a, a, i, j)
            ks = [k for k in range(8) if k not in (i, j)]
            expected = 4 * sum((int(a[i, k]) - int(a[j, k])) ** 2 for k in ks)
            assert d == expected >= 0

    def test_star_automorphism(self):
        star = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert transposition_delta(star, star, 1, 2) == 0

    def test_equals_direct_objective_difference(self):
        rng = np.random.default_rng(9)
        ident = identity_permutation(8)
        for _ in range(200):
            a = random_graph(8, 0.4, rng)
            b = random_graph(8, 0.4, rng)
            i, j = rng.choice(8, size=2, replace=False)
            tau = transposition(8, int(i), int(j))
            direct = gm_objective(a, b, tau) - gm_objective(a, b, ident)
            assert transposition_delta(a, b, int(i), int(j)) == direct

    def test_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            transposition_delta(PATH3, PATH3, 1, 1)

    @pytest.mark.parametrize("i, j, match", [
        (0, 5, r"^i and j value 5 is outside \[0, 2\]$"),
        (-1, 2, r"^i and j value -1 is outside \[0, 2\]$"),
        (0, 1.0, r"^i and j must be a sequence of integer vertex ids, without bools$"),
    ], ids=["outside", "negative", "float"])
    def test_rejects_non_vertices(self, i, j, match):
        # unchecked, -1 would index from the end and swap vertex 2
        with pytest.raises(ValueError, match=match):
            transposition(3, i, j)
        with pytest.raises(ValueError, match=match):
            transposition_delta(PATH3, PATH3, i, j)


def _fixed_error_oracle(x, y, phi):
    """Exhaustive pair scan straight from the definitions."""
    px = apply_permutation(x, phi)
    py = apply_permutation(y, phi)
    n = x.shape[0]
    fa = fo = 0
    for u in range(n):
        for v in range(u + 1, n):
            if not x[u, v] and px[u, v] and not py[u, v]:
                fa += 1
            if x[u, v] and not px[u, v] and py[u, v]:
                fo += 1
    return fa, fo


class TestFixedErrorCounts:
    def test_identity_gives_zero(self):
        rng = np.random.default_rng(10)
        x = random_graph(6, 0.5, rng)
        y = random_graph(6, 0.5, rng)
        assert fixed_error_counts(x, y, identity_permutation(6)) == (0, 0)

    def test_empty_x_gives_no_fixed_occlusions(self):
        rng = np.random.default_rng(11)
        y = random_graph(5, 0.6, rng)
        phi = rng.permutation(5)
        fa, fo = fixed_error_counts(empty_graph(5), y, phi)
        assert fa == 0 and fo == 0

    def test_small_case_against_oracle(self):
        rng = np.random.default_rng(12)
        phi = transposition(4, 0, 1)
        for _ in range(30):
            x = random_graph(4, 0.5, rng)
            y = random_graph(4, 0.5, rng)
            assert fixed_error_counts(x, y, phi) == _fixed_error_oracle(x, y, phi)

    def test_random_permutations_against_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            x = random_graph(6, 0.45, rng)
            y = random_graph(6, 0.45, rng)
            phi = rng.permutation(6)
            assert fixed_error_counts(x, y, phi) == _fixed_error_oracle(x, y, phi)


class TestInvariantStatistics:
    def test_complete_graph(self):
        k4 = complete_graph(4)
        assert max_degree(k4) == 3
        assert triangle_count(k4) == 4
        assert spectral_norm(k4) == pytest.approx(3.0, abs=1e-9)

    def test_single_edge(self):
        g = graph_from_edges(2, [(0, 1)])
        assert max_degree(g) == 1
        assert triangle_count(g) == 0
        assert spectral_norm(g) == pytest.approx(1.0, abs=1e-12)

    def test_triangles_match_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            g = random_graph(10, 0.4, rng)
            brute = sum(
                1
                for i, j, k in itertools.combinations(range(10), 3)
                if g[i, j] and g[j, k] and g[i, k]
            )
            assert triangle_count(g) == brute

    def test_triangle_count_integer_up_to_n12(self):
        rng = np.random.default_rng(15)
        g = random_graph(12, 0.5, rng)
        assert isinstance(triangle_count(g), int)

    @pytest.mark.parametrize("g", [empty_graph(0), empty_graph(1), complete_graph(2),
                                   complete_graph(3), PATH3, complete_graph(200)]
                             + [random_graph(n, 0.5, np.random.default_rng(n))
                                for n in (4, 9, 30, 61)])
    def test_triangle_count_oracles(self, g):
        a = g.astype(np.int64)
        expected = int(np.trace(a @ a @ a)) // 6
        assert triangle_count(g) == expected
        assert sum(nx.triangles(nx.from_numpy_array(g)).values()) // 3 == expected


class TestBlockPartition:
    def test_contiguous_default(self):
        part = BlockPartition((2, 3))
        assert part.n == 5
        assert part.membership.tolist() == [0, 0, 1, 1, 1]
        assert part.block_vertices(1).tolist() == [2, 3, 4]

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            BlockPartition((0, 3))

    def test_size_past_int64_rejected(self):
        with pytest.raises(ValueError, match="block size value 10+ is outside"):
            BlockPartition((10 ** 30,))

    @pytest.mark.parametrize("sizes", [(2.5, 3), (3, True), (np.float64(2.0),)])
    def test_non_integer_sizes(self, sizes):
        with pytest.raises(ValueError, match="block size must be an integer"):
            BlockPartition(sizes)


class TestValidation:
    def test_as_adjacency_rejects_asymmetric(self):
        m = np.zeros((3, 3), dtype=int)
        m[0, 1] = 1
        with pytest.raises(ValueError):
            as_adjacency(m)

    @pytest.mark.parametrize("off", [False, True, 0.0, 1.0, np.nan, 2, -1, 0.5, 1 + 0j,
                                     1 + 1j, np.inf, "1"])
    def test_as_adjacency_entry_check(self, off):
        # accepts exactly the real entries np.isin(m, (0, 1)) accepts
        m = np.array([[0, off], [off, 0]], dtype=np.asarray(off).dtype)
        if np.isin(m, (0, 1)).all() and not np.iscomplexobj(m):
            assert np.array_equal(as_adjacency(m), (m == 1).astype(np.int8))
        else:
            with pytest.raises(ValueError, match="0 or 1"):
                as_adjacency(m)

    def test_upper_triangle_row_major(self):
        rng = np.random.default_rng(20)
        for n in (0, 1, 2, 5, 5, 13):  # the second 5 reads the cached mask
            g = rng.random((n, n))
            assert np.array_equal(upper_triangle(g), g[np.triu_indices(n, k=1)])
        g = np.arange(25).reshape(5, 5)
        upper_triangle(g)[:] = 0  # writes to a copy, not to g or the cached mask
        assert np.array_equal(upper_triangle(g), [1, 2, 3, 4, 7, 8, 9, 13, 14, 19])

    @pytest.mark.parametrize("n, match", [(2.5, "^n must be an integer, got 2.5$"),
                                          (True, "^n must be an integer, got True$"),
                                          (-1, r"^n value -1 is outside \[0, inf\)$")],
                             ids=["float", "bool", "negative"])
    def test_vertex_count_rejected(self, n, match):
        # unchecked, n = 2.5 gave a permutation of 3 vertices
        for make in (empty_graph, identity_permutation, lambda n: transposition(n, 0, 1)):
            with pytest.raises(ValueError, match=match):
                make(n)

    def test_as_adjacency_empty(self):
        assert as_adjacency(np.zeros((0, 0))).shape == (0, 0)

    def test_as_adjacency_rejects_loops(self):
        m = np.eye(3, dtype=int)
        with pytest.raises(ValueError):
            as_adjacency(m)


class TestFileFormats:
    def test_edgelist_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        g = random_graph(9, 0.4, rng)
        path = tmp_path / "g.edg"
        write_edgelist(path, g)
        assert np.array_equal(read_edgelist(path), g)
        header = path.read_text().splitlines()[0]
        assert header == "# n=9"

    def test_edgelist_infers_n_without_header(self, tmp_path):
        path = tmp_path / "g.edg"
        path.write_text("0 1\n2 3\n")
        g = read_edgelist(path)
        assert g.shape == (4, 4)
        assert g[2, 3] == 1

    def test_edgelist_rejects_self_loop(self, tmp_path):
        path = tmp_path / "bad.edg"
        path.write_text("# n=3\n1 1\n")
        with pytest.raises(ValueError) as exc:
            read_edgelist(path)
        assert str(exc.value) == f"{path}:2: self-loop 1"

    def test_edgelist_rejects_duplicates(self, tmp_path):
        path = tmp_path / "bad.edg"
        path.write_text("# n=3\n0 1\n\n# c\n1 0\n")
        with pytest.raises(ValueError) as exc:
            read_edgelist(path)
        assert str(exc.value) == f"{path}:5: duplicate edge (1, 0)"

    @pytest.mark.parametrize("body, line, edge", [("# n=3\n0 1\n2 3\n", 3, "(2, 3) with n=3"),
                                                  ("0 1\n-1 2\n", 2, "(-1, 2) with n=3")])
    def test_edgelist_rejects_vertex_out_of_range(self, tmp_path, body, line, edge):
        path = tmp_path / "bad.edg"
        path.write_text(body)
        with pytest.raises(ValueError) as exc:
            read_edgelist(path)
        assert str(exc.value) == f"{path}:{line}: vertex out of range {edge}"

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "lab.txt"
        write_labels(path, [0, 1, 1, 2])
        assert read_labels(path).tolist() == [0, 1, 1, 2]

    def test_writers_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        for write, value, text in ((write_edgelist, PATH3, "# n=3\n0 1\n1 2\n"),
                                   (write_edgelist, empty_graph(2), "# n=2\n"),
                                   (write_labels, [3, 1], "3\n1\n"),
                                   (write_permutation, np.array([1, 0]), "1\n0\n")):
            write(path, value)
            assert path.read_bytes() == text.encode()


# reader -> (lines of a well-formed file, shape of an empty file)
READERS = {
    "edgelist": (read_edgelist, ["0 1", "1 2"], (0, 0)),
    "labels": (read_labels, ["3", "1"], (0,)),
    "permutation": (read_permutation, ["1", "0"], (0,)),
    "seeds": (read_seeds, ["0 1", "2 2"], (0, 2)),
}


@pytest.mark.parametrize("kind", sorted(READERS))
class TestIntegerLineFiles:
    """The one format of the four file kinds: lines of integers, with
    blank and '#' lines skipped, and each bad line named by path:line."""

    def test_skips_comment_and_blank_lines(self, tmp_path, kind):
        read, lines, _ = READERS[kind]
        plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
        plain.write_text("".join(f"{line}\n" for line in lines))
        commented.write_text("# head\n\n" + "\n   \n  # c\n".join(lines) + "\n\n")
        assert np.array_equal(read(commented), read(plain))

    @pytest.mark.parametrize("body", ["", "\n \n", "# c\n"])
    def test_empty_file(self, tmp_path, kind, body):
        read, _, shape = READERS[kind]
        path = tmp_path / "empty.txt"
        path.write_text(body)
        assert read(path).shape == shape

    @pytest.mark.parametrize("bad", ["1.5", "0 1 2", "0 # x", "x", "99999999999999999999",
                                     "# n=abc", "# n=-3"])
    def test_malformed_line_named(self, tmp_path, kind, bad):
        read, lines, _ = READERS[kind]
        path = tmp_path / "bad.txt"
        path.write_text(f"{lines[0]}\n# c\n\n{bad}\n{lines[1]}\n")
        with pytest.raises(ValueError) as exc:
            read(path)
        assert str(exc.value).startswith(f"{path}:4: expected ")
