"""Oracle checks: matrix assembly and the LAPACK eigensolver, plus the
brute-force path references the betweenness tests compare against."""

import math
import random
import tracemalloc

import numpy as np
import pytest

import reference
from coronagraphs.graph import (
    Graph,
    complete_graph,
    corona_product,
    cycle_graph,
    path_graph,
    star_graph,
)
from coronagraphs.oracle import (
    DEFAULT_ORACLE_CAP,
    build_matrix,
    compare_spectra,
    sym_eigensystem,
    sym_eigenvalues,
)
from coronagraphs.spectral import make_spectrum


def k3_level1() -> Graph:
    return corona_product(complete_graph(3), complete_graph(3))


class TestBuildMatrix:
    def test_row_sums(self):
        g = k3_level1()
        deg = g.degrees.astype(float)
        assert np.allclose(build_matrix(g, "adjacency").sum(axis=1), deg)
        assert np.allclose(build_matrix(g, "laplacian").sum(axis=1), 0.0)
        assert np.allclose(build_matrix(g, "signless").sum(axis=1), 2 * deg)

    @pytest.mark.parametrize("g", [k3_level1(), star_graph(5), path_graph(4),
                                   cycle_graph(7)])
    def test_laplacian_and_signless_are_d_minus_and_plus_a(self, g):
        n = g.node_count
        a = np.zeros((n, n))
        for u in range(n):
            for v in g.neighbors(u):
                a[u, v] = 1.0
        d = np.diag(a.sum(axis=1))
        # the same float64 bits, signs of zero included
        for kind, want in (("adjacency", a), ("laplacian", d - a), ("signless", d + a)):
            assert build_matrix(g, kind).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["adjacency", "laplacian", "signless"])
    def test_one_matrix_in_memory(self, kind):
        g = cycle_graph(600)
        tracemalloc.start()
        try:
            mat = build_matrix(g, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * mat.nbytes

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_matrix(complete_graph(3), "normalized")

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_matrix(path_graph(DEFAULT_ORACLE_CAP + 1), "adjacency")

    def test_block_pattern(self):
        # corona block structure: seed block top-left, copy blocks on the
        # diagonal, host-to-copy joins, zero elsewhere
        a = build_matrix(k3_level1(), "adjacency")
        k3 = build_matrix(complete_graph(3), "adjacency")
        assert np.array_equal(a[:3, :3], k3)
        for i in range(3):
            blk = slice(3 + 3 * i, 6 + 3 * i)
            assert np.array_equal(a[blk, blk], k3)
            assert np.all(a[i, blk] == 1)
        assert np.all(a[3:6, 6:12] == 0)


class TestJacobi:
    def test_known_spectra(self):
        assert np.allclose(sym_eigenvalues(build_matrix(complete_graph(3), "adjacency")),
                           [-1.0, -1.0, 2.0], atol=1e-12)
        assert np.allclose(sym_eigenvalues(build_matrix(path_graph(3), "adjacency")),
                           [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)

    def test_trace_identity(self):
        g = k3_level1()
        vals = sym_eigenvalues(build_matrix(g, "laplacian"))
        assert abs(vals.sum() - 42.0) <= 1e-9 * 42.0

    def test_eigensystem_residuals(self):
        a = build_matrix(k3_level1(), "adjacency")
        vals, vecs = sym_eigensystem(a)
        res = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
        assert res.max() < 1e-10
        # orthonormal basis
        assert np.allclose(vecs.T @ vecs, np.eye(len(a)), atol=1e-10)

    def test_relabel_invariance(self):
        rng = random.Random(7)
        base = corona_product(path_graph(3), cycle_graph(3))
        perm = list(range(base.node_count))
        rng.shuffle(perm)
        relabeled = Graph.from_edges(
            base.node_count,
            [(perm[u], perm[v]) for u, v in reference.edge_array(base)])
        v1 = sym_eigenvalues(build_matrix(base, "adjacency"))
        v2 = sym_eigenvalues(build_matrix(relabeled, "adjacency"))
        assert np.max(np.abs(v1 - v2)) < 1e-9

    def test_bipartite_laplacian_equals_signless(self):
        for g in (star_graph(5), path_graph(4), cycle_graph(6)):
            lap = sym_eigenvalues(build_matrix(g, "laplacian"))
            sig = sym_eigenvalues(build_matrix(g, "signless"))
            assert np.max(np.abs(lap - sig)) < 1e-10

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError):
            sym_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            sym_eigenvalues(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="square"):
            sym_eigensystem(np.zeros(3))

    def test_trivial_sizes(self):
        assert sym_eigenvalues(np.array([[5.0]])) == np.array([5.0])
        assert len(sym_eigenvalues(np.zeros((0, 0)))) == 0


class TestCompareSpectra:
    def test_identical(self):
        s = make_spectrum("adjacency", [(-1.0, 2), (2.0, 1)], level=0)
        rep = compare_spectra(s, np.array([-1.0, -1.0, 2.0]), tol=1e-8)
        assert rep.passed and rep.max_abs_delta == 0.0

    def test_perturbed_counts_multiplicity(self):
        s = make_spectrum("adjacency", [(-1.0, 2), (2.0, 1)], level=0)
        rep = compare_spectra(s, np.array([-0.9, -0.9, 2.0]), tol=1e-8)
        assert not rep.passed
        assert rep.count_mismatched == 2
        assert abs(rep.max_abs_delta - 0.1) < 1e-12

    def test_total_mismatch_is_hard_error(self):
        s = make_spectrum("adjacency", [(-1.0, 2), (2.0, 1)], level=0)
        with pytest.raises(ValueError, match="multiplicity total"):
            compare_spectra(s, np.array([-1.0, 2.0]), tol=1e-8)


class TestBruteForce:
    def test_p3_center(self):
        b = reference.brute_betweenness(path_graph(3))
        assert np.allclose(b, [0.0, 1.0, 0.0])

    def test_matches_accumulation_on_k3_level1(self):
        from coronagraphs.structural import betweenness_exact
        g = k3_level1()
        assert np.max(np.abs(reference.brute_betweenness(g) - betweenness_exact(g))) < 1e-9

    def test_matches_on_random_graphs(self):
        from conftest import random_connected_graph
        from coronagraphs.structural import betweenness_exact
        rng = random.Random(99)
        for _ in range(8):
            g = random_connected_graph(rng.randrange(4, 24), rng)
            assert np.max(np.abs(reference.brute_betweenness(g) - betweenness_exact(g))) < 1e-9

    def test_matches_at_oracle_scale(self):
        from conftest import random_connected_graph
        from coronagraphs.structural import betweenness_exact
        g = random_connected_graph(120, random.Random(17))
        assert np.max(np.abs(reference.brute_betweenness(g) - betweenness_exact(g))) < 1e-9

    def test_diameter(self):
        from coronagraphs.graph import CoronaPlan, SeedDescriptor, corona_iterate
        g2 = corona_iterate(CoronaPlan(seed=SeedDescriptor.from_spec("complete:3"), m=2))
        assert reference.diameter_measured(g2) == 5
        assert reference.diameter_bit_parallel(g2) == 5

    def test_caps(self):
        big = path_graph(40)
        with pytest.raises(ValueError, match="cap"):
            reference.brute_betweenness(big, cap=10)

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            reference.brute_betweenness(g)
