"""The batched diameter and the block-cut betweenness against the per-source
kernels, and betweenness bit for bit against the Fraction brute force."""

import hashlib
import random
import time

import numpy as np
import pytest

from coronagraphs.graph import (
    CoronaPlan,
    Graph,
    SeedDescriptor,
    complete_graph,
    corona_iterate,
    expand_frontier,
    path_graph,
    star_graph,
)
from coronagraphs.structural import (
    DisconnectedGraphError,
    betweenness_exact,
    diameter_measured,
)

import reference
from conftest import random_connected_graph

BUILTIN_SEEDS = ["complete:1", "complete:2", "complete:3", "complete:4",
                 "path:2", "path:3", "path:4", "cycle:3", "cycle:4", "star:4"]

# the smallest blocks, and around the 64-source diameter chunk
NODE_COUNTS = [1, 2, 3, 4, 5, 63, 64, 65, 127, 128, 129]


def assert_kernels_agree(g: Graph) -> None:
    assert diameter_measured(g) == reference.diameter_measured(g)
    ref = reference.betweenness_exact(g)
    got = betweenness_exact(g)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    # with unique shortest paths, the integer path count is exact
    try:
        counts = reference.betweenness_clique_pathcount(g)
    except reference.NonUniqueShortestPathError:
        return
    assert np.array_equal(counts.astype(np.float64), got)


def level(spec: str, m: int) -> Graph:
    return corona_iterate(CoronaPlan(seed=SeedDescriptor.from_spec(spec), m=m))


def assert_bit_equal_to_brute_force(g: Graph) -> None:
    got, want = betweenness_exact(g), reference.brute_betweenness(g)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def with_bridges_and_pendant_trees(rng: random.Random) -> Graph:
    """Random 2- to 8-node cores chained by bridges, with pendant trees."""
    edges, n = [], 0
    for _ in range(rng.randrange(2, 5)):
        core = random_connected_graph(rng.randrange(2, 9), rng)
        if n:
            edges.append((rng.randrange(n), n + rng.randrange(core.node_count)))
        edges += [(u + n, v + n) for u, v in reference.edge_array(core).tolist()]
        n += core.node_count
    for _ in range(rng.randrange(3, 12)):
        edges.append((rng.randrange(n), n))
        n += 1
    return Graph.from_edges(n, edges)


def split_off_pair(n: int, first: int, rng: random.Random) -> Graph:
    """n nodes: the edge (first, first+1) apart from a connected rest."""
    rest = [v for v in range(n) if v not in (first, first + 1)]
    edges = [(first, first + 1)]
    for i in range(1, len(rest)):
        edges.append((rest[rng.randrange(i)], rest[i]))
    return Graph.from_edges(n, edges)


def with_isolated(n: int, node: int, rng: random.Random) -> Graph:
    """n nodes: ``node`` alone, a random spanning tree on the rest."""
    rest = [v for v in range(n) if v != node]
    return Graph.from_edges(n, [(rest[rng.randrange(i)], rest[i])
                                for i in range(1, len(rest))])


class TestExpandFrontier:
    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        graphs = [level("complete:3", 3), level("path:3", 2),
                  Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3)])]
        for g in graphs:
            n = g.node_count
            # [n - 1] is the isolated node 4 of the last graph: no rows at all
            frontiers = [np.arange(n), np.array([n - 1]), np.empty(0, dtype=np.int64),
                         np.sort(rng.choice(n, n // 2, replace=False)),
                         rng.integers(0, n, 2 * n)]
            for frontier in frontiers:
                got = expand_frontier(g, frontier)
                want = reference.expand_frontier(g, frontier)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype
                    assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", BUILTIN_SEEDS)
@pytest.mark.parametrize("m", range(4))
def test_builtin_seeds(spec, m):
    assert_kernels_agree(level(spec, m))


@pytest.mark.parametrize("n", NODE_COUNTS)
def test_node_counts_around_batch_and_chunk_sizes(n):
    assert_kernels_agree(random_connected_graph(n, random.Random(n)))


@pytest.mark.parametrize("n", [3, 63, 64, 65])
def test_paths_one_level_per_node(n):
    assert_kernels_agree(path_graph(n))


@pytest.mark.parametrize("ends", [(0, 64), (63, 127), (64, 129)])
def test_only_diameter_endpoints_at_chunk_edges(ends):
    # a path over 130 nodes whose two ends, the only nodes of eccentricity
    # 129, sit at the first or last source of a 64-source chunk
    a, b = ends
    order = [a] + [v for v in range(130) if v not in ends] + [b]
    g = Graph.from_edges(130, list(zip(order, order[1:])))
    assert diameter_measured(g) == 129


def test_k1_k2_and_empty():
    assert diameter_measured(complete_graph(1)) == 0
    assert diameter_measured(complete_graph(2)) == 1
    assert np.array_equal(betweenness_exact(complete_graph(2)), [0.0, 0.0])
    empty = Graph.from_edges(0, [])
    assert diameter_measured(empty) == 0
    assert len(betweenness_exact(empty)) == 0
    for g in (complete_graph(1), complete_graph(2), empty):
        assert_kernels_agree(g)


# 150 nodes: three diameter chunks (0-63, 64-127, 128-149); 0, 70 and 148
# sit in the first, a middle and the last, and the DFS from node 0 reaches
# one side only
@pytest.mark.parametrize("first", [0, 70, 148])
def test_disconnected_in_first_middle_last_batch(first):
    g = split_off_pair(150, first, random.Random(first))
    assert g.degrees.all()
    with pytest.raises(DisconnectedGraphError):
        reference.diameter_measured(g)
    with pytest.raises(DisconnectedGraphError):
        diameter_measured(g)
    with pytest.raises(DisconnectedGraphError):
        betweenness_exact(g)


@pytest.mark.parametrize("node", [0, 70, 149])
def test_isolated_node(node):
    g = with_isolated(150, node, random.Random(node))
    with pytest.raises(DisconnectedGraphError):
        diameter_measured(g)
    with pytest.raises(DisconnectedGraphError):
        betweenness_exact(g)


class TestExactBetweenness:
    @pytest.mark.parametrize("spec", BUILTIN_SEEDS)
    @pytest.mark.parametrize("m", range(3))
    def test_builtin_seeds_bit_equal_to_brute_force(self, spec, m):
        # at most 100 nodes, under the brute force's 500-node cap
        assert_bit_equal_to_brute_force(level(spec, m))

    @pytest.mark.parametrize("n", [3, 8, 17, 30, 45, 60])
    def test_random_graphs_bit_equal_to_brute_force(self, n):
        assert_bit_equal_to_brute_force(random_connected_graph(n, random.Random(100 + n)))

    @pytest.mark.parametrize("seed", range(6))
    def test_bridges_and_pendant_trees(self, seed):
        g = with_bridges_and_pendant_trees(random.Random(seed))
        assert_bit_equal_to_brute_force(g)
        assert_kernels_agree(g)

    # sha256 of the float64 bytes, pinned from the block-cut pass that also
    # flagged tied shortest paths; a 20x20 grid ties nearly every pair
    @pytest.mark.parametrize("graph,digest", [
        (lambda: random_connected_graph(1500, random.Random(1500)),
         "d7b50a0030c3ea88fdfa3e7d21679f34a41996a499c872ffeb21b872c1bf9c5f"),
        (lambda: Graph.from_edges(400, [(v, v + 1) for v in range(400) if v % 20 < 19]
                                  + [(v, v + 20) for v in range(380)]),
         "e8d875dd76d4440008bbdb6a7abf05e3442e4c7143c0ad4eff4de2cce331cc4f"),
    ], ids=["random", "grid"])
    def test_pinned_bits(self, graph, digest):
        b = betweenness_exact(graph())
        assert hashlib.sha256(b.tobytes()).hexdigest() == digest

    def test_exact_ties_stay_equal(self):
        # cycle:4 ties shortest paths, yet its level 3 has 4 exact values
        b = betweenness_exact(level("cycle:4", 3))
        assert len(np.unique(b)) == 4
        assert np.all(b[:4] == b[0]) and np.all(b[100:] == 1 / 3)


def test_long_path_needs_no_recursion():
    n = 20_000
    g = path_graph(n)
    start = time.perf_counter()
    b = betweenness_exact(g)
    elapsed = time.perf_counter() - start
    i = np.arange(n)
    assert np.array_equal(b, (i * (n - 1 - i)).astype(np.float64))
    assert elapsed < 1.0


def barbell() -> Graph:
    """Two K5 joined through the 3-node path 5-6-7."""
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    return Graph.from_edges(13, k5 + [(u + 8, v + 8) for u, v in k5]
                            + [(4, 5), (5, 6), (6, 7), (7, 8)])


# K1, K2 and the empty graph are in test_k1_k2_and_empty
@pytest.mark.parametrize("g", [barbell(), star_graph(6)], ids=["barbell", "star"])
def test_block_edge_cases(g):
    assert np.array_equal(betweenness_exact(g), reference.betweenness_exact(g))
    assert_kernels_agree(g)
