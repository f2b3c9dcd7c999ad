"""Measured vs closed-form structural quantities."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import random_connected_graph
from coronagraphs import structural
from coronagraphs.distributions import cumulative_series, fit_exponential
from coronagraphs.graph import (
    CoronaPlan,
    Graph,
    SeedDescriptor,
    complete_graph,
    corona_iterate,
    corona_product,
    path_graph,
    star_graph,
)
from coronagraphs.structural import (
    DisconnectedGraphError,
    average_degree,
    average_degree_limit,
    betweenness_exact,
    betweenness_series,
    degree_histogram,
    density,
    diameter_formula,
    diameter_measured,
    largest_block,
)

SEED_SPECS = ["complete:3", "path:3", "cycle:4", "star:4", "complete:5"]


def cumulative_formula_k3(k: int) -> float:
    """The paper's cumulative degree law (n+1)**((r+1-k)/n) for complete:3."""
    return 4.0 ** ((3 - k) / 3)


def level(spec: str, m: int) -> Graph:
    return corona_iterate(CoronaPlan(seed=SeedDescriptor.from_spec(spec), m=m))


class TestDegreeHistogram:
    def test_k3_level1(self):
        h = degree_histogram(level("complete:3", 1))
        assert h.points == [(3.0, 9 / 12), (5.0, 3 / 12)]
        assert h.population == 12

    def test_regular_graph(self):
        h = degree_histogram(complete_graph(3))
        assert h.points == [(2.0, 1.0)]

    def test_p3_level1(self):
        # direct enumeration of the 12-node graph: six nodes of degree 2,
        # three of degree 3, two of degree 4, one of degree 5
        h = degree_histogram(level("path:3", 1))
        assert h.counts.tolist() == [6, 3, 2, 1]
        assert h.values.tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_degree_sum_is_twice_edges(self):
        for spec in SEED_SPECS:
            g = level(spec, 2)
            h = degree_histogram(g)
            assert sum(v * c for v, c in zip(h.values, h.counts)) == 2 * g.edge_count


class TestDegreeFormula:
    @pytest.mark.parametrize("spec", SEED_SPECS)
    @pytest.mark.parametrize("m", range(4))
    def test_matches_measured_exactly(self, spec, m):
        seed = SeedDescriptor.from_spec(spec).graph
        predicted = reference.degree_distribution_formula(seed, m)
        measured = degree_histogram(level(spec, m))
        assert np.array_equal(predicted.values, measured.values)
        assert np.array_equal(predicted.counts, measured.counts)

    def test_m0_is_seed_histogram(self):
        seed = star_graph(4)
        f = reference.degree_distribution_formula(seed, 0)
        assert f.points == degree_histogram(seed).points

    def test_population(self):
        f = reference.degree_distribution_formula(complete_graph(3), 5)
        assert f.population == 3 * 4 ** 5


class TestCumulativeDegreeFormula:
    def test_minimum_degree(self):
        assert cumulative_formula_k3(3) == 1.0

    def test_frozen_lattice_values(self):
        assert cumulative_formula_k3(6) == 0.25
        assert cumulative_formula_k3(9) == 0.0625

    @pytest.mark.parametrize("m", [2, 3])
    def test_exact_on_lattice(self, m):
        g = level("complete:3", m)
        cum = cumulative_series(degree_histogram(g))
        table = dict(zip(cum.values, cum.probabilities))
        for j in range(m):
            k = 3 + 3 * j
            assert abs(table[float(k)]
                       - cumulative_formula_k3(k)) <= 1e-12

    def test_off_lattice_point_deviates(self):
        # the originals (degree r+mn) sit off the lattice; the formula is
        # documented as approximate there, not asserted equal
        m = 3
        g = level("complete:3", m)
        cum = cumulative_series(degree_histogram(g))
        measured = dict(zip(cum.values, cum.probabilities))[float(2 + 3 * m)]
        predicted = cumulative_formula_k3(2 + 3 * m)
        assert predicted != pytest.approx(measured, abs=1e-12)


class TestAverageDegreeAndDensity:
    def test_limit_for_clique_seed(self):
        for n in (3, 4, 5):
            e = n * (n - 1) // 2
            assert average_degree_limit(n, e) == pytest.approx(n + 1)

    def test_limit_for_tree_seed(self):
        for n in (2, 3, 7):
            assert average_degree_limit(n, n - 1) == pytest.approx(2 * (2 - 1 / n))

    def test_measured_k3_level1(self):
        assert average_degree(level("complete:3", 1)) == pytest.approx(3.5)

    def test_gap_to_limit(self):
        for m in range(1, 5):
            g = level("complete:3", m)
            gap = average_degree_limit(3, 3) - average_degree(g)
            assert gap == pytest.approx(2 / 4 ** m, rel=1e-12)

    def test_density_values(self):
        assert density(complete_graph(3)) == 1.0
        assert density(level("complete:3", 1)) == pytest.approx(21 / 66)
        assert density(level("complete:3", 4)) < 0.02

    def test_density_needs_two_nodes(self):
        with pytest.raises(ValueError):
            density(Graph.from_edges(1, []))


class TestDiameter:
    def test_trivial(self):
        assert diameter_measured(complete_graph(3)) == 1

    def test_frozen_examples(self):
        assert diameter_measured(level("complete:3", 1)) == 3
        assert diameter_measured(level("path:3", 2)) == 6
        assert diameter_measured(level("complete:3", 3)) == 7

    def test_formula(self):
        assert diameter_formula(1, 3) == 7
        assert diameter_formula(2, 0) == 2
        assert diameter_formula(2, 1) == 4
        # K1 grows K2, then paths with pendants: its first step adds 1
        assert [diameter_formula(0, m) for m in range(5)] == [0, 1, 3, 5, 7]

    @pytest.mark.parametrize("spec", SEED_SPECS)
    @pytest.mark.parametrize("m", range(4))
    def test_grows_by_two_per_step(self, spec, m):
        seed = SeedDescriptor.from_spec(spec).graph
        assert diameter_measured(level(spec, m)) == diameter_formula(
            diameter_measured(seed), m)

    @pytest.mark.parametrize("spec", SEED_SPECS + ["complete:1"])
    @pytest.mark.parametrize("m", range(5))
    def test_law_and_whole_graph_diameter(self, spec, m):
        g = level(spec, m)
        d0 = diameter_measured(SeedDescriptor.from_spec(spec).graph)
        want = reference.diameter_bit_parallel(g)
        assert diameter_measured(g) == want == diameter_formula(d0, m)
        if g.node_count <= 1100:   # networkx takes 20 s on complete:5 at m=4
            nx = pytest.importorskip("networkx")
            h = nx.Graph()
            h.add_nodes_from(range(g.node_count))
            h.add_edges_from(reference.edge_array(g).tolist())
            assert nx.diameter(h) == want

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            diameter_measured(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestBetweenness:
    def test_p3(self):
        assert np.allclose(betweenness_exact(path_graph(3)), [0.0, 1.0, 0.0])

    def test_k3_level1_originals_tie_for_max(self):
        b = betweenness_exact(level("complete:3", 1))
        top = b.max()
        assert np.allclose(b[:3], top)
        assert np.all(b[3:] < top)

    def test_degree_one_nodes_are_zero(self):
        # K_1 seed grows pendant chains, the only source of leaves
        g = level("complete:1", 3)
        b = betweenness_exact(g)
        assert np.all(b[g.degrees == 1] == 0.0)

    def test_matches_brute_force(self):
        rng = random.Random(4)
        graphs = [level("complete:3", 2), level("complete:4", 1)]
        graphs += [random_connected_graph(rng.randrange(10, 40), rng)
                   for _ in range(4)]
        for g in graphs:
            assert np.max(np.abs(betweenness_exact(g) - reference.brute_betweenness(g))) < 1e-9

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            betweenness_exact(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestNetworkxCrossCheck:
    @pytest.mark.parametrize("seed", range(10))
    def test_diameter_and_betweenness(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        seed_graph = random_connected_graph(rng.randrange(3, 7), rng)
        graphs = [seed_graph]
        for _ in range(2):
            graphs.append(corona_product(graphs[-1], seed_graph))
        for g in graphs:
            h = nx.Graph()
            h.add_nodes_from(range(g.node_count))
            h.add_edges_from(reference.edge_array(g).tolist())
            assert diameter_measured(g) == nx.diameter(h)
            want = nx.betweenness_centrality(h, normalized=False)
            b = betweenness_exact(g)
            assert np.allclose(b, [want[v] for v in range(g.node_count)],
                               rtol=1e-12, atol=1e-12)


class TestLargestBlock:
    # the betweenness guard's prediction: the seed's largest block, and
    # from m=1 on at least the n+1 nodes of a cone
    @pytest.mark.parametrize("spec", ["complete:1", "complete:2", "complete:3", "path:2",
                                      "path:5", "star:4", "cycle:5", "cycle:12"])
    def test_seed_block_or_cone(self, spec):
        seed = SeedDescriptor.from_spec(spec).graph
        for m in range(4):
            want = largest_block(seed) if m == 0 else max(largest_block(seed),
                                                          seed.node_count + 1)
            assert largest_block(level(spec, m)) == want

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            largest_block(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestNoBlock:
    # the commands return early below 2 nodes; the decomposition and the
    # table must still hold on a graph without blocks
    def test_one_node_has_an_empty_table(self):
        pre, owner, parents, below, hung = structural._decompose(complete_graph(1))
        assert (pre.tolist(), owner.tolist(), hung.tolist()) == ([0], [0], [0])
        assert (parents.tolist(), below.tolist()) == ([], [])
        table = structural._build_block_table(complete_graph(1))
        assert (table.members.tolist(), table.starts.tolist()) == ([], [0])
        assert (table.weights.tolist(), table.parent.tolist(), table.shapes) == \
            ([], [], [])

    def test_edgeless_graph_is_disconnected(self):
        edgeless = Graph.from_edges(3, [])
        assert structural._decompose(edgeless) is None
        assert structural._build_block_table(edgeless) is None


class TestCliquePathCounting:
    # every shortest path is unique on a complete-seed corona, so the
    # per-source integer count, which shares no code with the block-cut
    # pass, is the exact betweenness
    @pytest.mark.parametrize("spec,m", [
        (f"complete:{k}", m) for k in range(1, 5) for m in range(4)
        if k * (k + 1) ** m <= 500])
    def test_equals_accumulation(self, spec, m):
        g = level(spec, m)
        counts = reference.betweenness_clique_pathcount(g)
        assert np.array_equal(counts.astype(np.float64), betweenness_exact(g))

    def test_non_clique_seed_detected(self):
        with pytest.raises(reference.NonUniqueShortestPathError):
            reference.betweenness_clique_pathcount(level("path:3", 1))

    def test_integer_dtype(self):
        counts = reference.betweenness_clique_pathcount(level("complete:3", 1))
        assert counts.dtype == np.int64


class TestBetweennessStepApprox:
    def test_order_of_magnitude_and_monotonicity(self):
        # classes of equal node age are recoverable from the index layout:
        # nodes [N_{a-1}, N_a) were added at step a and have tau = t - a
        t, n = 4, 3
        g = level("complete:3", t)
        b = betweenness_exact(g)
        sizes = [n * (n + 1) ** j for j in range(t + 1)]
        prev = 0.0
        for tau in range(1, t + 1):
            a = t - tau
            lo = sizes[a - 1] if a >= 1 else 0
            hi = sizes[a] if a >= 1 else n
            cls = b[lo:hi] if a >= 1 else b[:n]
            exact = float(cls[0])
            assert np.allclose(cls, exact)
            # scaling estimate for a node tau steps old
            approx = n * (n + 1) ** (t + tau - 1)
            assert 1.0 <= exact / approx <= n + 1
            assert exact > prev
            prev = exact


class TestSeriesHelpers:
    def test_betweenness_series(self):
        s = betweenness_series(np.array([0.0, 1.0, 1.0]))
        assert s.points == [(0.0, 1 / 3), (1.0, 2 / 3)]


@st.composite
def layouts(draw):
    """A connected seed, a random one or a builtin family's, and a level m
    in 0..4 of at most 6,000 nodes."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        g = random_connected_graph(n, random.Random(draw(st.integers(0, 2 ** 16))))
        seed = SeedDescriptor(kind="file", param="-", graph=g, connected=True)
    else:
        family, low = draw(st.sampled_from([("complete", 1), ("path", 1), ("cycle", 3),
                                            ("star", 3)]))
        seed = SeedDescriptor.from_spec(f"{family}:{draw(st.integers(low, 6))}")
    n = seed.graph.node_count
    m = draw(st.integers(0, 4).filter(lambda m: n * (n + 1) ** m <= 6000))
    return CoronaPlan(seed=seed, m=m)


class TestLevelFromTheLayout:
    """A plan measures level m from the seed and the index layout; the same
    level materialized as a CSR, decomposed whole, gives the same numbers."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(layouts())
    def test_plan_measures_equal_the_built_level(self, plan):
        g = corona_iterate(plan)
        assert (plan.node_count, plan.edge_count) == (g.node_count, g.edge_count)
        assert np.array_equal(plan.degrees, g.degrees)
        assert diameter_measured(plan) == diameter_measured(g)
        assert betweenness_exact(plan).tobytes() == betweenness_exact(g).tobytes()

    def test_a_plan_is_its_seed_at_m0(self):
        seed = SeedDescriptor.from_spec("cycle:5")
        plan = CoronaPlan(seed=seed, m=0)
        assert structural._block_table(plan) is structural._block_table(seed.graph)

    def test_a_disconnected_seed_has_no_level_blocks(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        plan = CoronaPlan(seed=SeedDescriptor(kind="file", param="-", graph=g,
                                              connected=False), m=2)
        with pytest.raises(DisconnectedGraphError):
            betweenness_exact(plan)
        assert np.array_equal(plan.degrees, corona_iterate(plan).degrees)
