"""Seed builders, corona product, count formulas, and edge-list IO."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coronagraphs import graph as graph_module
from coronagraphs.graph import (
    CapExceededError,
    CoronaPlan,
    CountOverflowError,
    EdgeListError,
    Graph,
    SeedDescriptor,
    bfs_distances,
    complete_graph,
    connected_component_count,
    corona_iterate,
    corona_product,
    cycle_graph,
    edge_count_formula,
    node_count_formula,
    path_graph,
    read_edge_list,
    star_graph,
    write_edge_list,
)

import reference
from conftest import random_connected_graph

SEED_SPECS = ["complete:3", "path:3", "cycle:4", "star:4", "complete:5"]


def plan_for(spec: str, m: int, node_cap: int = 2_000_000) -> CoronaPlan:
    return CoronaPlan(seed=SeedDescriptor.from_spec(spec), m=m, node_cap=node_cap)


class TestBuilders:
    def test_complete(self):
        g = complete_graph(3)
        assert (g.node_count, g.edge_count) == (3, 3)
        assert complete_graph(1).node_count == 1
        assert complete_graph(2).edge_count == 1

    def test_path(self):
        g = path_graph(3)
        assert (g.node_count, g.edge_count) == (3, 2)

    def test_star(self):
        g = star_graph(4)
        assert (g.node_count, g.edge_count) == (4, 3)
        assert g.degrees[0] == 3
        assert all(g.degrees[i] == 1 for i in range(1, 4))

    def test_cycle(self):
        g = cycle_graph(4)
        assert (g.node_count, g.edge_count) == (4, 4)
        assert np.all(g.degrees == 2)

    @pytest.mark.parametrize("builder,k", [
        (complete_graph, 0), (path_graph, 0), (cycle_graph, 2), (star_graph, 2),
    ])
    def test_out_of_range(self, builder, k):
        with pytest.raises(ValueError):
            builder(k)


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(0, 0)])

    def test_duplicate_rejected(self):
        for edges in ([(0, 1), (1, 0)],
                      [(0, 1), (0, 1)],                   # an exact repeat
                      [(0, 1), (2, 3), (1, 2), (1, 0)]):  # far apart in input order
            with pytest.raises(ValueError, match="duplicate"):
                Graph.from_edges(4, edges)
        # a self-loop is reported ahead of a duplicate
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(4, [(0, 1), (1, 0), (2, 2)])

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 5)])

    def test_symmetry_and_sorted_rows(self):
        g = Graph.from_edges(4, [(2, 0), (3, 1), (0, 1)])
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)
            assert list(g.neighbors(u)) == sorted(g.neighbors(u))

    def test_handshake(self):
        g = star_graph(5)
        assert int(g.degrees.sum()) == 2 * g.edge_count

    def test_immutable(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.targets[0] = 7


class TestCoronaProduct:
    def test_p3_with_itself(self):
        g = corona_product(path_graph(3), path_graph(3))
        assert (g.node_count, g.edge_count) == (12, 17)

    def test_k3_with_itself(self):
        g = corona_product(complete_graph(3), complete_graph(3))
        assert (g.node_count, g.edge_count) == (12, 21)

    def test_single_node_with_k3_is_k4(self):
        g = corona_product(Graph.from_edges(1, []), complete_graph(3))
        assert (g.node_count, g.edge_count) == (4, 6)
        assert np.all(g.degrees == 3)

    def test_index_layout(self):
        # originals keep their indices; copy i is the block 3+3i..3+3i+2 in
        # seed order, joined entirely to node i
        p3 = path_graph(3)
        g = corona_product(p3, p3)
        for u, v in reference.edge_array(p3):
            assert v in g.neighbors(u)
        for i in range(3):
            base = 3 + 3 * i
            assert base + 1 in g.neighbors(base)
            assert base + 2 in g.neighbors(base + 1)
            assert base + 2 not in g.neighbors(base)
            for a in range(3):
                assert base + a in g.neighbors(i)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            corona_product(path_graph(2), Graph.from_edges(0, []))

    def test_random_seeds_keep_invariants(self):
        rng = random.Random(20240811)
        for _ in range(25):
            n = rng.randrange(2, 9)
            g = random_connected_graph(n, rng)
            seed = random_connected_graph(rng.randrange(1, 9), rng)
            prod = corona_product(g, seed)
            # symmetry and simplicity survive round-tripping the edge array
            rebuilt = Graph.from_edges(prod.node_count, reference.edge_array(prod))
            assert rebuilt.edge_count == prod.edge_count
            assert int(prod.degrees.sum()) == 2 * prod.edge_count
            expected_edges = (g.edge_count
                              + g.node_count * (seed.edge_count + seed.node_count))
            assert prod.edge_count == expected_edges


class TestCoronaIterate:
    def test_m0_returns_seed(self):
        plan = plan_for("path:3", 0)
        g = corona_iterate(plan)
        assert (g.node_count, g.edge_count) == (3, 2)
        assert np.array_equal(reference.edge_array(g), reference.edge_array(path_graph(3)))

    def test_k3_node_counts(self):
        for m, nodes in [(1, 12), (2, 48), (3, 192)]:
            g = corona_iterate(plan_for("complete:3", m))
            assert g.node_count == nodes

    @pytest.mark.parametrize("spec", SEED_SPECS)
    @pytest.mark.parametrize("m", range(5))
    def test_counts_match_formulas(self, spec, m):
        plan = plan_for(spec, m)
        g = corona_iterate(plan)
        n, e = plan.n, plan.seed.graph.edge_count
        assert g.node_count == node_count_formula(n, m)
        assert g.edge_count == edge_count_formula(n, e, m)

    def test_nodes_added_per_step(self):
        # block-index bookkeeping: a step appends its new nodes after the
        # existing ones, so the additions at step i are exactly the index
        # range [N_{i-1}, N_i) with n^2 (n+1)^(i-1) entries
        seed = complete_graph(3)
        n = 3
        g = seed
        for i in range(1, 5):
            prev = g
            g = corona_product(g, seed)
            added = g.node_count - prev.node_count
            assert added == n * n * (n + 1) ** (i - 1)
            # originals keep their indices and each gained n corona edges
            assert np.array_equal(g.degrees[:prev.node_count],
                                  prev.degrees + n)

    @pytest.mark.parametrize("spec", SEED_SPECS)
    def test_birth_steps_are_the_reference_copies(self, spec):
        # the layout's steps cover level 3 once, and each copy is joined to
        # its host and to no other older node, in the reference build
        plan = plan_for(spec, 3)
        u, v = graph_module.edge_ends(reference.corona_iterate(plan.seed.graph, 3))
        seen = np.zeros(plan.predicted_nodes, dtype=np.int64)
        for t, step in enumerate(graph_module.level_table(plan.n, 3)):
            copies = step.copies()
            seen[copies] += 1
            into = (v >= step.first) & (v < step.stop) & (u < step.first)
            want = set() if t == 0 else {
                (h, int(c)) for h in range(step.blocks) for c in copies[h]}
            assert set(zip(u[into].tolist(), v[into].tolist())) == want
        assert (seen == 1).all()

    def test_connectivity_preserved(self):
        g = corona_iterate(plan_for("path:3", 2))
        assert connected_component_count(g) == 1
        assert int((bfs_distances(g, 0) >= 0).sum()) == g.node_count

    def test_disconnected_seed_components(self):
        two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
        sd = SeedDescriptor(kind="file", param="-", graph=two_edges, connected=False)
        g1 = corona_iterate(CoronaPlan(seed=sd, m=1))
        assert connected_component_count(g1) == 2

    def test_wrong_size_from_a_step_is_an_error(self, monkeypatch):
        # an explicit raise, so python -O keeps the check on the built CSR:
        # a product one edge short, and a layout one step short
        product = graph_module.corona_product

        def one_edge_short(g, seed):
            built = product(g, seed)
            return Graph.from_edges(built.node_count,
                                    np.column_stack(graph_module.edge_ends(built))[:-1])

        monkeypatch.setattr(graph_module, "corona_product", one_edge_short)
        with pytest.raises(RuntimeError, match="the steps gave 12 nodes and 20 edges; "
                                               "the plan predicts 12 and 21"):
            corona_iterate(plan_for("complete:3", 1))
        monkeypatch.undo()
        table = graph_module.level_table
        monkeypatch.setattr(graph_module, "level_table", lambda n, m: table(n, m)[:-1])
        with pytest.raises(RuntimeError, match="the plan predicts 48 and"):
            corona_iterate(plan_for("complete:3", 2))

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            corona_iterate(plan_for("complete:3", 40))
        # the cap refuses materialization, but the formulas still work
        assert node_count_formula(3, 40) == 3 * 4 ** 40


class TestDtypeContract:
    """Every Graph holds int64 offsets and int32 node ids, whichever way it
    was built."""

    @staticmethod
    def assert_contract(g: Graph) -> None:
        assert (g.offsets.dtype, g.targets.dtype) == (np.int64, np.int32)

    @pytest.mark.parametrize("spec", ["complete:4", "path:4", "cycle:4", "star:4"])
    def test_builtin_families(self, spec):
        self.assert_contract(SeedDescriptor.from_spec(spec).graph)

    def test_read_edge_list(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# n=5\n0 1\n1 2\n")
        self.assert_contract(read_edge_list(p))

    @pytest.mark.parametrize("node_count,edges", [
        (0, []), (3, []), (3, [(0, 1), (2, 1)]),
        (4, np.array([[0, 3], [1, 2]], dtype=np.int32)),
    ])
    def test_from_edges(self, node_count, edges):
        self.assert_contract(Graph.from_edges(node_count, edges))

    @pytest.mark.parametrize("spec", SEED_SPECS)
    @pytest.mark.parametrize("m", range(4))
    def test_corona_iterate(self, spec, m):
        self.assert_contract(corona_iterate(plan_for(spec, m)))

    @pytest.mark.parametrize("offsets,targets", [
        (np.array([0, 1, 2]), np.array([1, 0])),
        (np.array([0, 1, 2], dtype=np.int32), np.array([1, 0], dtype=np.int32)),
    ], ids=["int64-targets", "int32-offsets"])
    def test_other_dtypes_refused(self, offsets, targets):
        with pytest.raises(TypeError, match="int64 offsets and int32 targets"):
            Graph(offsets=offsets, targets=targets)


class TestNodeIdWidth:
    """Node ids are int32, so a graph of 2**31 nodes or more is refused from
    its count, whatever the node cap: the checks below allocate nothing."""

    def test_the_largest_seed_that_fits(self):
        graph_module._check_seed(1 << 40, graph_module.MAX_NODES)
        with pytest.raises(CapExceededError, match="node ids are 32-bit"):
            graph_module._check_seed(1 << 40, graph_module.MAX_NODES + 1)

    def test_a_level_past_the_ids_is_refused_under_any_cap(self):
        # complete:1 doubles: level 30 has 2**30 nodes and level 31 has 2**31
        plan_for("complete:1", 30, node_cap=1 << 40).check_cap()
        plan = plan_for("complete:1", 31, node_cap=1 << 40)
        with pytest.raises(CapExceededError,
                           match=f"level 31 has {2 ** 31} nodes, but node ids are 32-bit"):
            plan.check_cap()

    def test_the_node_cap_is_named_first(self):
        with pytest.raises(CapExceededError, match="over the cap of 2000000"):
            plan_for("complete:1", 31).check_cap()


class TestComponentCount:
    """The vectorized component count against the per-component BFS loop."""

    def test_random_graphs_with_isolated_nodes(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randrange(0, 40)
            pairs = {tuple(sorted(rng.sample(range(n), 2)))
                     for _ in range(rng.randrange(0, n + 1))} if n >= 2 else set()
            g = Graph.from_edges(n, sorted(pairs))
            assert connected_component_count(g) == reference.connected_component_count(g)

    @pytest.mark.parametrize("n", [1, 2, 7, 500])
    def test_disjoint_edges(self, n):
        g = Graph.from_edges(2 * n, [(2 * i, 2 * i + 1) for i in range(n)])
        assert connected_component_count(g) == reference.connected_component_count(g) == n

    def test_shuffled_label_path(self):
        order = list(range(2000))
        random.Random(5).shuffle(order)
        g = Graph.from_edges(2000, list(zip(order, order[1:])))
        assert connected_component_count(g) == reference.connected_component_count(g) == 1

    def test_isolated_nodes_only(self):
        g = Graph.from_edges(300, [])
        assert connected_component_count(g) == reference.connected_component_count(g) == 300


class TestCountFormulas:
    def test_node_counts(self):
        assert node_count_formula(3, 6) == 12288
        assert node_count_formula(3, 0) == 3
        assert node_count_formula(4, 4) == 2500
        assert node_count_formula(3, 7) == 49152

    def test_edge_counts(self):
        assert edge_count_formula(3, 3, 1) == 21
        assert edge_count_formula(3, 2, 1) == 17
        assert edge_count_formula(5, 7, 0) == 7

    def test_overflow_is_an_error(self):
        with pytest.raises(CountOverflowError):
            node_count_formula(3, 300)
        with pytest.raises(CountOverflowError):
            edge_count_formula(3, 3, 300)

    def test_exact_at_the_128_bit_boundary(self):
        # n=1 doubles: (n+1)**128 is 2**128, so the edge count is the
        # largest value in range and the node count the smallest past it
        assert edge_count_formula(1, 0, 128) == 2 ** 128 - 1
        assert node_count_formula(1, 127) == 2 ** 127
        with pytest.raises(CountOverflowError, match="node count"):
            node_count_formula(1, 128)
        with pytest.raises(CountOverflowError, match="edge count"):
            edge_count_formula(1, 1, 128)
        with pytest.raises(CountOverflowError, match="edge count"):
            edge_count_formula(1, 0, 129)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_refused_exactly_past_the_bound(self, n):
        e = n * (n - 1) // 2
        for m in range(140):
            nodes, edges = n * (n + 1) ** m, e + (e + n) * ((n + 1) ** m - 1)
            for want, count in ((nodes, lambda: node_count_formula(n, m)),
                                (edges, lambda: edge_count_formula(n, e, m))):
                if want <= graph_module.U128_MAX:
                    assert count() == want
                else:
                    with pytest.raises(CountOverflowError):
                        count()

    def test_a_huge_m_is_refused_from_its_exponent(self):
        # computing 4**(10**8) would allocate about 25 MB per power
        tracemalloc.start()
        try:
            with pytest.raises(CountOverflowError, match="node count"):
                node_count_formula(3, 10 ** 8)
            with pytest.raises(CountOverflowError, match="edge count"):
                edge_count_formula(3, 3, 10 ** 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            node_count_formula(0, 1)
        with pytest.raises(ValueError):
            edge_count_formula(3, -1, 1)


class TestSeedDescriptor:
    def test_parse(self):
        sd = SeedDescriptor.from_spec("complete:3")
        assert sd.kind == "complete"
        assert f"{sd.kind}:{sd.param}" == "complete:3"
        assert sd.connected

    def test_bad_specs(self):
        for spec in ["complete", "complete:", "triangle:3", "complete:x"]:
            with pytest.raises(ValueError):
                SeedDescriptor.from_spec(spec)

    def test_builtin_families_skip_the_component_pass(self, monkeypatch):
        # every builtin family is connected by construction
        counted = []
        monkeypatch.setattr(graph_module, "connected_component_count", counted.append)
        for kind, smallest in [("complete", 1), ("path", 1), ("cycle", 3), ("star", 3)]:
            for k in range(smallest, 12):
                sd = SeedDescriptor.from_spec(f"{kind}:{k}")
                assert sd.connected
                assert reference.connected_component_count(sd.graph) == 1
        assert counted == []

    def test_disconnected_flag(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# n=4\n0 1\n2 3\n")
        sd = SeedDescriptor.from_spec(f"file:{p}")
        assert not sd.connected


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        g = corona_product(complete_graph(3), complete_graph(3))
        p = tmp_path / "g.edges"
        write_edge_list(g, 0, p)
        back = read_edge_list(p)
        assert back.node_count == g.node_count
        assert np.array_equal(reference.edge_array(back), reference.edge_array(g))

    def test_header_fixes_node_count(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# n=5\n0 1\n")
        g = read_edge_list(p)
        assert g.node_count == 5
        assert g.edge_count == 1

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# a comment\n\n0 1\n# another\n1 2\n")
        assert read_edge_list(p).edge_count == 2

    @pytest.mark.parametrize("content", [
        "0 0\n",            # self-loop
        "0 1\n1 0\n",       # duplicate pair
        "0 1\n2 3\n0 1\n",  # duplicate line
        "0 one\n",          # non-integer
        "0 1 2\n",          # wrong arity
    ])
    def test_malformed(self, tmp_path, content):
        p = tmp_path / "bad.edges"
        p.write_text(content)
        with pytest.raises(EdgeListError):
            read_edge_list(p)

    def test_writer_sorted(self, tmp_path):
        g = Graph.from_edges(4, [(3, 2), (1, 0), (2, 0)])
        p = tmp_path / "g.edges"
        write_edge_list(g, 0, p)
        assert p.read_text().splitlines() == ["# n=4", "0 1", "0 2", "2 3"]


BLANK = st.sampled_from(["", "  ", "\t", " \t "])
PAD = st.sampled_from(["", " ", "\t", "  "])
EDGE = st.builds(lambda a, u, b, v, c, zeros: f"{a}{'0' * zeros}{u}{b or ' '}{v}{c}",
                 PAD, st.integers(0, 12), PAD, st.integers(0, 12), PAD, st.integers(0, 2))
COMMENT = st.sampled_from(["# a comment", "#", "# n=9", "  # n=4", "#n=13", "# n=abc",
                           "# n= 11", "# n=-2", "# n=1e3", "# n=40 extra"])
ODD = st.sampled_from(["+3 4", "1_0 2", "1 2 3", "5", "a b", "1 -2", "\u0663 4", "1\x1f2",
                       "99999999999999999999 1", "0000000000000000000003 4", "1 2 # c",
                       "7 7", "3\u00a05", "- 1"])
LINE_END = st.sampled_from(["\n"] * 8 + ["\r\n", "\r", "\x0c", "\u2028", "\x1c"])


def reading(read, path, cap):
    """A graph's arrays, or the type and text of the error ``read`` raises."""
    try:
        g = read(path, cap)
    except (EdgeListError, CapExceededError) as exc:
        return type(exc), str(exc)
    return g.node_count, g.offsets.tolist(), g.targets.tolist()


class TestEdgeListReader:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.one_of(EDGE, EDGE, EDGE, BLANK, COMMENT, ODD), LINE_END),
                    max_size=40),
           st.sampled_from([3, 25, 2_000_000]))
    def test_matches_the_line_reader(self, tmp_path, lines, cap):
        """The array passes give the line reader's graph, or its error."""
        path = tmp_path / "g.edges"
        path.write_bytes("".join(line + end for line, end in lines).encode())
        assert reading(read_edge_list, path, cap) == reading(reference.read_edge_list,
                                                             path, cap)

    def test_one_odd_line_keeps_a_large_file_in_arrays(self, tmp_path):
        # "+0 1" is read as text and the other lines in array passes: making
        # every pair a Python list to join its edge to them takes 2.6x the peak
        lines = [f"{u} {u + 1}" for u in range(20_000)]
        peaks = []
        for first in ("0 1", "+0 1"):
            path = tmp_path / "g.edges"
            path.write_text("\n".join([first] + lines[1:]))
            tracemalloc.start()
            try:
                read_edge_list(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert reading(read_edge_list, path, 2_000_000) == reading(
                reference.read_edge_list, path, 2_000_000)
        assert peaks[1] < 1.1 * peaks[0]

    def test_a_large_file_names_its_first_bad_line(self, tmp_path):
        lines = [f"{u} {u + 1}" for u in range(200)]
        lines[150], lines[120] = "4 x", "9 9"
        path = tmp_path / "g.edges"
        path.write_text("\n".join(lines))
        with pytest.raises(EdgeListError, match="^line 121: self-loop at node 9$"):
            read_edge_list(path)
        lines[120] = "9 10 11"
        path.write_text("\n".join(lines))
        with pytest.raises(EdgeListError, match="^line 121: expected 'u v', got '9 10 11'$"):
            read_edge_list(path)
