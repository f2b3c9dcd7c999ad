"""The direct corona builder and the chunked writer against their references."""

import random

import numpy as np
import pytest

from coronagraphs import graph
from coronagraphs.graph import (
    Graph,
    SeedDescriptor,
    complete_graph,
    corona_product,
    path_graph,
    write_edge_list,
)

import reference
from conftest import random_connected_graph

BUILTIN_SEEDS = ["complete:1", "complete:2", "complete:3", "complete:5",
                 "path:1", "path:2", "path:3", "cycle:3", "cycle:4",
                 "star:3", "star:4"]

K1 = Graph.from_edges(1, [])
EMPTY = Graph.from_edges(0, [])
WITH_ISOLATED = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3)])


def assert_same_graph(got: Graph, want: Graph) -> None:
    assert got.offsets.dtype == want.offsets.dtype
    assert got.targets.dtype == want.targets.dtype
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.targets, want.targets)


def assert_same_bytes(g: Graph, path) -> None:
    write_edge_list(g, path)
    assert path.read_bytes() == reference.edge_list_text(g).encode("utf-8")


def random_pairs():
    """The host/seed pairs of test_random_seeds_keep_invariants, in order."""
    rng = random.Random(20240811)
    pairs = []
    for _ in range(25):
        n = rng.randrange(2, 9)
        g = random_connected_graph(n, rng)
        seed = random_connected_graph(rng.randrange(1, 9), rng)
        pairs.append((g, seed))
    return pairs


class TestBuilderMatchesReference:
    @pytest.mark.parametrize("spec", BUILTIN_SEEDS)
    def test_builtin_seeds_up_to_m4(self, spec, tmp_path):
        seed = SeedDescriptor.from_spec(spec).graph
        g = want = seed
        for _ in range(4):
            g = corona_product(g, seed)
            want = reference.corona_product(want, seed)
            assert_same_graph(g, want)
        assert_same_bytes(g, tmp_path / "g.edges")

    @pytest.mark.parametrize("host,seed", [
        (complete_graph(3), K1),
        (K1, complete_graph(3)),
        (EMPTY, complete_graph(3)),
        (EMPTY, K1),
        (WITH_ISOLATED, WITH_ISOLATED),
        (path_graph(3), WITH_ISOLATED),
        (Graph.from_edges(3, []), path_graph(2)),
    ], ids=["k1-seed", "k1-host", "empty-host", "empty-host-k1-seed",
            "isolated-node", "isolated-node-seed", "edgeless-host"])
    def test_edge_cases(self, host, seed, tmp_path):
        g = corona_product(host, seed)
        assert_same_graph(g, reference.corona_product(host, seed))
        assert_same_bytes(g, tmp_path / "g.edges")

    def test_disconnected_file_seed(self, tmp_path):
        p = tmp_path / "seed.edges"
        p.write_text("# n=6\n0 1\n2 3\n3 4\n")
        sd = SeedDescriptor.from_spec(f"file:{p}")
        assert not sd.connected
        for m in range(4):
            g = graph.corona_iterate(graph.CoronaPlan(seed=sd, m=m))
            assert_same_graph(g, reference.corona_iterate(sd.graph, m))
            assert_same_bytes(g, tmp_path / "g.edges")

    def test_random_seeds(self, tmp_path):
        for host, seed in random_pairs():
            g = corona_product(host, seed)
            assert_same_graph(g, reference.corona_product(host, seed))
            assert_same_bytes(g, tmp_path / "g.edges")


class TestWriterMatchesReference:
    @pytest.mark.parametrize("k", [9, 10, 11, 99, 100, 101, 9999, 10000, 10001])
    def test_digit_width_changes(self, k, tmp_path):
        # node counts on both sides of a new decimal digit, and of a new
        # 4-digit group in the serializer
        assert_same_bytes(path_graph(k), tmp_path / "g.edges")

    @pytest.mark.parametrize("node_count", [0, 1, 7])
    def test_zero_edges(self, node_count, tmp_path):
        assert_same_bytes(Graph.from_edges(node_count, []), tmp_path / "g.edges")

    def test_spans_several_chunks(self, tmp_path):
        g = reference.corona_iterate(complete_graph(3), 7)
        assert g.edge_count > graph.EDGE_CHUNK_ROWS
        assert_same_bytes(g, tmp_path / "g.edges")

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_chunk_boundaries(self, rows, monkeypatch, tmp_path):
        monkeypatch.setattr(graph, "EDGE_CHUNK_ROWS", rows)
        seed = SeedDescriptor.from_spec("star:4").graph
        for g in (seed, reference.corona_iterate(seed, 2)):
            assert_same_bytes(g, tmp_path / "g.edges")

    def test_endpoints_past_two_digit_groups(self):
        # endpoints this large need a graph too big to build in a test, so
        # the block formatter is checked on its own
        uv = np.array([[0, 1], [0, 123456789], [9999, 10000],
                       [10000, 99999999], [99999999, 100000000]])
        want = "".join(f"{u} {v}\n" for u, v in uv.tolist())
        assert graph._edge_lines(uv) == want
