"""The direct corona builder and the edge-list stream against their
references, and the memory each holds."""

import random
import tracemalloc

import numpy as np
import pytest

from coronagraphs import graph
from coronagraphs.floattext import edge_lines
from coronagraphs.graph import (
    CoronaPlan,
    Graph,
    SeedDescriptor,
    complete_graph,
    corona_iterate,
    corona_product,
    edge_list_chunks,
    path_graph,
    star_graph,
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


def assert_same_bytes(seed: Graph, m: int, path) -> None:
    write_edge_list(seed, m, path)
    want = reference.edge_list_text(reference.corona_iterate(seed, m))
    assert path.read_bytes() == want.encode("utf-8")


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
        sd = SeedDescriptor.from_spec(spec)
        seed = sd.graph
        g = want = seed
        for m in range(1, 5):
            g = corona_product(g, seed)
            want = reference.corona_product(want, seed)
            assert_same_graph(g, want)
            # the CSR built from the stream's edge arrays
            assert_same_graph(corona_iterate(CoronaPlan(seed=sd, m=m)), want)
        assert_same_bytes(seed, 4, tmp_path / "g.edges")

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
        assert_same_bytes(g, 0, tmp_path / "g.edges")

    def test_disconnected_file_seed(self, tmp_path):
        p = tmp_path / "seed.edges"
        p.write_text("# n=6\n0 1\n2 3\n3 4\n")
        sd = SeedDescriptor.from_spec(f"file:{p}")
        assert not sd.connected
        for m in range(4):
            g = graph.corona_iterate(graph.CoronaPlan(seed=sd, m=m))
            assert_same_graph(g, reference.corona_iterate(sd.graph, m))
            assert_same_bytes(sd.graph, m, tmp_path / "g.edges")

    def test_random_seeds(self, tmp_path):
        for host, seed in random_pairs():
            g = corona_product(host, seed)
            assert_same_graph(g, reference.corona_product(host, seed))
            assert_same_bytes(g, 0, tmp_path / "g.edges")

    @pytest.mark.parametrize("hosts", [1, 2, 7])
    @pytest.mark.parametrize("seed", [star_graph(4), K1, WITH_ISOLATED],
                             ids=["star", "k1", "disconnected"])
    def test_host_range_boundaries(self, hosts, seed):
        # host graphs of 1, 2 and 7 nodes: the first and last copy blocks of
        # every step sit at both ends of the host id range
        g = want = path_graph(hosts)
        for _ in range(3):
            g = corona_product(g, seed)
            want = reference.corona_product(want, seed)
            assert_same_graph(g, want)


class TestWriterMatchesReference:
    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_streams_every_level_byte_for_byte(self, rows, monkeypatch, tmp_path):
        # chunks of 1, 2 and 7 edges: pieces cut inside blocks and span several
        monkeypatch.setattr(graph, "EDGE_CHUNK_ROWS", rows)
        cases = [(SeedDescriptor.from_spec(spec).graph, m)
                 for spec in BUILTIN_SEEDS for m in range(4)]
        cases += [(seed, m) for _, seed in random_pairs() for m in range(3)]
        cases += [(WITH_ISOLATED, m) for m in range(4)] + [(K1, 12)]
        for seed, m in cases:
            assert_same_bytes(seed, m, tmp_path / "g.edges")

    @pytest.mark.parametrize("k", [9, 10, 11, 99, 100, 101, 9999, 10000, 10001])
    def test_digit_width_changes(self, k, tmp_path):
        # node counts on both sides of a new decimal digit, and of a new
        # 4-digit group in the serializer
        assert_same_bytes(path_graph(k), 0, tmp_path / "g.edges")

    @pytest.mark.parametrize("node_count", [0, 1, 7])
    def test_zero_edges(self, node_count, tmp_path):
        assert_same_bytes(Graph.from_edges(node_count, []), 0, tmp_path / "g.edges")

    def test_spans_several_chunks(self, tmp_path):
        g = reference.corona_iterate(complete_graph(3), 7)
        assert g.edge_count > graph.EDGE_CHUNK_ROWS
        assert_same_bytes(complete_graph(3), 7, tmp_path / "g.edges")

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_chunk_boundaries(self, rows, monkeypatch, tmp_path):
        monkeypatch.setattr(graph, "EDGE_CHUNK_ROWS", rows)
        seed = SeedDescriptor.from_spec("star:4").graph
        for m in (0, 2):
            assert_same_bytes(seed, m, tmp_path / "g.edges")

    def test_row_longer_than_a_chunk(self, monkeypatch, tmp_path):
        # a chunk is 1 edge here, and the hub's row alone holds 49:
        # its edges come out whole, in one piece, and the leaves add none
        monkeypatch.setattr(graph, "EDGE_CHUNK_ROWS", 1)
        g = star_graph(50)
        assert [piece.count("\n") for piece in edge_list_chunks(g, 0)] == [1, 49]
        assert_same_bytes(g, 0, tmp_path / "g.edges")
        g = reference.corona_product(path_graph(3), g)
        longest = int(g.degrees.max())
        assert longest > 2
        assert max(piece.count("\n") for piece in edge_list_chunks(g, 0)) <= 2 + longest
        assert_same_bytes(g, 0, tmp_path / "g.edges")

    @pytest.mark.parametrize("m", [0, 1])
    def test_a_long_row_is_a_piece_of_its_own(self, m, monkeypatch, tmp_path):
        # row 0 holds 1 edge and row 1 holds 100: a chunk of 7 edges cut at
        # row starts alone would put both rows in one piece
        monkeypatch.setattr(graph, "EDGE_CHUNK_ROWS", 7)
        g = Graph.from_edges(102, [(0, 1)] + [(1, k) for k in range(2, 102)])
        for piece in list(edge_list_chunks(g, m))[1:]:
            sources = {line.split()[0] for line in piece.splitlines()}
            assert piece.count("\n") < 2 * 7 or len(sources) == 1
        assert_same_bytes(g, m, tmp_path / "g.edges")

    def test_endpoints_past_two_digit_groups(self):
        # endpoints this large need a graph too big to build in a test, so
        # the block formatter is checked on its own
        uv = np.array([[0, 1], [0, 123456789], [9999, 10000],
                       [10000, 99999999], [99999999, 100000000]])
        want = "".join(f"{u} {v}\n" for u, v in uv.tolist())
        assert edge_lines(uv) == want


def traced(run):
    """``run()``'s result, and the peak of the memory tracemalloc traces
    while it runs."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_writer_does_not_grow_with_the_graph(self, tmp_path):
        # m=8 has 4 times the edges of m=7; the stream builds neither level
        # and holds one chunk of either.  A writer that gathers the whole
        # edge array first holds twice as much at m=8 as at m=7
        seed = complete_graph(3)
        write_edge_list(seed, 7, tmp_path / "warm.edges")  # the digit table is cached
        peaks = [traced(lambda: write_edge_list(seed, m, tmp_path / "g.edges"))[1]
                 for m in (7, 8)]
        assert peaks[1] < 1.25 * peaks[0]

    def test_writer_holds_under_200_bytes_per_chunk_edge(self, tmp_path):
        # about EDGE_CHUNK_ROWS edges at a time, tiled and formatted in
        # uint32: 173.5 bytes per edge read from CSR rows, 249.5 with int64
        # ids and divisions
        seed = complete_graph(3)
        write_edge_list(seed, 8, tmp_path / "warm.edges")  # the digit table is cached
        peak = traced(lambda: write_edge_list(seed, 8, tmp_path / "g.edges"))[1]
        assert peak < 200 * graph.EDGE_CHUNK_ROWS
