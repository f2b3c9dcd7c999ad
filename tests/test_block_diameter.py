"""The block table and the block-cut diameter against whole-graph
references, on graphs with many cut vertices: trees, cactus graphs, two
cycles joined by a path, pendant chains on a block of more than 64 nodes,
many blocks at one depth of the block-cut tree and random connected graphs.

Each graph is built by gluing blocks onto the nodes built so far, then its
labels are shuffled, so that the root of the spanning tree, node 0, lands
anywhere in the block-cut tree, and the tree that hooking finds is not a
DFS tree.
"""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from coronagraphs.graph import Graph, complete_graph
from coronagraphs.structural import (
    DisconnectedGraphError,
    _build_block_table,
    _farthest_pair,
    betweenness_exact,
    diameter_measured,
)

# derandomized: the same examples on every run
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)


def cycle(k: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % k) for i in range(k)] if k > 2 else [(0, 1)]


def glue(edges: list, n: int, at: int, block: list, size: int) -> int:
    """Add a block of ``size`` nodes whose local node 0 is node ``at``.

    Its other nodes become n, n+1, ...; returns the new node count.
    """
    def node(i):
        return at if i == 0 else n + i - 1

    edges += [(node(u), node(v)) for u, v in block]
    return n + size - 1


@st.composite
def relabeled(draw, n: int, edges: list) -> Graph:
    label = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


@st.composite
def trees(draw):
    n = draw(st.integers(1, 40))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    return draw(relabeled(n, edges))


@st.composite
def cacti(draw):
    """Cycles of 3 to 6 nodes and bridges, each glued at an earlier node."""
    edges, n = [], 1
    for size in draw(st.lists(st.integers(2, 6), min_size=1, max_size=12)):
        n = glue(edges, n, draw(st.integers(0, n - 1)), cycle(size), size)
    return draw(relabeled(n, edges))


@st.composite
def two_cycles_and_a_path(draw):
    """Two cycles joined by a path of 0 (a shared node) to 10 edges."""
    a, b = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    edges, n = cycle(a), a
    end = draw(st.integers(0, a - 1))
    for _ in range(draw(st.integers(0, 10))):
        n = glue(edges, n, end, [(0, 1)], 2)
        end = n - 1
    n = glue(edges, n, end, cycle(b), b)
    return draw(relabeled(n, edges))


@st.composite
def chains_on_a_big_block(draw):
    """A cycle of 60 to 90 nodes with chords, pendant chains glued on."""
    k = draw(st.integers(60, 90))
    pairs = {tuple(sorted(e)) for e in cycle(k)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                              max_size=20)):
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges, n = sorted(pairs), k
    for length in draw(st.lists(st.integers(1, 8), max_size=6)):
        end = draw(st.integers(0, n - 1))
        for _ in range(length):
            n = glue(edges, n, end, [(0, 1)], 2)
            end = n - 1
    return draw(relabeled(n, edges))


@st.composite
def wide_depths(draw):
    """70 to 100 cycles and bridges glued on a triangle, so that many blocks
    share one depth in the block-cut tree, then a few glued anywhere."""
    edges, n = cycle(3), 3
    for size in draw(st.lists(st.integers(2, 5), min_size=70, max_size=100)):
        n = glue(edges, n, draw(st.integers(0, 2)), cycle(size), size)
    for size in draw(st.lists(st.integers(2, 5), max_size=30)):
        n = glue(edges, n, draw(st.integers(0, n - 1)), cycle(size), size)
    return draw(relabeled(n, edges))


def block_chain(depth: int, root: str) -> Graph:
    """A chain of ``depth`` blocks, cycles and K2s, each glued at the far
    node of the one before, with fans of 4 to 40 cones (a node joined to a
    path of 2 to 4 nodes) glued at 3 of its nodes.

    The labels are shuffled with node 0 at the chain's start, so that the
    block-cut tree is as deep as the chain, or at its middle cut vertex.
    """
    rng = random.Random(depth)
    edges, n, joints = [], 1, [0]
    for _ in range(depth):
        size = rng.choice([2, 2, 3, 4, 5])
        far = n + size // 2 - 1   # its local node size // 2, farthest from the joint
        n = glue(edges, n, joints[-1], cycle(size), size)
        joints.append(far)
    for at in rng.sample(range(n), min(n, 3)):
        for _ in range(rng.randint(4, 40)):
            k = rng.randint(2, 4)
            n = glue(edges, n, at, [(0, i) for i in range(1, k + 1)]
                     + [(i, i + 1) for i in range(1, k)], k + 1)
    label = list(range(1, n))
    rng.shuffle(label)
    label.insert(joints[0 if root == "start" else depth // 2], 0)
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


# the chain depths on either side of each doubling of pointer jumping
CHAIN_DEPTHS = sorted({(1 << k) + d for k in range(1, 7) for d in (-1, 0, 1)})


@st.composite
def random_connected(draw):
    """A random tree with random chords, labels shuffled."""
    n = draw(st.integers(2, 40))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return draw(relabeled(n, sorted(pairs)))


@st.composite
def grids_with_branch_depths(draw):
    """A p x q grid, 2-connected, with a branch depth h per node."""
    p, q = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    edges = [(i * q + j, i * q + j + 1) for i in range(p) for j in range(q - 1)]
    edges += [(i * q + j, (i + 1) * q + j) for i in range(p - 1) for j in range(q)]
    h = draw(st.lists(st.integers(0, 4), min_size=p * q, max_size=p * q))
    return Graph.from_edges(p * q, edges), np.array(h, dtype=np.int64)


def assert_references_agree(g: Graph) -> None:
    h = nx.Graph()
    h.add_nodes_from(range(g.node_count))
    h.add_edges_from(reference.edge_array(g).tolist())
    want = reference.diameter_measured(g)
    assert diameter_measured(g) == want == nx.diameter(h)


@EXAMPLES
@given(trees())
def test_trees(g):
    assert_references_agree(g)


def assert_block_table_agrees(g: Graph) -> None:
    # each block's members, branch weights, parent cut vertex and local
    # edges, against networkx's blocks and cut vertices of the whole graph
    n = g.node_count
    whole = nx.Graph()
    whole.add_nodes_from(range(n))
    whole.add_edges_from(reference.edge_array(g).tolist())
    cuts = set(nx.articulation_points(whole))
    hops = nx.single_source_shortest_path_length(whole, 0)

    def weight(x, block):
        # x and the nodes it cuts off from the rest of the block
        if x not in cuts:
            return 1
        rest = whole.subgraph(set(whole) - {x})
        inside = nx.node_connected_component(rest, next(iter(block - {x})))
        return n - len(inside)

    table = _build_block_table(g)
    shape_of = {b: shape for shape, blocks in table.shapes for b in blocks.tolist()}
    got, parents = {}, []
    for b in range(len(table.starts) - 1):
        members = table.members[table.starts[b]:table.starts[b + 1]].tolist()
        assert members == sorted(members)
        local_edges = {tuple(e) for e in reference.edge_array(shape_of[b]).tolist()}
        got[frozenset(members)] = (table.weights[table.starts[b]:table.starts[b + 1]].tolist(),
                                   members[table.parent[b]], local_edges)
        parents.append(members[table.parent[b]])
    want = {}
    for block in map(frozenset, nx.biconnected_components(whole)):
        members = sorted(block)
        local = {x: i for i, x in enumerate(members)}
        want[block] = ([weight(x, block) for x in members], min(block, key=hops.get),
                       {tuple(sorted((local[x], local[y])))
                        for x, y in whole.subgraph(block).edges()})
    assert got == want
    # children come before their parent: the block that holds a parent cut
    # vertex below its own top comes later
    for b, p in enumerate(parents):
        holders = [c for c in range(len(parents)) if parents[c] != p
                   and p in table.members[table.starts[c]:table.starts[c + 1]]]
        assert all(c > b for c in holders)


@settings(EXAMPLES, max_examples=100)
@given(st.one_of(trees(), cacti(), two_cycles_and_a_path(), chains_on_a_big_block(),
                 random_connected()))
def test_block_table_against_networkx(g):
    assert_block_table_agrees(g)


@pytest.mark.parametrize("root", ["start", "middle"])
@pytest.mark.parametrize("depth", CHAIN_DEPTHS)
def test_chains_of_blocks(depth, root):
    # a wrong reach, summed over the jumps, shows at a doubling boundary
    g = block_chain(depth, root)
    assert_block_table_agrees(g)
    assert diameter_measured(g) == nx.diameter(nx.Graph(reference.edge_array(g).tolist()))


@EXAMPLES
@given(cacti())
def test_cactus_graphs(g):
    assert_references_agree(g)


@EXAMPLES
@given(wide_depths())
def test_many_blocks_at_one_depth(g):
    # the blocks glued on the triangle all hang below it, so each pass of
    # the DP lifts many heights into one block at once
    assert_references_agree(g)


@EXAMPLES
@given(two_cycles_and_a_path())
def test_two_cycles_joined_by_a_path(g):
    assert_references_agree(g)


@settings(EXAMPLES, max_examples=15)
@given(chains_on_a_big_block())
def test_pendant_chains_on_a_big_block(g):
    assert_references_agree(g)


@settings(EXAMPLES, max_examples=100)
@given(grids_with_branch_depths())
def test_farthest_pair_in_one_block(case):
    # the in-block search with its iFUB stop, against all pairs by networkx
    g, h = case
    whole = nx.Graph(reference.edge_array(g).tolist())
    dist = dict(nx.all_pairs_shortest_path_length(whole))
    want = max(h[x] + d + h[y] for x, row in dist.items() for y, d in row.items() if x != y)
    assert _farthest_pair(g, h) == want


@pytest.mark.parametrize("k", [66, 70, 128])
def test_equal_chains_on_a_big_block(k):
    # chains of 3 at nodes 1, k/2 and k/2 + 1 of a k-cycle share one
    # 64-source chunk; the longest pair, 1 and k/2 + 1, lies on its last
    # level, one more than the level before gave.  The tree root, node 0,
    # carries no chain, so only the in-block pair sees this path
    edges, n = cycle(k), k
    for at in (1, k // 2, k // 2 + 1):
        end = at
        for _ in range(3):
            n = glue(edges, n, end, [(0, 1)], 2)
            end = n - 1
    g = Graph.from_edges(n, edges)
    assert diameter_measured(g) == reference.diameter_measured(g) == 6 + k // 2


def test_k1_and_k2():
    assert diameter_measured(complete_graph(1)) == 0
    assert diameter_measured(complete_graph(2)) == 1


@pytest.mark.parametrize("edges,n", [
    ([(0, 1), (2, 3)], 4),                                  # two edges
    ([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 6),  # two triangles
    ([(1, 2), (2, 3)], 4),                                  # node 0 alone
    ([(0, 1), (1, 2)], 4),                                  # node 3 alone
])
def test_disconnected_graphs_keep_each_message(edges, n):
    # diameter and betweenness share the graph's block table, which records
    # the disconnection once; each still raises its own message
    g = Graph.from_edges(n, edges)
    with pytest.raises(DisconnectedGraphError, match="diameter of a disconnected graph"):
        diameter_measured(g)
    with pytest.raises(DisconnectedGraphError, match="betweenness needs a connected graph"):
        betweenness_exact(g)
