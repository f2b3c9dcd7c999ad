"""Slow, obviously-correct reference copies of the corona builder and writer.

The package fills the corona CSR rows directly from the index layout and
formats the edge list with a chunked numpy serializer.  These are the plain
versions they replace: build the whole edge list and let
``Graph.from_edges`` sort and validate it, and format one f-string per edge.
The tests assert that both paths give identical arrays and identical bytes.
"""

import numpy as np

from coronagraphs.graph import Graph


def corona_product(g: Graph, seed: Graph) -> Graph:
    """One corona step through an explicit edge list."""
    n = seed.node_count
    N = g.node_count
    seed_e = seed.edge_array()
    copies = np.tile(seed_e, (N, 1))
    shift = (N + np.repeat(np.arange(N, dtype=np.int64), len(seed_e)) * n)[:, None]
    joins = np.column_stack((
        np.repeat(np.arange(N, dtype=np.int64), n),
        N + np.arange(N * n, dtype=np.int64),
    ))
    edges = np.concatenate((g.edge_array(), copies + shift, joins), axis=0)
    return Graph.from_edges(N * (1 + n), edges)


def corona_iterate(seed: Graph, m: int) -> Graph:
    g = seed
    for _ in range(m):
        g = corona_product(g, seed)
    return g


def edge_list_text(g: Graph) -> str:
    """The edge-list file contents, one f-string per edge."""
    lines = [f"# n={g.node_count}"]
    lines += [f"{u} {v}" for u, v in g.edge_array()]
    return "\n".join(lines) + "\n"
