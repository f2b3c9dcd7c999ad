"""Shared helpers for the test suite."""

import random

from coronagraphs.graph import Graph, connected_component_count


def random_connected_graph(n: int, rng: random.Random) -> Graph:
    """Random spanning tree on n nodes plus a handful of extra edges."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def random_graph(seed: int, connected: bool) -> Graph:
    """A random graph on 3 to 8 nodes, fixed by ``seed``: connected, or of 2
    or more components."""
    rng = random.Random(seed)
    n = rng.randrange(3, 9)
    if connected:
        return random_connected_graph(n, rng)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        g = Graph.from_edges(n, rng.sample(pairs, rng.randrange(len(pairs))))
        if connected_component_count(g) > 1:
            return g


def moment(s, power: int = 1) -> float:
    """Sum of value**power over a spectrum's entries, counting multiplicity."""
    return float(sum(v ** power * w for v, w in s.entries))


def zero_count(s, tol: float = 1e-9) -> int:
    """Multiplicity of a spectrum's values within tol of 0."""
    return sum(w for v, w in s.entries if abs(v) <= tol)


def algebraic_connectivity(s) -> float:
    """Second-smallest value of a Laplacian spectrum, counting multiplicity."""
    return float(s.expand()[1])


def table_rows(table) -> list:
    """Every record of a ``spectral.Discrepancies`` table, as a row of its
    columns."""
    return list(zip(*[column.tolist() for column in table.columns()]))


def assert_close_rows(got: list, want: list, rel: float = 1e-12) -> None:
    """Discrepancy rows alike: the same kind, k, level and note, and each
    float (mu, the roots, max_delta) within rel of max(1, |want|)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g[:3], g[-1]) == (w[:3], w[-1]), (g, w)
        for a, b in zip(g[3:-1], w[3:-1]):
            assert abs(a - b) <= rel * max(1.0, abs(b)), (g, w)
