"""Shared helpers for the test suite."""

import random

from coronagraphs.graph import Graph


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
