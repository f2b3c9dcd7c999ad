"""Slow, obviously-correct reference copies of code the package replaced.

The package fills the corona CSR rows directly from the index layout and
formats the edge list with a chunked numpy serializer.  These are the plain
versions they replace: build the whole edge list and let
``Graph.from_edges`` sort and validate it, and format one f-string per edge.
The tests assert that both paths give identical arrays and identical bytes.

The package also runs one quadratic step for all three spectrum kinds.  The
three per-kind steps it replaces are kept below, each with its own
discriminant as first written; the tests assert that both give the same
multiplicities and values to rounding.
"""

import math

import numpy as np

from coronagraphs.graph import Graph
from coronagraphs.spectral import (
    ADJACENCY,
    LAPLACIAN,
    SIGNLESS,
    Spectrum,
    _drop_one,
    make_spectrum,
)


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


def adjacency_step_regular(s: Spectrum, seed: Spectrum, n: int, r: int) -> Spectrum:
    """lam spawns (lam + r +- sqrt((r-lam)^2 + 4n))/2; the seed less r is appended."""
    total = s.total_multiplicity
    pairs = []
    for lam, w in s.entries:
        disc = math.sqrt((r - lam) ** 2 + 4 * n)
        pairs.append(((lam + r + disc) / 2.0, w))
        pairs.append(((lam + r - disc) / 2.0, w))
    for mu, w in _drop_one(seed.entries, float(r)):
        pairs.append((mu, w * total))
    return make_spectrum(ADJACENCY, pairs, level=s.level + 1)


def laplacian_step(s: Spectrum, seed: Spectrum, n: int) -> Spectrum:
    """nu spawns (nu + n + 1 +- sqrt((nu+n+1)^2 - 4nu))/2; nonzero nu_i + 1 appended."""
    total = s.total_multiplicity
    pairs = []
    for nu, w in s.entries:
        disc = math.sqrt(max((nu + n + 1) ** 2 - 4 * nu, 0.0))
        pairs.append(((nu + n + 1 + disc) / 2.0, w))
        pairs.append(((nu + n + 1 - disc) / 2.0, w))
    for nu, w in _drop_one(seed.entries, 0.0):
        pairs.append((nu + 1.0, w * total))
    return make_spectrum(LAPLACIAN, pairs, level=s.level + 1)


def signless_step_regular(s: Spectrum, seed: Spectrum, n: int, r: int) -> Spectrum:
    """q spawns (q + n + 2r + 1 +- sqrt((q + n - 2r - 1)^2 + 4n))/2; seed less 2r, + 1."""
    total = s.total_multiplicity
    pairs = []
    for q, w in s.entries:
        disc = math.sqrt(((q + n) - (2 * r + 1)) ** 2 + 4 * n)
        pairs.append(((q + n + 2 * r + 1 + disc) / 2.0, w))
        pairs.append(((q + n + 2 * r + 1 - disc) / 2.0, w))
    for q, w in _drop_one(seed.entries, float(2 * r)):
        pairs.append((q + 1.0, w * total))
    return make_spectrum(SIGNLESS, pairs, level=s.level + 1)


def quadratic_step(s: Spectrum, seed: Spectrum, n: int, r: int | None) -> Spectrum:
    """The per-kind step for s's kind."""
    if s.kind == ADJACENCY:
        return adjacency_step_regular(s, seed, n, r)
    if s.kind == LAPLACIAN:
        return laplacian_step(s, seed, n)
    return signless_step_regular(s, seed, n, r)
