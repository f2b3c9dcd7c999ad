"""Slow, obviously-correct reference copies of code the package replaced.

The package fills the corona CSR rows directly from the index layout and
formats the edge list with a chunked numpy serializer.  These are the plain
versions they replace: build the whole edge list and let
``Graph.from_edges`` sort and validate it, and format one f-string per edge.
The tests assert that both paths give identical arrays and identical bytes.

The package also runs one quadratic step for all three spectrum kinds.  The
three per-kind steps it replaces are kept below, each with its own
discriminant as first written; the tests assert that both give the same
multiplicities and values to rounding.  The star seeds ran on a driver of
their own, with their own exact seed spectra; it is kept below too, and the
tests assert the same entries and the same discrepancy records.

The package runs its all-source BFS in batches: the diameter 64 sources per
machine word, betweenness a few sources side by side.  The one-source-at-a-
time diameter, Brandes betweenness and clique path count it replaces are
kept below, with the cumulative-sum frontier expansion they ran on; the
tests assert the same expansions, the same diameters, the same path counts
and betweenness equal to rounding.

The package counts components in one vectorized pass over the CSR edges.
The loop it replaces, one BFS per component, is kept below; the tests
assert the same counts.
"""

import math

import numpy as np

from coronagraphs.graph import Graph, bfs_distances
from coronagraphs.spectral import (
    ADJACENCY,
    LAPLACIAN,
    SIGNLESS,
    Spectrum,
    _drop_one,
    make_spectrum,
    star_cubic_roots,
)
from coronagraphs.structural import DisconnectedGraphError, NonUniqueShortestPathError


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


def star_adjacency_seed_spectrum(k: int) -> Spectrum:
    if k < 3:
        raise ValueError("star seeds need k >= 3")
    root = math.sqrt(k - 1.0)
    return make_spectrum(ADJACENCY, [(-root, 1), (0.0, k - 2), (root, 1)], level=0)


def star_signless_seed_spectrum(k: int) -> Spectrum:
    if k < 3:
        raise ValueError("star seeds need k >= 3")
    return make_spectrum(SIGNLESS, [(0.0, 1), (1.0, k - 2), (float(k), 1)], level=0)


def _star_spectrum(k: int, m: int, kind: str, seed: Spectrum, appended: float,
                   discrepancies: list | None) -> Spectrum:
    s = seed
    total = k
    for level in range(1, m + 1):
        pairs = []
        for mu, w in s.entries:
            for root in star_cubic_roots(mu, k, kind,
                                         discrepancies=discrepancies,
                                         level=level):
                pairs.append((root, w))
        pairs.append((appended, (k - 2) * total))
        s = make_spectrum(kind, pairs, level=level)
        total *= k + 1
    return s


def star_spectrum(k: int, m: int, kind: str,
                  discrepancies: list | None = None) -> Spectrum:
    """Level-m A or Q spectrum of the star seed on k nodes: every eigenvalue
    through the cubic, then zero (A) or q=1 shifted to 2 (Q) appended with
    multiplicity (k-2) times the previous node count."""
    if kind == ADJACENCY:
        return _star_spectrum(k, m, ADJACENCY, star_adjacency_seed_spectrum(k),
                              appended=0.0, discrepancies=discrepancies)
    return _star_spectrum(k, m, SIGNLESS, star_signless_seed_spectrum(k),
                          appended=2.0, discrepancies=discrepancies)


def expand_frontier(g: Graph, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All CSR rows of ``frontier`` at once: (sources repeated, their targets)."""
    offsets, targets = g.offsets, g.targets
    counts = offsets[frontier + 1] - offsets[frontier]
    nz = counts > 0
    if not nz.all():
        frontier = frontier[nz]
        counts = counts[nz]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # cumsum-of-ones trick: seed each segment start so the running sum jumps
    # to that row's offset
    idx = np.ones(total, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    idx[starts[0]] = offsets[frontier[0]]
    if len(frontier) > 1:
        idx[starts[1:]] = offsets[frontier[1:]] - (
            offsets[frontier[:-1]] + counts[:-1] - 1
        )
    idx = np.cumsum(idx)
    return np.repeat(frontier, counts), targets[idx]


def diameter_measured(g: Graph) -> int:
    """Exact diameter via one BFS per source."""
    best = 0
    for s in range(g.node_count):
        dist = _shortest_path_dag(g, s)[0]
        if dist.min() < 0:
            raise DisconnectedGraphError("diameter of a disconnected graph is infinite")
        best = max(best, int(dist.max()))
    return best


def _shortest_path_dag(g: Graph, source: int):
    """Level-synchronous BFS returning per-level tree edges and path counts.

    Returns (dist, sigma, levels) where levels is a list of (srcs, dsts)
    arrays; a tree edge goes from depth d to depth d+1 and sigma is final
    for a depth before its edges are emitted.
    """
    n = g.node_count
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    levels = []
    d = 0
    while len(frontier):
        srcs, dsts = expand_frontier(g, frontier)
        if len(dsts) == 0:
            break
        fresh = dsts[dist[dsts] < 0]
        if len(fresh):
            dist[fresh] = d + 1
        tree = dist[dsts] == d + 1
        srcs, dsts = srcs[tree], dsts[tree]
        np.add.at(sigma, dsts, sigma[srcs])
        levels.append((srcs, dsts))
        frontier = np.unique(dsts)
        d += 1
    return dist, sigma, levels


def betweenness_exact(g: Graph) -> np.ndarray:
    """Brandes dependency accumulation, one source at a time."""
    n = g.node_count
    b = np.zeros(n, dtype=np.float64)
    for s in range(n):
        dist, sigma, levels = _shortest_path_dag(g, s)
        if dist.min() < 0:
            raise DisconnectedGraphError("betweenness needs a connected graph")
        delta = np.zeros(n, dtype=np.float64)
        for srcs, dsts in reversed(levels):
            np.add.at(delta, srcs, sigma[srcs] / sigma[dsts] * (1.0 + delta[dsts]))
        delta[s] = 0.0
        b += delta
    return b / 2.0


def betweenness_clique_pathcount(g: Graph) -> np.ndarray:
    """Integer path counts through each node, one source at a time."""
    n = g.node_count
    b = np.zeros(n, dtype=np.int64)
    for s in range(n):
        dist, sigma, levels = _shortest_path_dag(g, s)
        if dist.min() < 0:
            raise DisconnectedGraphError("betweenness needs a connected graph")
        if np.any(sigma > 1.5):
            raise NonUniqueShortestPathError(
                "tied shortest paths found; integer path counting is invalid"
            )
        delta = np.zeros(n, dtype=np.int64)
        for srcs, dsts in reversed(levels):
            np.add.at(delta, srcs, 1 + delta[dsts])
        delta[s] = 0
        b += delta
    return b // 2


def connected_component_count(g: Graph) -> int:
    """Components by one BFS per component, each over all N nodes."""
    seen = np.zeros(g.node_count, dtype=bool)
    comps = 0
    for start in range(g.node_count):
        if seen[start]:
            continue
        comps += 1
        seen |= bfs_distances(g, start) >= 0
    return comps
