"""Degree, density, diameter, and betweenness: measured and closed-form.

Measured quantities come from BFS over the CSR graph; the closed forms
predict the same numbers from the seed alone, which is what makes the
desk-scale cross-validation cheap.
"""

from __future__ import annotations

import numpy as np

from .distributions import DistributionSeries
from .graph import Graph, _checked, expand_frontier


class DisconnectedGraphError(ValueError):
    """Operation needs a connected graph."""


class NonUniqueShortestPathError(ValueError):
    """Clique path counting met a tied shortest path (seed was no clique)."""


# ---------------------------------------------------------------------------
# degrees


def degree_histogram(g: Graph) -> DistributionSeries:
    """Plain series over realized degrees; population is the node count."""
    if g.node_count == 0:
        raise ValueError("graph must be nonempty")
    counts = np.bincount(g.degrees)
    degs = np.nonzero(counts)[0]
    return DistributionSeries.from_counts(degs.tolist(), counts[degs].tolist())


def degree_distribution_formula(seed: Graph, m: int) -> DistributionSeries:
    """Level-m degree distribution predicted from the seed degree sequence.

    A seed node of degree d contributes one level-m node of degree d + m*n
    (the originals) and, for each step t in 1..m, n*(n+1)**(t-1) nodes of
    degree d + 1 + (m-t)*n: a copy node lands with its seed degree plus the
    edge to its host, then gains n per later step.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    n = seed.node_count
    weights: dict[int, int] = {}
    for d in seed.degrees:
        d = int(d)
        weights[d + m * n] = weights.get(d + m * n, 0) + 1
        for t in range(1, m + 1):
            deg = d + 1 + (m - t) * n
            weights[deg] = weights.get(deg, 0) + n * (n + 1) ** (t - 1)
    population = _checked(n * (n + 1) ** m, "node count")
    if sum(weights.values()) != population:
        raise RuntimeError(f"degree weights sum to {sum(weights.values())}, "
                           f"not the node count {population}")
    return DistributionSeries.from_counts(list(weights), list(weights.values()))


def cumulative_degree_formula_regular(n: int, r: int, k: float) -> float:
    """Closed-form cumulative degree probability (n+1)**((r+1-k)/n).

    Exact on the lattice k = r+1+n*j for j in [0, m-1]; the original seed
    nodes (degree r+m*n) sit off that lattice and the formula is only
    approximate there.  Defined for k >= r+1.
    """
    if k < r + 1:
        raise ValueError(f"formula domain starts at degree {r + 1}")
    return float((n + 1) ** ((r + 1 - k) / n))


def average_degree(g: Graph) -> float:
    if g.node_count == 0:
        raise ValueError("graph must be nonempty")
    return 2.0 * g.edge_count / g.node_count


def average_degree_limit(n: int, e: int) -> float:
    """Large-m limit 2*(1 + e/n); the measured value differs by 2/(n+1)**m."""
    if n < 1:
        raise ValueError("need n >= 1")
    return 2.0 * (1.0 + e / n)


def density(g: Graph) -> float:
    v = g.node_count
    if v < 2:
        raise ValueError("density needs at least 2 nodes")
    return g.edge_count / (v * (v - 1) / 2)


# ---------------------------------------------------------------------------
# diameter


def diameter_measured(g: Graph) -> int:
    """Exact diameter via all-source BFS, 64 sources per machine word.

    Multi-source bit-parallel BFS (Then et al. 2014): bit j of node v's word
    says whether source j of the chunk has reached v.  One level ORs each
    node's neighbour words together; the level at which a chunk stops
    growing is the largest eccentricity among its sources.
    """
    n = g.node_count
    if n <= 1:
        return 0
    # reduceat reads one element even from an empty row, so an isolated
    # node would look adjacent to something
    if not g.degrees.all():
        raise DisconnectedGraphError("diameter of a disconnected graph is infinite")
    starts, targets = g.offsets[:-1], g.targets
    best = 0
    for first in range(0, n, 64):
        width = min(64, n - first)
        frontier = np.zeros(n, dtype=np.uint64)
        frontier[first:first + width] = np.left_shift(np.uint64(1),
                                                      np.arange(width, dtype=np.uint64))
        unseen = ~frontier
        level = 0
        while True:
            frontier = np.bitwise_or.reduceat(frontier[targets], starts)
            frontier &= unseen
            if not frontier.any():
                break
            unseen ^= frontier
            level += 1
        if (unseen & np.uint64((1 << width) - 1)).any():
            raise DisconnectedGraphError("diameter of a disconnected graph is infinite")
        best = max(best, level)
    return best


def diameter_formula(d0: int, m: int) -> int:
    """Each corona step stretches the diameter by 2."""
    if d0 < 0 or m < 0:
        raise ValueError("need d0 >= 0 and m >= 0")
    return d0 + 2 * m


# ---------------------------------------------------------------------------
# betweenness

SOURCE_BATCH = 4   # Brandes sources laid side by side per DAG build


def _dependencies(g: Graph):
    """Brandes dependencies, SOURCE_BATCH sources at a time.

    Yields (sigma, delta), each of shape (sources in the batch, N): the path
    counts from each source and its dependency on every node.  Node v of the
    batch's i-th source has flat index i*N + v, so one level-synchronous BFS
    builds all the batch's shortest-path DAGs, and each source meets its
    edges in the order a BFS of its own would.
    """
    n = g.node_count
    degrees = g.degrees
    for first in range(0, n, SOURCE_BATCH):
        sources = np.arange(first, min(first + SOURCE_BATCH, n))
        size = len(sources) * n
        roots = np.arange(len(sources)) * n + sources
        dist = np.full(size, -1, dtype=np.int32)
        sigma = np.zeros(size, dtype=np.float64)
        dist[roots] = 0
        sigma[roots] = 1.0
        frontier = roots
        levels = []
        d = 0
        while len(frontier):
            local = frontier % n
            srcs, dsts = expand_frontier(g, local)
            if len(dsts) == 0:
                break
            base = np.repeat(frontier - local, degrees[local])
            srcs += base
            dsts += base
            # every node first reached at this level is still unvisited, so
            # the DAG's edges are exactly the ones into unvisited nodes
            tree = dist[dsts] < 0
            srcs, dsts = srcs[tree], dsts[tree]
            dist[dsts] = d + 1
            sigma += np.bincount(dsts, weights=sigma[srcs], minlength=size)
            levels.append((srcs, dsts))
            frontier = np.flatnonzero(dist == d + 1)
            d += 1
        if dist.min() < 0:
            raise DisconnectedGraphError("betweenness needs a connected graph")
        delta = np.zeros(size, dtype=np.float64)
        for srcs, dsts in reversed(levels):
            share = sigma[srcs] / sigma[dsts] * (1.0 + delta[dsts])
            delta += np.bincount(srcs, weights=share, minlength=size)
        delta[roots] = 0.0
        yield sigma.reshape(-1, n), delta.reshape(-1, n)


def betweenness_exact(g: Graph) -> np.ndarray:
    """Exact betweenness by dependency accumulation over BFS DAGs (Brandes).

    Unordered pairs are counted once.
    """
    b = np.zeros(g.node_count, dtype=np.float64)
    for _, delta in _dependencies(g):
        for row in delta:   # one source at a time keeps the summation order
            b += row
    return b / 2.0


def betweenness_clique_pathcount(g: Graph) -> np.ndarray:
    """Integer path counts through each node, valid only for unique paths.

    On corona graphs grown from a complete seed every vertex pair has exactly
    one shortest path, so counting paths equals the fractional accumulation.
    A sigma above 1 anywhere means the seed was not a clique and raises.
    """
    b = np.zeros(g.node_count, dtype=np.int64)
    for sigma, delta in _dependencies(g):
        if np.any(sigma > 1.5):
            raise NonUniqueShortestPathError(
                "tied shortest paths found; integer path counting is invalid"
            )
        # with every sigma 1 each dependency is a whole number of nodes,
        # exact in float64
        b += delta.sum(axis=0).astype(np.int64)
    return b // 2


def betweenness_series(b: np.ndarray) -> DistributionSeries:
    """Plain distribution over distinct betweenness values."""
    vals, counts = np.unique(np.asarray(b, dtype=np.float64), return_counts=True)
    return DistributionSeries.from_counts(vals.tolist(), counts.tolist())


def betweenness_to_csv(b: np.ndarray) -> str:
    lines = ["node,b"]
    for i, x in enumerate(b):
        lines.append(f"{i},{float(x)!r}")
    return "\n".join(lines) + "\n"
