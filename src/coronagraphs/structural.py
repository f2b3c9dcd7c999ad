"""Degree, density, diameter, and betweenness: measured and closed-form.

Measured quantities come from BFS over the CSR graph; the closed forms
predict the same numbers from the seed alone, which is what makes the
desk-scale cross-validation cheap.
"""

from __future__ import annotations

import numpy as np

from .distributions import DistributionSeries
from .graph import Graph, _checked, bfs_distances, expand_frontier


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
    return DistributionSeries.from_counts(degs.tolist(), counts[degs].tolist(),
                                          population=g.node_count)


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
    return DistributionSeries.from_counts(list(weights), list(weights.values()),
                                          population=population)


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
    """Exact diameter via all-source BFS."""
    best = 0
    for s in range(g.node_count):
        dist = bfs_distances(g, s)
        if dist.min() < 0:
            raise DisconnectedGraphError("diameter of a disconnected graph is infinite")
        best = max(best, int(dist.max()))
    return best


def diameter_formula(d0: int, m: int) -> int:
    """Each corona step stretches the diameter by 2."""
    if d0 < 0 or m < 0:
        raise ValueError("need d0 >= 0 and m >= 0")
    return d0 + 2 * m


# ---------------------------------------------------------------------------
# betweenness


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


def betweenness_exact(g: Graph, ordered: bool = False) -> np.ndarray:
    """Exact betweenness by dependency accumulation over BFS DAGs.

    Unordered pairs are counted once by default; ordered=True doubles every
    value (the other summation convention).
    """
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
    return b if ordered else b / 2.0


def betweenness_clique_pathcount(g: Graph, ordered: bool = False) -> np.ndarray:
    """Integer path counts through each node, valid only for unique paths.

    On corona graphs grown from a complete seed every vertex pair has exactly
    one shortest path, so counting paths equals the fractional accumulation.
    A sigma above 1 anywhere means the seed was not a clique and raises.
    """
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
    return b if ordered else b // 2


def betweenness_step_approx(n: int, t: int, tau: int) -> int:
    """Scaling estimate n*(n+1)**(t+tau-1) for a node tau steps old.

    tau counts corona steps the node has lived through (originals have
    tau = t).  The estimate tracks the exact value to within a factor of
    about n+1.
    """
    if not 1 <= tau <= t:
        raise ValueError("need 1 <= tau <= t")
    if n < 1:
        raise ValueError("need n >= 1")
    return _checked(n * (n + 1) ** (t + tau - 1), "betweenness estimate")


def betweenness_series(b: np.ndarray, population: int | None = None) -> DistributionSeries:
    """Plain distribution over distinct betweenness values."""
    vals, counts = np.unique(np.asarray(b, dtype=np.float64), return_counts=True)
    return DistributionSeries.from_counts(
        vals.tolist(), counts.tolist(),
        population=population if population is not None else len(b))


def betweenness_to_csv(b: np.ndarray) -> str:
    lines = ["node,b"]
    for i, x in enumerate(b):
        lines.append(f"{i},{float(x)!r}")
    return "\n".join(lines) + "\n"
