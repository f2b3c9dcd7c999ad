"""Degree, density, diameter, and betweenness: measured and closed-form.

Measured quantities come from the CSR graph: the diameter from an
all-source BFS, betweenness from one DFS over the block-cut tree and one
small Brandes run per distinct block.  Every block of a corona graph is a
block of the seed or a cone of n+1 nodes, so few distinct blocks remain.
Betweenness is summed exactly and rounded once: each value is the correctly
rounded float of the true one, and exactly tied nodes get equal floats.
The closed forms predict the same numbers from the seed alone, which is
what makes the desk-scale cross-validation cheap.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul

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


def _blocks(g: Graph) -> tuple[list, list[int], list[int]]:
    """Blocks of a connected graph and their branch weights, by one DFS.

    Iterative Hopcroft-Tarjan from node 0.  Returns (blocks, owner, disc):
    ``blocks`` holds (vertices, weights) per block, the block's parent cut
    vertex last; ``owner[x]`` is the block of the edge from x to its DFS
    parent; ``disc`` is the discovery order.  A vertex's weight in a block
    counts the nodes that reach the block through it, itself included: 1
    plus the sizes below its child blocks, or N less the size below the
    block for the parent cut vertex.
    """
    n = g.node_count
    # memoryviews read Python ints without keeping one object per entry
    offsets, targets = memoryview(g.offsets), memoryview(g.targets)
    disc, low = [-1] * n, [0] * n
    size, hung = [1] * n, [0] * n   # DFS subtree; nodes below child blocks
    owner, where = [0] * n, [0] * n
    nxt = memoryview(g.offsets[:-1].copy())   # each node's next CSR entry
    disc[0] = found = 0
    path, pending, blocks = [0], [0], []
    while True:
        u = path[-1]
        i = nxt[u]
        if i < offsets[u + 1]:
            nxt[u] = i + 1
            t = targets[i]
            if disc[t] < 0:
                found += 1
                disc[t] = low[t] = found
                where[t] = len(pending)
                path.append(t)
                pending.append(t)
            elif disc[t] < low[u]:
                low[u] = disc[t]
            continue
        path.pop()
        if not path:
            break
        p = path[-1]
        size[p] += size[u]
        low[p] = min(low[p], low[u])
        if low[u] >= disc[p]:
            below = pending[where[u]:]
            del pending[where[u]:]
            for x in below:
                owner[x] = len(blocks)
            blocks.append((below + [p], [1 + hung[x] for x in below] + [n - size[u]]))
            hung[p] += size[u]
    if found + 1 < n:
        raise DisconnectedGraphError("betweenness needs a connected graph")
    return blocks, owner, disc


def _block_dependencies(adj: tuple, weights: tuple) -> tuple[list[int], int, bool]:
    """Half of sum over s != v of w(s)*delta_s(v) in one block, exactly.

    delta_s is Brandes' dependency with each target t counted w(t) times.
    Returns (numerators, denominator, whether any pair has tied shortest
    paths).  Scaled by the lcm L of the path counts from s, each dependency
    D(c) = L*delta_s(c) is an integer and a multiple of sigma(c), so every
    division below is exact.
    """
    k = len(adj)
    num, den, tied = [0] * k, 1, False
    for s in range(k):
        dist, sigma = [-1] * k, [0] * k
        dist[s], sigma[s] = 0, 1
        queue = [s]
        for u in queue:
            du, su = dist[u] + 1, sigma[u]
            for t in adj[u]:
                if dist[t] < 0:
                    dist[t] = du
                    sigma[t] = su
                    queue.append(t)
                elif dist[t] == du:
                    sigma[t] += su
        scale = math.lcm(*sigma)
        tied |= scale > 1
        dep = [0] * k
        for c in reversed(queue):
            share = (scale * weights[c] + dep[c]) // sigma[c]
            before = dist[c] - 1   # c's predecessors on shortest paths
            for v in adj[c]:
                if dist[v] == before:
                    dep[v] += sigma[v] * share
        dep[s] = 0
        if den % scale:
            grow = scale // math.gcd(den, scale)
            num = [x * grow for x in num]
            den *= grow
        num = list(map(add, num, map(mul, dep, repeat(weights[s] * (den // scale)))))
    return num, 2 * den, tied


def _betweenness_pass(g: Graph) -> tuple[list[int], int, bool]:
    """Exact betweenness over the block-cut tree (Puzis et al. 2012).

    Returns (numerators, common denominator, whether any shortest path
    ties).  A pair s, t counts for v in two ways.  If v is a cut vertex
    with s and t in different components of G - v, the pair counts 1:
    (1/2)[(N-1)**2 - sum over blocks B at v of (N - w_B(v))**2] pairs.
    Otherwise the pair's shortest paths cross a block B of v between the
    vertices x != v and y != v where s and t enter it, and it counts
    sigma_xy(v)/sigma_xy inside B; w_B(x)*w_B(y) pairs enter at x and y.
    Blocks of equal shape and weights share one Brandes run.
    """
    n = g.node_count
    if n == 0:
        return [], 1, False
    blocks, owner, disc = _blocks(g)
    # an edge belongs to the block of its later-discovered end
    disc, owner = np.array(disc), np.array(owner)
    srcs, dsts = expand_frontier(g, np.arange(n))
    block_of = owner[np.where(disc[srcs] > disc[dsts], srcs, dsts)]
    order = np.argsort(block_of, kind="stable")
    bounds = np.searchsorted(block_of[order], np.arange(len(blocks) + 1)).tolist()
    srcs, dsts = srcs[order], dsts[order]

    cut = [(n - 1) ** 2] * n
    memo: dict[tuple, tuple[list[int], int, bool]] = {}
    placed = []
    for b, (vertices, weights) in enumerate(blocks):
        for v, w in zip(vertices, weights):
            cut[v] -= (n - w) ** 2
        if len(vertices) < 3:
            continue
        vertices, weights = zip(*sorted(zip(vertices, weights)))
        pos = {v: i for i, v in enumerate(vertices)}
        adj = [[] for _ in vertices]
        rows = slice(bounds[b], bounds[b + 1])
        for u, t in zip(srcs[rows].tolist(), dsts[rows].tolist()):
            adj[pos[u]].append(pos[t])
        key = (tuple(tuple(sorted(a)) for a in adj), weights)
        if key not in memo:
            memo[key] = _block_dependencies(*key)
        placed.append((vertices, memo[key]))

    den = math.lcm(2, *(d for _, d, _ in memo.values()))
    num = [c * (den // 2) for c in cut]
    for vertices, (part, d, _) in placed:
        f = den // d
        for v, x in zip(vertices, part):
            num[v] += f * x
    return num, den, any(tied for _, _, tied in memo.values())


def betweenness_exact(g: Graph) -> np.ndarray:
    """Exact betweenness, unordered pairs counted once.

    Summed in exact arithmetic over the blocks (see ``_betweenness_pass``)
    and rounded once, so each value is the correctly rounded float of the
    true betweenness and exactly tied nodes get equal floats.
    """
    num, den, _ = _betweenness_pass(g)
    return np.array([x / den for x in num], dtype=np.float64)


def betweenness_clique_pathcount(g: Graph) -> np.ndarray:
    """Integer path counts through each node, valid only for unique paths.

    On corona graphs grown from a complete seed every vertex pair has exactly
    one shortest path, so counting paths equals the fractional accumulation.
    Shortest paths are unique in G exactly when they are unique in every
    block; a tie in any block means the seed was not a clique and raises.
    """
    num, den, tied = _betweenness_pass(g)
    if tied:
        raise NonUniqueShortestPathError(
            "tied shortest paths found; integer path counting is invalid"
        )
    return np.array([x // den for x in num], dtype=np.int64)


def betweenness_series(b: np.ndarray) -> DistributionSeries:
    """Plain distribution over distinct betweenness values."""
    vals, counts = np.unique(np.asarray(b, dtype=np.float64), return_counts=True)
    return DistributionSeries.from_counts(vals.tolist(), counts.tolist())


def betweenness_to_csv(b: np.ndarray) -> str:
    lines = ["node,b"]
    for i, x in enumerate(b):
        lines.append(f"{i},{float(x)!r}")
    return "\n".join(lines) + "\n"
