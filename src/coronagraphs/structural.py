"""Degree, density, diameter, and betweenness: measured and closed-form.

Each measure takes a ``Graph``, or a ``graph.CoronaPlan`` for its level m,
a Graph being its own level 0.  Measured quantities read the degrees and
the block-cut tree.  A plan reads both off the seed and the index layout
of ``graph.level_table``: a node's degree is its seed degree plus 1 for
its host plus n per later step, and every block of level m is a seed block
or a cone K1∨seed, a copy with its host.  So no level-m graph is built, and
only the seed is decomposed, once, by the Tarjan & Vishkin (1985)
decomposition in whole-array numpy passes: a spanning tree by hooking, its
Euler tour ranked by pointer jumping, subtree extrema of the preorder from
a doubling table, and the blocks as components of an auxiliary graph on
the tree edges.  The count of passes grows as log n, not with the depth of
the tree.  The diameter is a DP over the block-cut tree in as few passes,
each block's height lifted into the blocks above it by pointer jumping,
with in-block distances from a bit-parallel BFS, once per distinct block
shape;
betweenness is one small Brandes run per distinct block, weighted by the
nodes hanging off each block vertex (Puzis et al. 2012), so few distinct
blocks remain on a corona level.
Betweenness is summed exactly and rounded once: each value is the correctly
rounded float of the true one, and exactly tied nodes get equal floats.
The closed forms, the diameter law and the average degree limit, predict
the measured numbers from the seed alone, which is what makes the
desk-scale cross-validation cheap.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Iterator
from itertools import repeat
from operator import add, mul
from typing import NamedTuple

import numpy as np

from .distributions import DistributionSeries
# expand_frontier is unused here, but the bench tracer patches this binding
from .graph import (  # noqa: F401
    CoronaPlan,
    Graph,
    corona_product,
    edge_ends,
    expand_frontier,
    hook_forest,
    level_table,
)


class DisconnectedGraphError(ValueError):
    """Operation needs a connected graph."""


# ---------------------------------------------------------------------------
# degrees


def degree_histogram(g: Graph | CoronaPlan) -> DistributionSeries:
    """Plain series over realized degrees; population is the node count."""
    if g.node_count == 0:
        raise ValueError("graph must be nonempty")
    counts = np.bincount(g.degrees)
    degs = np.nonzero(counts)[0]
    return DistributionSeries(values=degs, counts=counts[degs])


def average_degree(g: Graph | CoronaPlan) -> float:
    if g.node_count == 0:
        raise ValueError("graph must be nonempty")
    return 2.0 * g.edge_count / g.node_count


def average_degree_limit(n: int, e: int) -> float:
    """Large-m limit 2*(1 + e/n); the measured value differs by 2/(n+1)**m."""
    if n < 1:
        raise ValueError("need n >= 1")
    return 2.0 * (1.0 + e / n)


def density(g: Graph | CoronaPlan) -> float:
    v = g.node_count
    if v < 2:
        raise ValueError("density needs at least 2 nodes")
    return g.edge_count / (v * (v - 1) / 2)


# ---------------------------------------------------------------------------
# the block-cut tree

_WORD = 64   # sources per bit-parallel BFS chunk
_BITS = np.left_shift(np.uint64(1), np.arange(_WORD, dtype=np.uint64))


def _bit_levels(g: Graph, sources) -> Iterator[np.ndarray]:
    """Bit-parallel BFS from up to 64 sources at once (Then et al. 2014).

    Bit j of node v's word says whether ``sources[j]`` has reached v; one
    level ORs each node's neighbour words together.  Yields, level by level
    from 1 on, the words of the nodes first reached at that level.  Every
    node needs a neighbour: reduceat reads one element even from an empty
    row.
    """
    frontier = np.zeros(g.node_count, dtype=np.uint64)
    frontier[sources] = _BITS[:len(sources)]
    unseen = ~frontier
    while True:
        frontier = np.bitwise_or.reduceat(frontier[g.targets], g.offsets[:-1])
        frontier &= unseen
        if not frontier.any():
            return
        unseen ^= frontier
        yield frontier


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """The stable sorting permutation of nonnegative keys below 2**31.

    Each key is packed with its position, below 2**32, into one int64: a
    plain sort of the packed values is stable and much faster than a
    stable argsort.
    """
    packed = np.sort((keys.astype(np.int64) << 32) | np.arange(len(keys)))
    return (packed & 0xFFFFFFFF).astype(keys.dtype)


def _euler_tour(n: int, tree_u: np.ndarray, tree_v: np.ndarray):
    """Parent, preorder and subtree size in a spanning tree, rooted at node 0.

    The tree's arcs, each edge both ways, are grouped by tail; an arc v->w
    is followed by the arc after w->v in w's group, cyclically.  Cut at the
    root, that is the Euler tour, and its arcs are ranked by pointer
    jumping (Wyllie 1979), one pass per bit of its length.  An arc that
    comes before its twin goes down; the number of down arcs up to it is
    its head's preorder, and the distance to its twin spans the subtree.
    """
    idx = tree_u.dtype
    arcs = 2 * len(tree_u)
    # arcs 2i and 2i+1 are edge i both ways, so arc j's twin is j ^ 1
    tail = np.column_stack((tree_u, tree_v)).reshape(-1)
    head = np.column_stack((tree_v, tree_u)).reshape(-1)
    order = _stable_order(tail)
    tail, head = tail[order], head[order]
    at = np.empty(arcs, dtype=idx)
    at[order] = np.arange(arcs, dtype=idx)
    twin = at[order ^ 1]
    del order, at
    first = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(tail, minlength=n), out=first[1:])
    after = twin + 1
    wrap = np.flatnonzero(after == first[head + 1])
    after[wrap] = first[head[wrap]]
    last = twin[first[1] - 1]   # the arc back into the root, closing its last subtree
    after[last] = last
    rank = np.ones(arcs, dtype=idx)
    rank[last] = 0
    for _ in range(arcs.bit_length()):
        rank += rank[after]
        after = after[after]
    del after
    pos = arcs - 1 - rank
    down = np.flatnonzero(pos < pos[twin])
    child = head[down]
    parent = np.zeros(n, dtype=idx)
    parent[child] = tail[down]
    size = np.full(n, n, dtype=idx)
    size[child] = (pos[twin[down]] - pos[down] + 1) // 2
    is_down = np.zeros(arcs, dtype=bool)
    is_down[pos[down]] = True
    pre = np.zeros(n, dtype=idx)
    pre[child] = np.cumsum(is_down, dtype=idx)[pos[down]]
    return parent, pre, size


def _subtree_extrema(pre: np.ndarray, size: np.ndarray, low: np.ndarray,
                     high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min of low and max of high over each node's subtree.

    A subtree is the preorder range [pre, pre + size), so each is a range
    query on a doubling table: level k holds the extrema of the 2**k values
    from each position, and answers the ranges of size 2**k to 2**(k+1)-1
    with two overlapping windows.  Levels are built one at a time.
    """
    by_pre_low, by_pre_high = np.empty_like(low), np.empty_like(high)
    by_pre_low[pre], by_pre_high[pre] = low, high
    level = np.frexp(size)[1] - 1   # floor(log2(size))
    sub_low, sub_high = np.empty_like(low), np.empty_like(high)
    for k in range(int(level.max()) + 1):
        x = np.flatnonzero(level == k)
        a, b = pre[x], pre[x] + size[x] - (1 << k)
        sub_low[x] = np.minimum(by_pre_low[a], by_pre_low[b])
        sub_high[x] = np.maximum(by_pre_high[a], by_pre_high[b])
        w = 1 << k
        by_pre_low = np.minimum(by_pre_low[:-w], by_pre_low[w:])
        by_pre_high = np.maximum(by_pre_high[:-w], by_pre_high[w:])
    return sub_low, sub_high


def _decompose(g: Graph):
    """Blocks of g in whole-array passes (Tarjan & Vishkin 1985).

    Returns None if g is disconnected.  Otherwise returns numpy arrays
    (pre, owner, parents, below, hung) over a spanning tree T rooted at
    node 0: ``pre`` is the preorder in T and ``owner[x]`` the block of the
    edge from x to its parent in T.  Block b hangs from its parent cut
    vertex ``parents[b]``, the parent of its first member in preorder, and
    has ``below[b]`` nodes below that vertex.  ``hung[x]`` counts the
    nodes below x's child blocks.  Blocks are numbered by falling preorder
    of their parent cut vertex, so children come before their parent in
    the block-cut tree.

    T comes from hooking.  Two tree edges share a block exactly when an
    auxiliary graph on the tree edges joins them: the edges above the two
    ends of a non-tree edge between nodes that are not ancestor and
    descendant, and a tree edge p-w and the tree edge above p when some
    edge leaves w's subtree past p's subtree.  Its components come from
    the same hooking.
    """
    n = g.node_count
    if n == 1:
        zero, none = np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        return zero, zero, none, none, zero
    if n >= 1 << 30 or g.edge_count >= 1 << 32:
        raise ValueError("the block decomposition indexes nodes and edges in 32 bits")
    u, v = edge_ends(g)
    _, tree_u, tree_v = hook_forest(n, u, v)
    if len(tree_u) < n - 1:
        return None
    parent, pre, size = _euler_tour(n, tree_u, tree_v)
    del tree_u, tree_v

    # the extreme preorders next to each subtree.  Tree edge p-w escapes
    # when an edge from w's subtree lands outside p's range [pre, pre+size);
    # w's own edge to p lands at p's pre, inside it, so none is masked
    near = pre[g.targets]
    low, high = _subtree_extrema(pre, size, np.minimum.reduceat(near, g.offsets[:-1]),
                                 np.maximum.reduceat(near, g.offsets[:-1]))
    del near

    pu, pv = pre[u], pre[v]
    unrelated = np.flatnonzero(np.maximum(pu, pv) >= np.where(pu < pv, pu + size[u],
                                                               pv + size[v]))
    del pu, pv
    w = np.arange(1, n, dtype=np.int32)
    p = parent[1:]
    escapes = (low[1:] < pre[p]) | (high[1:] >= pre[p] + size[p])
    label = hook_forest(n, np.concatenate((u[unrelated], w[escapes])),
                        np.concatenate((v[unrelated], p[escapes])))[0]
    del u, v, unrelated, low, high

    # tree edge p-w goes by w; a block's label is its smallest such w, and
    # its top is the parent of the edges whose parent edge lies elsewhere
    lw = label[1:]
    first = np.flatnonzero(label[p] != lw)
    top = np.zeros(n, dtype=np.int32)
    top[lw[first]] = p[first]
    blocks = np.flatnonzero(lw == w) + 1
    blocks = blocks[_stable_order(n - pre[top[blocks]])]
    number = np.zeros(n, dtype=np.int64)
    number[blocks] = np.arange(len(blocks))
    owner = np.zeros(n, dtype=np.int64)
    owner[1:] = number[lw]
    hanging = size[1:][first]
    below = np.bincount(owner[1:][first], weights=hanging, minlength=len(blocks))
    hung = np.bincount(p[first], weights=hanging, minlength=n)
    return (pre, owner, top[blocks].astype(np.int64), below.astype(np.int64),
            hung.astype(np.int64))


def _grouped_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row indices of a 2-d array grouped by equal rows, and where in
    that order each group starts.

    Within a group the indices ascend, so ``order[starts]`` gives each
    distinct row's first index, and ``np.split(order, starts)[1:]`` the
    groups.  Each row is compared as one opaque byte string:
    ``np.unique(axis=0)`` would build a structured dtype with a field per
    column, which costs milliseconds on the one wide row of a large block.
    """
    rows = np.ascontiguousarray(rows)
    blobs = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).reshape(-1)
    order = np.argsort(blobs, kind="stable")
    blobs = blobs[order]
    new = np.ones(len(blobs), dtype=bool)
    new[1:] = blobs[1:] != blobs[:-1]
    return order, np.flatnonzero(new)


class _BlockTable(NamedTuple):
    """The blocks of a connected graph, with their vertices and shapes.

    Block b holds ``members[starts[b]:starts[b+1]]`` in ascending order;
    local index i is a block's i-th smallest vertex.  ``weights`` gives
    each member's branch weight in its block: the nodes that reach the
    block through it, itself included.  ``parent[b]`` is the local index of
    b's parent cut vertex.  Blocks come children before their parent.
    ``shapes`` pairs each distinct local edge set, as a small Graph, with
    the blocks that have it.
    """

    members: np.ndarray
    starts: np.ndarray
    weights: np.ndarray
    parent: np.ndarray
    shapes: list[tuple[Graph, np.ndarray]]

    def local(self, blocks: np.ndarray, k: int) -> np.ndarray:
        """Member positions of same-sized blocks, one row per block."""
        return self.starts[blocks, None] + np.arange(k)


_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _block_table(g: Graph | CoronaPlan) -> _BlockTable | None:
    """g's block table, or None if g is disconnected; built once per graph
    or plan."""
    if g not in _TABLES:
        _TABLES[g] = (_build_block_table(g) if isinstance(g, Graph)
                      else _level_block_table(g))
    return _TABLES[g]


def _level_block_table(plan: CoronaPlan) -> _BlockTable | None:
    """The block table of level m, from the seed's table and the layout.

    The seed's blocks keep their shapes, each weight times (n+1)**m, as
    every seed node roots (n+1)**m nodes.  Ahead of them, deepest step
    first, come the N_{t-1} cones of each step t, of the one shape K1∨seed:
    host h, then its copy in seed order.  Each copy node roots (n+1)**(m-t)
    nodes, and the host reaches the cone for all N - n*(n+1)**(m-t) others.
    """
    seed = _block_table(plan.seed.graph)
    if seed is None or plan.m == 0:
        return seed
    plan.check_cap()
    n, m, total = plan.n, plan.m, plan.node_count
    steps = level_table(n, m)[1:]
    count = sum(step.blocks for step in steps)
    members, weights = [], []
    for t, step in reversed(list(enumerate(steps, 1))):
        cones = np.empty((step.blocks, n + 1), dtype=np.int64)
        cones[:, 0] = np.arange(step.blocks)
        cones[:, 1:] = step.copies()
        below = (n + 1) ** (m - t)
        weight = np.full((step.blocks, n + 1), below, dtype=np.int64)
        weight[:, 0] = total - n * below
        members.append(cones.reshape(-1))
        weights.append(weight.reshape(-1))
    k1 = Graph.from_edges(1, [])
    return _BlockTable(
        members=np.concatenate((*members, seed.members)),
        starts=np.concatenate(((n + 1) * np.arange(count), seed.starts + count * (n + 1))),
        weights=np.concatenate((*weights, seed.weights * (n + 1) ** m)),
        parent=np.concatenate((np.zeros(count, dtype=np.int64), seed.parent)),
        shapes=[(corona_product(k1, plan.seed.graph), np.arange(count)),
                *((shape, blocks + count) for shape, blocks in seed.shapes)])


def _build_block_table(g: Graph) -> _BlockTable | None:
    n = g.node_count
    # a call of its own: its return frees the spanning tree's arrays before the edge pass
    found = _decompose(g)
    if found is None:
        return None
    pre, owner, parents, below, hung = found
    nb = len(parents)
    # every node but the root joins the block of its tree parent edge, with
    # the nodes below its child blocks; each block also holds its parent
    # cut vertex, which reaches it for all nodes not below it
    key = np.sort(np.concatenate(((owner[1:] << 32) | np.arange(1, n),
                                  (np.arange(nb) << 32) | parents)))
    block, members = key >> 32, key & 0xFFFFFFFF
    del key
    is_top = members == parents[block]
    size = np.bincount(block, minlength=nb)
    starts = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(size, out=starts[1:])
    place = np.arange(len(block)) - starts[block]
    top = np.empty(nb, dtype=np.int64)   # each block's parent cut vertex
    top[block[is_top]] = place[is_top]
    local = np.zeros(n, dtype=np.int64)   # each node in the block of its parent edge
    local[members[~is_top]] = place[~is_top]
    weights = np.where(is_top, n - below[block], 1 + hung[members])
    del block, is_top, place

    # an edge belongs to the block of its end later in preorder; since local
    # indices follow vertex order, the edges of one block come in code order
    u, v = edge_ends(g)
    eb = owner[np.where(pre[u] > pre[v], u, v)]
    at_top, top_place = parents[eb], top[eb]
    code = np.where(u == at_top, top_place, local[u]) * size[eb]
    code += np.where(v == at_top, top_place, local[v])
    del u, v, at_top, top_place
    code = code[_stable_order(eb)]
    ecount = np.bincount(eb, minlength=nb)
    efirst = np.cumsum(ecount) - ecount

    shapes = []
    for same_size in np.split(*_grouped_rows(np.column_stack((size, ecount))))[1:]:
        k, e = size[same_size[0]], ecount[same_size[0]]
        codes = code[efirst[same_size, None] + np.arange(e)]
        for blocks in np.split(*_grouped_rows(codes))[1:]:
            edges = np.column_stack(np.divmod(codes[blocks[0]], k))
            shapes.append((Graph.from_edges(k, edges), same_size[blocks]))
    return _BlockTable(members=members, starts=starts, weights=weights, parent=top,
                       shapes=shapes)


def largest_block(g: Graph | CoronaPlan) -> int:
    """Node count of the largest block of a connected g; a bridge counts 2."""
    if g.node_count < 2:
        return g.node_count
    table = _block_table(g)
    if table is None:
        raise DisconnectedGraphError("blocks of a disconnected graph are not computed")
    return int(np.diff(table.starts).max())


# ---------------------------------------------------------------------------
# diameter


def _distances(shape: Graph, sources) -> np.ndarray:
    """Distances in a block from up to 64 sources: d(v, sources[j]) at [v, j]."""
    dist = np.zeros((shape.node_count, len(sources)), dtype=np.int64)
    for level, words in enumerate(_bit_levels(shape, sources), 1):
        dist[(words[:, None] & _BITS[:len(sources)]) != 0] = level
    return dist


def _distance_row(shape: Graph, source: int) -> np.ndarray:
    """Distances in a block from one node."""
    return _distances(shape, [source])[:, 0]


def _farthest_pair(shape: Graph, h: np.ndarray) -> int:
    """Max of h[x] + d(x, y) + h[y] over x != y in one block.

    Sources go 64 at a time in chunks of equal h, so each level of a chunk
    adds one value: its h, the level and the largest h it first reaches.
    With f = d(z, .) + h for a node z near the middle, found by a double
    sweep, no pair exceeds f(x) + f(y).  So chunks go by falling f, and
    the search stops once best reaches twice the largest f left (the iFUB
    bound, Crescenzi et al. 2013).
    """
    a = int(np.argmax(_distance_row(shape, 0) + h))
    from_a = _distance_row(shape, a)
    from_b = _distance_row(shape, int(np.argmax(from_a + h)))
    f = _distance_row(shape, int(np.argmin(np.maximum(from_a, from_b)))) + h
    order = np.lexsort((-f, h))   # by h, then by falling f
    groups = np.split(order, np.flatnonzero(np.diff(h[order])) + 1)
    done = [0] * len(groups)
    top, best = int(h.max()), 0
    while True:
        left = [(int(f[g[i]]), j) for j, (g, i) in enumerate(zip(groups, done))
                if i < len(g)]
        if not left or best >= 2 * max(left)[0]:
            return best
        j = max(left)[1]
        chunk = groups[j][done[j]:done[j] + _WORD]
        done[j] += len(chunk)
        hs = int(h[chunk[0]])
        for level, words in enumerate(_bit_levels(shape, chunk), 1):
            if hs + level + top > best:   # else no node of this level can beat best
                best = max(best, hs + level + int(h[words != 0].max()))


def diameter_measured(g: Graph | CoronaPlan) -> int:
    """Exact diameter by a DP over the block-cut tree, in array passes.

    Block b hangs from its parent cut vertex p_b, and below up(b), the
    block that holds p_b other than as its parent cut vertex; the blocks at
    the root, node 0, hang below none.  b reaches p_b from p_up(b) in
    d(p_up(b), p_b).  b's height, the longest branch below p_b through b,
    starts as the largest distance in b from p_b.  Each pass of pointer
    jumping (Wyllie 1979) raises the height of up(b) to b's height plus its
    reach, then adds the reach of up(b) to b's and sets up(b) to up(up(b)),
    so a pass per bit of the tree's depth gives every height.  down(x), the
    longest branch below x, is the greatest height of x's child blocks.  A
    longest shortest path turns either at a cut vertex, through its two
    highest child blocks, or in one block B, between x != y for
    h(x) + d_B(x, y) + h(y) with h = down and h(p) = 0.  In-block distances
    come from the bit-parallel BFS: once per shape for blocks of at most 64
    nodes, and above that once per parent cut vertex and once per distinct
    row of h, 64 sources of equal h at a time.
    """
    n = g.node_count
    if n <= 1:
        return 0
    table = _block_table(g)
    if table is None:
        raise DisconnectedGraphError("diameter of a disconnected graph is infinite")
    # each block's distances from its parent cut vertex: flat[rowstart[b]:][:k],
    # with the sentinel -n where x == y, below any real sum as down < n
    members, starts, parent = table.members, table.starts, table.parent
    nb = len(parent)
    dist, flat, used = {}, [], 0
    rowstart, height = np.empty(nb, dtype=np.int64), np.empty(nb, dtype=np.int64)
    for s, (shape, blocks) in enumerate(table.shapes):
        k = shape.node_count
        if k <= _WORD:
            rows = dist[s] = _distances(shape, np.arange(k))
            np.fill_diagonal(rows, -n)
            at = parent[blocks]
        else:
            sources, at = np.unique(parent[blocks], return_inverse=True)
            rows = np.array([_distance_row(shape, i) for i in sources.tolist()])
            rows[np.arange(len(sources)), sources] = -n
        rowstart[blocks] = used + k * at
        height[blocks] = rows.max(axis=1)[at]
        flat.append(rows.reshape(-1))
        used += rows.size
    flat = np.concatenate(flat)

    # a node's last place among the members is in the block it hangs below,
    # as each block comes before the block above it; the places take 32
    # bits where they fit, as they are the DP's one array over all members
    tops = members[starts[:-1] + parent]
    idx = np.int32 if len(members) < 1 << 31 else np.int64
    place = np.zeros(n, dtype=idx)
    np.maximum.at(place, members, np.arange(len(members), dtype=idx))
    place = place[tops]
    up = np.searchsorted(starts, place, side="right") - 1
    up[tops == 0] = nb
    live = np.flatnonzero(up < nb)
    reach = np.zeros(nb, dtype=np.int64)
    reach[live] = flat[rowstart[up[live]] + place[live] - starts[up[live]]]
    del place, rowstart
    while len(live):
        above = up[live]
        np.maximum.at(height, above, reach[live] + height[live])
        reach[live] += reach[above]
        up[live] = up[above]
        live = live[up[live] < nb]
    del up, reach

    # each cut vertex's two highest child blocks
    by = np.lexsort((-height, tops))
    tops, height = tops[by], height[by]
    lead = np.flatnonzero(np.concatenate(([True], tops[1:] != tops[:-1])))
    down = np.zeros(n, dtype=np.int64)
    down[tops[lead]] = height[lead]
    two = lead[lead + 1 < nb]
    two = two[tops[two + 1] == tops[two]]
    best = max(int(height[lead].max()), int((height[two] + height[two + 1]).max(initial=0)))
    del tops, height, by, lead, two

    for s, (shape, blocks) in enumerate(table.shapes):
        k = shape.node_count
        h = down[members[table.local(blocks, k)]]
        h[np.arange(len(blocks)), parent[blocks]] = 0
        # one row per distinct h: blocks of one shape at one depth share
        # theirs, as corona cones do
        order, first = _grouped_rows(h)
        h = h[order[first]]
        if s in dist:
            for part in np.array_split(h, -(-len(h) * k * k // (1 << 20))):
                best = max(best, int((part[:, :, None] + dist[s] + part[:, None, :]).max()))
        else:
            for row in h:
                best = max(best, _farthest_pair(shape, row))
    return best


def diameter_formula(d0: int, m: int) -> int:
    """Each corona step stretches the diameter by 2, K1's first by 1.

    K1 is the only seed of diameter 0, and K1∘K1 = K2 has diameter 1;
    every later step adds 2, as for any other seed.
    """
    if d0 < 0 or m < 0:
        raise ValueError("need d0 >= 0 and m >= 0")
    if d0 == 0 and m >= 1:
        return 2 * m - 1
    return d0 + 2 * m


# ---------------------------------------------------------------------------
# betweenness


def _block_dependencies(adj: tuple, weights: tuple) -> tuple[list[int], int]:
    """Half of sum over s != v of w(s)*delta_s(v) in one block, exactly.

    delta_s is Brandes' dependency with each target t counted w(t) times.
    Returns (numerators, denominator).  Scaled by the lcm L of the path
    counts from s, each dependency D(c) = L*delta_s(c) is an integer and a
    multiple of sigma(c), so every division below is exact.
    """
    k = len(adj)
    num, den = [0] * k, 1
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
    return num, 2 * den


def betweenness_exact(g: Graph | CoronaPlan) -> np.ndarray:
    """Exact betweenness over the block-cut tree (Puzis et al. 2012),
    unordered pairs counted once.

    A pair s, t counts for v in two ways.  If v is a cut vertex with s and
    t in different components of G - v, the pair counts 1:
    (1/2)[(N-1)**2 - sum over blocks B at v of (N - w_B(v))**2] pairs.
    Otherwise the pair's shortest paths cross a block B of v between the
    vertices x != v and y != v where s and t enter it, and it counts
    sigma_xy(v)/sigma_xy inside B; w_B(x)*w_B(y) pairs enter at x and y.
    Blocks of equal shape and weights share one Brandes run.  The sums are
    exact and rounded once, so each value is the correctly rounded float of
    the true betweenness and exactly tied nodes get equal floats.
    """
    n = g.node_count
    if n < 2:
        return np.zeros(n, dtype=np.float64)
    table = _block_table(g)
    if table is None:
        raise DisconnectedGraphError("betweenness needs a connected graph")
    # at most (N-1)**2, so int64 holds the cut vertex counts exactly
    cut = np.full(n, (n - 1) ** 2, dtype=np.int64)
    np.subtract.at(cut, table.members, (n - table.weights) ** 2)
    placed = []
    for shape, blocks in table.shapes:
        k = shape.node_count
        if k < 3:
            continue
        local = table.local(blocks, k)
        weights = table.weights[local]
        adj = tuple(tuple(shape.neighbors(i).tolist()) for i in range(k))
        for same in np.split(*_grouped_rows(weights))[1:]:
            part = _block_dependencies(adj, tuple(weights[same[0]].tolist()))
            placed.append((table.members[local[same]].reshape(-1), part))

    den = math.lcm(2, *(d for _, (_, d) in placed))
    # object arrays keep the sums exact integers of any size
    num = cut.astype(object) * (den // 2)
    for vertices, (part, d) in placed:
        scaled = np.array([x * (den // d) for x in part], dtype=object)
        np.add.at(num, vertices, np.tile(scaled, len(vertices) // len(part)))
    return np.array([x / den for x in num.tolist()], dtype=np.float64)


def betweenness_series(b: np.ndarray) -> DistributionSeries:
    """Plain distribution over distinct betweenness values."""
    return DistributionSeries(*np.unique(np.asarray(b, dtype=np.float64),
                                         return_counts=True))
