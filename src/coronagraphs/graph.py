"""Seed graphs, the index layout of a corona level, exact node/edge count
formulas, and the level-m edge list.

A corona step attaches one fresh copy of the seed to every existing node
and joins that node to all vertices of its copy.  Iterating from a seed on
n nodes yields n*(n+1)**m nodes after m steps, so materialization is capped
while the count formulas stay exact at any depth.

The index layout fixes where every node lands, and the ``BirthStep``s of
``level_table`` are its one reader: the nodes of a level keep their ids at every later step,
and the copy born at step t on host h is the n nodes from N_{t-1} + h*n,
in seed order, joined to the rest only through h, where N_{t-1} =
n*(n+1)**(t-1) is the node count before the step.  So level m is read off
the seed and m alone: ``edge_list_chunks`` streams its edge list,
``CoronaPlan`` gives its degrees, and ``structural`` its blocks, with no
graph built.  ``corona_iterate`` builds the CSR, for the dense oracle and
the tests, from the seed's edges and each step's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

U128_MAX = (1 << 128) - 1
DEFAULT_NODE_CAP = 2_000_000
MAX_NODES = (1 << 31) - 1  # node ids are int32, and so is a node count (largest id + 1)


class CountOverflowError(OverflowError):
    """A checked count left the 128-bit unsigned range."""


class CapExceededError(RuntimeError):
    """Materializing the graph would exceed the configured node cap."""


class EdgeListError(ValueError):
    """Malformed edge-list file."""


def _checked(value: int, what: str = "count") -> int:
    if value < 0 or value > U128_MAX:
        raise CountOverflowError(f"{what} outside checked 128-bit range")
    return value


def _check_ids(nodes: int, what: str) -> int:
    """Refuse a graph whose node ids would not fit in int32."""
    if nodes > MAX_NODES:
        raise CapExceededError(
            f"{what} has {nodes} nodes, but node ids are 32-bit: at most {MAX_NODES} fit")
    return nodes


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph in CSR form.

    ``offsets`` has length node_count+1; ``targets`` holds the sorted
    neighbor list of node u in ``targets[offsets[u]:offsets[u+1]]``.  Both
    directions of every edge are stored, so ``len(targets) == 2*edge_count``.
    Node ids are int32, as a graph has at most ``MAX_NODES`` nodes; the
    offsets are int64, as the arc count can pass 2**31 well under that.
    """

    offsets: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if self.offsets.dtype != np.int64 or self.targets.dtype != np.int32:
            raise TypeError("a Graph holds int64 offsets and int32 targets, not "
                            f"{self.offsets.dtype} and {self.targets.dtype}")
        self.offsets.setflags(write=False)
        self.targets.setflags(write=False)

    @property
    def node_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def edge_count(self) -> int:
        return len(self.targets) // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def neighbors(self, u: int) -> np.ndarray:
        return self.targets[self.offsets[u]:self.offsets[u + 1]]

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "Graph":
        """Build and validate a graph from undirected edge pairs.

        Rejects self-loops, duplicate undirected pairs, and out-of-range
        endpoints.  Isolated nodes are fine; they simply have empty rows.
        """
        if node_count < 0:
            raise ValueError("node_count must be nonnegative")
        _check_ids(node_count, "the graph")
        try:
            uv = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                            dtype=np.int64).reshape(-1, 2)
        except OverflowError:   # node ids are below MAX_NODES
            raise ValueError("edge endpoint out of range") from None
        if uv.size:
            if uv.min() < 0 or uv.max() >= node_count:
                raise ValueError("edge endpoint out of range")
            if np.any(uv[:, 0] == uv[:, 1]):
                raise ValueError("self-loops are not allowed")
        # each arc u->v as one key u*n+v: one sort orders the rows and their targets
        key = np.concatenate((uv[:, 0] * node_count + uv[:, 1],
                              uv[:, 1] * node_count + uv[:, 0]))
        key.sort()
        # repeats sit in equal adjacent keys; np.unique imports numpy.ma on numpy>=2.3
        if (key[1:] == key[:-1]).any():
            raise ValueError("duplicate undirected edge")
        offsets = np.searchsorted(key, np.arange(node_count + 1) * node_count)
        key %= node_count
        return cls(offsets=offsets, targets=key.astype(np.int32))


# ---------------------------------------------------------------------------
# builtin seed families


def complete_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError("complete graph needs k >= 1")
    return Graph.from_edges(k, np.column_stack(np.triu_indices(k, 1)))


def path_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError("path graph needs k >= 1")
    return Graph.from_edges(k, np.column_stack((np.arange(k - 1), np.arange(1, k))))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle graph needs k >= 3")
    return Graph.from_edges(k, np.column_stack((np.arange(k), np.roll(np.arange(k), -1))))


def star_graph(k: int) -> Graph:
    """Star on k total vertices: node 0 is the center, nodes 1..k-1 leaves."""
    if k < 3:
        raise ValueError("star graph needs k >= 3")
    return Graph.from_edges(k, np.column_stack((np.zeros(k - 1, np.int64), np.arange(1, k))))


# each family's builder and its edge count on k nodes
_BUILDERS = {
    "complete": (complete_graph, lambda k: k * (k - 1) // 2),
    "path": (path_graph, lambda k: k - 1),
    "cycle": (cycle_graph, lambda k: k),
    "star": (star_graph, lambda k: k - 1),
}


def _check_seed(node_cap: int, nodes: int, edges: int = 0) -> None:
    """Refuse a seed before it is built: its nodes, and its edges (a builtin
    seed's predicted count, a file seed's data lines), are each bounded by
    the node cap."""
    for count, what in ((nodes, "nodes"), (edges, "edges")):
        if count > node_cap:
            raise CapExceededError(
                f"the seed has {count} {what}, over the cap of {node_cap}")
    _check_ids(nodes, "the seed")


@dataclass(frozen=True)
class SeedDescriptor:
    """A resolved seed graph plus the kind:param string it came from.

    ``connected`` is a warning flag: disconnected seeds are accepted (they
    generate disconnected corona graphs) but most analyses require
    connectivity.  Every builtin family is connected by construction; only
    a file seed takes a component pass.
    """

    kind: str
    param: str
    graph: Graph
    connected: bool

    @classmethod
    def from_spec(cls, spec: str, node_cap: int = DEFAULT_NODE_CAP) -> "SeedDescriptor":
        """Parse a ``kind:param`` seed spec, e.g. ``complete:3`` or ``file:g.edges``.

        A seed on more than ``node_cap`` nodes or edges is refused before
        it is built.
        """
        kind, sep, param = spec.partition(":")
        if not sep or not param:
            raise ValueError(f"seed spec must be kind:param, got {spec!r}")
        if kind == "file":
            g = read_edge_list(param, node_cap)
            connected = connected_component_count(g) == 1
        elif kind in _BUILDERS:
            try:
                k = int(param)
            except ValueError:
                raise ValueError(f"seed parameter must be an integer, got {param!r}")
            build, edges = _BUILDERS[kind]
            _check_seed(node_cap, k, edges(k))
            g, connected = build(k), True
        else:
            raise ValueError(
                f"unknown seed kind {kind!r}; expected one of "
                f"{sorted(_BUILDERS)} or 'file'"
            )
        return cls(kind=kind, param=param, graph=g, connected=connected)


# ---------------------------------------------------------------------------
# counts


def _power(n: int, m: int, what: str) -> int:
    """(n+1)**m, which is at least 2**(m*(bit_length(n+1) - 1)): refused as
    ``what`` out of range, with no big-integer power, once that reaches 2**129."""
    if m * ((n + 1).bit_length() - 1) > 128:
        raise CountOverflowError(f"{what} outside checked 128-bit range")
    return (n + 1) ** m


def node_count_formula(n: int, m: int) -> int:
    """Exact node count n*(n+1)**m of the level-m corona graph."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return _checked(n * _power(n, m, "node count"), "node count")


def edge_count_formula(n: int, e: int, m: int) -> int:
    """Exact edge count e + (e + n)*((n+1)**m - 1) of the level-m corona graph."""
    if n < 1 or e < 0 or m < 0:
        raise ValueError("need n >= 1, e >= 0, m >= 0")
    return _checked(e + (e + n) * (_power(n, m, "edge count") - 1), "edge count")


@dataclass(frozen=True)
class CoronaPlan:
    """Seed descriptor, iteration count, and the predicted exact sizes."""

    seed: SeedDescriptor
    m: int
    node_cap: int = DEFAULT_NODE_CAP

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if self.seed.graph.node_count < 1:
            raise ValueError("seed must be nonempty")

    @property
    def n(self) -> int:
        return self.seed.graph.node_count

    @property
    def predicted_nodes(self) -> int:
        return node_count_formula(self.n, self.m)

    @property
    def predicted_edges(self) -> int:
        return edge_count_formula(self.n, self.seed.graph.edge_count, self.m)

    def check_cap(self) -> None:
        if self.predicted_nodes > self.node_cap:
            raise CapExceededError(
                f"level {self.m} has {self.predicted_nodes} nodes, "
                f"over the cap of {self.node_cap}"
            )
        _check_ids(self.predicted_nodes, f"level {self.m}")

    # the level's own sizes, so that a plan is measured wherever a Graph is
    @property
    def node_count(self) -> int:
        return self.predicted_nodes

    @property
    def edge_count(self) -> int:
        return self.predicted_edges

    @property
    def degrees(self) -> np.ndarray:
        """Node degrees of level m in node order, after the cap check: a
        node born at step t has its seed degree, 1 for its host if t >= 1,
        and n for its copy at each of the m - t later steps."""
        self.check_cap()
        n, m, seed = self.n, self.m, self.seed.graph.degrees
        degrees = np.empty(self.node_count, dtype=np.int64)
        for t, step in enumerate(level_table(n, m)):
            degrees[step.copies()] = seed + (n * (m - t) + (t > 0))
        return degrees


class BirthStep(NamedTuple):
    """The nodes born at one step of a level: ``blocks`` copies of the
    n-node seed from node ``first`` on.  The copy on host h is the nodes
    first + h*n + 0..n-1 in seed order, joined to the rest only through h;
    step 0 is the seed itself, one block with no host."""

    first: int
    blocks: int
    n: int

    @property
    def stop(self) -> int:
        """One past the step's last node."""
        return self.first + self.blocks * self.n

    def bases(self, hosts):
        """The first node of the copy on each of ``hosts``."""
        return self.first + self.n * hosts

    def copies(self, hosts=None) -> np.ndarray:
        """The nodes of the copy on each of ``hosts`` (every host by
        default), one row per host in seed order."""
        hosts = np.arange(self.blocks) if hosts is None else np.asarray(hosts)
        return self.bases(hosts)[..., None] + np.arange(self.n)


def level_table(n: int, m: int) -> list[BirthStep]:
    """The birth steps 0..m of level m: the index layout.

    Step 0 is the seed, nodes 0..n-1.  Step t >= 1 holds the N_{t-1} =
    n*(n+1)**(t-1) copies born on the N_{t-1} older nodes, from N_{t-1} on.
    """
    table, N = [BirthStep(0, 1, n)], n
    for _ in range(m):
        table.append(BirthStep(N, N, n))
        N += N * n
    return table


def _step_edges(seed: Graph, step: BirthStep) -> np.ndarray:
    """The edges of one step's copies, as one (k, 2) array: each host to
    its copy, and the copy's seed edges."""
    su, sv = edge_ends(seed)
    copies = step.copies()
    return np.column_stack((
        np.concatenate((np.repeat(np.arange(step.blocks), step.n), copies[:, su].ravel())),
        np.concatenate((copies.ravel(), copies[:, sv].ravel()))))


def corona_product(g: Graph, seed: Graph) -> Graph:
    """One corona step: attach a seed copy to every node of g, as the
    ``BirthStep`` from g's node count N on, with N hosts."""
    n = seed.node_count
    if n < 1:
        raise ValueError("seed must be nonempty")
    N = g.node_count
    _check_ids(N * (1 + n), "the corona product")
    return Graph.from_edges(N * (1 + n), np.concatenate(
        (np.column_stack(edge_ends(g)), _step_edges(seed, BirthStep(N, N, n)))))


def corona_iterate(plan: CoronaPlan) -> Graph:
    """Materialize the level-m corona graph: the seed's edges and every
    step's, read off ``level_table``, in one ``Graph.from_edges``."""
    nodes, edges = stream_counts(plan)
    seed = plan.seed.graph
    steps = level_table(plan.n, plan.m)[1:]
    g = Graph.from_edges(nodes, np.concatenate(
        [np.column_stack(edge_ends(seed)), *(_step_edges(seed, step) for step in steps)]))
    if g.edge_count != edges:
        raise RuntimeError(f"the steps gave {g.edge_count} edges; the plan predicts {edges}")
    return g


# ---------------------------------------------------------------------------
# traversal helpers


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Hop distances from source; unreachable nodes get -1."""
    dist = np.full(g.node_count, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while len(frontier):
        _, nbrs = expand_frontier(g, frontier)
        fresh = np.sort(nbrs[dist[nbrs] < 0])
        if len(fresh) == 0:
            break
        frontier = fresh[np.insert(fresh[1:] != fresh[:-1], 0, True)]
        d += 1
        dist[frontier] = d
    return dist


def expand_frontier(g: Graph, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All CSR rows of ``frontier`` at once: (sources repeated, their targets)."""
    first = g.offsets[frontier]
    counts = g.offsets[frontier + 1] - first
    ends = np.cumsum(counts)
    # edge i of the output sits at position i - (row start in the output)
    # of its row, which begins at ``first`` in ``targets``
    total = ends[-1] if len(ends) else 0
    idx = np.arange(total) + np.repeat(first - (ends - counts), counts)
    return np.repeat(frontier, counts), g.targets[idx]


def hook_forest(node_count: int, u: np.ndarray, v: np.ndarray):
    """Components of the graph with edges u[i]-v[i], by min-label hooking.

    Each round hooks every tree root to the smallest root across an edge,
    then jumps pointers until each node points at its root.  Once no edge
    joins two trees, each tree is one component.  An edge inside a tree
    stays inside it, so each round keeps only the edges that cross.
    Returns (label, tree_u, tree_v): ``label[x]`` is the smallest node of
    x's component, and the edges tree_u[j]-tree_v[j], one per hook, form a
    spanning forest.
    """
    label = np.arange(node_count, dtype=u.dtype)
    tree_u, tree_v = [u[:0]], [v[:0]]
    while True:
        lu, lv = label[u], label[v]
        cross = lu != lv
        if not cross.any():
            return label, np.concatenate(tree_u), np.concatenate(tree_v)
        u, v, lu, lv = u[cross], v[cross], lu[cross], lv[cross]
        low, high = np.minimum(lu, lv), np.maximum(lu, lv, out=lu)
        del cross, lv
        np.minimum.at(label, high, low)
        # one edge that carried each root's hook
        won = np.flatnonzero(label[high] == low)
        hook = np.full(node_count, -1, dtype=np.int64)
        hook[high[won]] = won
        hook = hook[hook >= 0]
        tree_u.append(u[hook])
        tree_v.append(v[hook])
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]


def edge_ends(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Each edge of g once, smaller end first, in CSR order, as int32 ids."""
    src = np.repeat(np.arange(g.node_count, dtype=np.int32), g.degrees)
    once = src < g.targets
    return src[once], g.targets[once]


def connected_component_count(g: Graph) -> int:
    """Component count of g: the roots left by ``hook_forest``."""
    label = hook_forest(g.node_count, *edge_ends(g))[0]
    return int(np.count_nonzero(label == np.arange(g.node_count)))


# ---------------------------------------------------------------------------
# edge-list files


_LINE_ENDS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"   # str.splitlines' line ends besides "\n"


def _edge_file_lines(text: str) -> tuple[list[tuple[int, str]], np.ndarray, bytes]:
    """The lines of an edge-list file's ``text``, found in array passes over
    its bytes: those of spaces, tabs and two runs of at most 18 digits, by
    0-based number; the others, read as text, as (line number, line); and
    the bytes with the lines read as text blanked out."""
    if any(end in text for end in _LINE_ENDS):
        text = "\n".join(text.splitlines())
    buffer = bytearray(text, "utf-8")
    buffer += b"\n"   # each line ends in "\n"
    del text
    data = np.frombuffer(buffer, np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    # as text: a line with other bytes, one digit run or three or more, or a long run
    digit = (data - ord("0")) < 10
    other = data != ord(" ")
    other &= data != ord("\t")
    other &= data != ord("\n")
    other &= ~digit
    as_text = np.zeros(len(ends), bool)
    as_text[np.searchsorted(ends, np.flatnonzero(other))] = True
    del other
    lead, change = digit[0], digit[1:] != digit[:-1]
    del digit
    runs = np.flatnonzero(change)
    del change
    runs += 1
    if lead:
        runs = np.concatenate(([0], runs))
    runs = runs.reshape(-1, 2)   # [start, end) of each digit run
    per_line = np.diff(np.searchsorted(runs[:, 0], ends), prepend=0)
    as_text |= (per_line != 0) & (per_line != 2)
    as_text[np.searchsorted(ends, runs[runs[:, 1] - runs[:, 0] > 18, 0])] = True
    del runs
    lines = []
    for i in np.flatnonzero(as_text).tolist():
        start = ends[i - 1] + 1 if i else 0
        lines.append((i + 1, data[start:ends[i]].tobytes().decode()))
        data[start:ends[i]] = ord(" ")
    return lines, np.flatnonzero((per_line == 2) & ~as_text), data.tobytes()


def read_edge_list(path, node_cap: int = DEFAULT_NODE_CAP) -> Graph:
    """Read the plain edge-list format.

    Optional first line ``# n=<int>`` fixes the node count (needed for
    isolated nodes); other ``#`` lines are comments.  Each data line is
    ``u v`` with 0-based endpoints, u != v, and no repeated undirected pair.
    More data lines than ``node_cap`` are refused before any is parsed, a
    header count over it as soon as it is read, and a largest endpoint
    over it before the graph is built; past those, the first line at fault
    is named.  Every file is read in array passes, save the lines that
    ``_edge_file_lines`` leaves as text, whose edges join the others' int64
    pairs in one concatenation.
    """
    lines, paired, clean = _edge_file_lines(Path(path).read_text(encoding="utf-8"))
    data_lines = [(lineno, raw) for lineno, raw in lines
                  if (line := raw.strip()) and not line.startswith("#")]
    _check_seed(node_cap, 0, len(paired) + len(data_lines))
    # the header is a comment above every data line: the first is line ``first`` + 1
    first = min(paired[:1].tolist() + [lineno - 1 for lineno, _ in data_lines[:1]], default=None)
    node_count = None
    for lineno, raw in lines:
        if first is not None and lineno > first:
            break
        body = raw.strip()[1:].strip()
        if body.startswith("n=") and node_count is None:
            try:
                node_count = int(body[2:])
            except ValueError:
                raise EdgeListError(f"line {lineno}: bad node count {body!r}")
            _check_seed(node_cap, node_count)
    # (np.fromstring reads bytes of whitespace alone as one 0)
    pairs = np.fromstring(clean, np.int64, sep=" ") if len(paired) else np.zeros(0, np.int64)
    pairs = pairs.reshape(len(paired), 2)
    del clean
    loops = paired[pairs[:, 0] == pairs[:, 1]]
    edges = []
    for lineno, raw in data_lines:
        if len(loops) and loops[0] < lineno:
            break
        parts = raw.split()
        if len(parts) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: non-integer endpoint in {raw!r}")
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at node {u}")
        edges.append((u, v))
    if len(loops):
        u = pairs[np.searchsorted(paired, loops[0]), 0]
        raise EdgeListError(f"line {loops[0] + 1}: self-loop at node {u}")
    if node_count is None:
        node_count = 1 + max(-1, int(pairs.max(initial=-1)), *(max(u, v) for u, v in edges))
        _check_seed(node_cap, node_count)
    try:   # an endpoint past int64: from_edges refuses the list after its node_count checks
        pairs = np.concatenate((pairs, np.array(edges, np.int64))) if edges else pairs
    except OverflowError:
        pairs = edges
    try:
        return Graph.from_edges(node_count, pairs)
    except ValueError as exc:
        raise EdgeListError(str(exc)) from exc


EDGE_CHUNK_ROWS = 1 << 14
_GROUP = 10_000  # endpoints are printed 4 decimal digits at a time


@functools.cache
def _group_ascii() -> np.ndarray:
    """The 4 ASCII bytes of every 4-digit group, one uint32 per group value.

    Rows 0-9999 are zero-padded ("0042"), for groups below a number's
    leading group.  A leading group is NUL-padded instead, and the NULs are
    deleted once a chunk is laid out: rows 10000-19999 serve groups above
    the units (value 0 is all NUL, a group wholly above the number) and
    rows 20000-29999 the units group (value 0 prints as "0").
    """
    value = np.arange(_GROUP)[:, None]
    padded = (value // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    width = 1 + (value >= 10) + (value >= 100) + (value >= 1000)
    units = np.where(np.arange(4) >= 4 - width, padded, 0)
    above = np.concatenate((np.zeros((1, 4), np.uint8), units[1:]))
    return np.concatenate((padded, above, units)).view(np.uint32).ravel()


def digit_groups(values: np.ndarray, groups: int) -> list[np.ndarray]:
    """The decimal digits of non-negative integer ``values`` below
    10**(4 * groups), 4 ASCII bytes to a uint32 cell, one array per group,
    the leading group first; a group above a value's leading digit is NUL."""
    table = _group_ascii()
    cells = []
    rest = values
    for i in range(groups):   # the units group first
        quot = rest // _GROUP
        low = rest - quot * _GROUP
        low += (quot == 0) * np.uint32(_GROUP * (2 if i == 0 else 1))
        cells.append(table.take(low))
        rest = quot
    return cells[::-1]


def cells_text(cells: np.ndarray) -> str:
    """The text of a NUL-padded byte array: its bytes in order, NULs deleted."""
    return cells.tobytes().translate(None, b"\0").decode()


_SEPARATORS = np.frombuffer(b" \0\0\0\n\0\0\0", dtype=np.uint32)


def _edge_lines(uv: np.ndarray) -> str:
    """``u v`` lines for a nonempty (k, 2) block of endpoints in [0, 2**32).

    Each endpoint, divided in uint32, becomes a row of NUL-padded 4-digit
    groups in one uint32 matrix, followed by its separator; one
    ``translate`` then deletes the padding.
    """
    groups = -(-len(str(int(uv.max()))) // 4)
    cells = np.empty(uv.shape + (groups + 1,), dtype=np.uint32)
    for i, group in enumerate(digit_groups(uv.astype(np.uint32, copy=False), groups)):
        cells[:, :, i] = group
    cells[:, :, groups] = _SEPARATORS
    return cells_text(cells)


def stream_counts(plan: CoronaPlan) -> tuple[int, int]:
    """The node and edge counts of level m read off ``level_table``, after
    the cap check; a table that disagrees with the plan's count formulas
    raises before any edge is written.  Every block of step t has e +
    (m-t)*n*n larger neighbours: seed edges upward, n copy nodes per later step."""
    plan.check_cap()
    n, e, m = plan.n, plan.seed.graph.edge_count, plan.m
    table = level_table(n, m)
    nodes = table[-1].stop
    edges = sum(step.blocks * (e + (m - t) * n * n) for t, step in enumerate(table))
    if (nodes, edges) != (plan.predicted_nodes, plan.predicted_edges):
        raise RuntimeError(
            f"the level table gives {nodes} nodes and {edges} edges; "
            f"the plan predicts {plan.predicted_nodes} and {plan.predicted_edges}")
    return nodes, edges


def _template(seed: Graph, later: list[BirthStep]):
    """One block's rows of larger neighbours, the block based at 0: the row
    offsets, then each arc's (row, constant, weight), whose target from a
    block based at b is constant + weight*b.

    Row j holds its seed neighbours above it (constant k, weight 1), then
    its own copy at each step of ``later``, that on host b+j (constants the
    copy on host j, weight n).
    """
    n = seed.node_count
    up_src, up_dst = edge_ends(seed)
    up = np.bincount(up_src, minlength=n)
    lengths = up + len(later) * n
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    local = np.arange(n, dtype=np.uint32)
    row = np.repeat(local, lengths)
    is_seed = np.arange(len(row)) - offsets[row] < up[row]
    const = np.empty(len(row), dtype=np.uint32)
    const[is_seed] = up_dst
    if later:
        const[~is_seed] = np.stack([step.copies(local) for step in later], axis=1).ravel()
    weight = np.where(is_seed, np.uint32(1), np.uint32(n))
    return offsets, row, const, weight


def _spans(offsets: np.ndarray) -> list[tuple[int, int]]:
    """Arc ranges of a template of about EDGE_CHUNK_ROWS arcs each, cut at
    row starts; a row longer than a chunk is a range of its own."""
    total = int(offsets[-1])
    if total <= EDGE_CHUNK_ROWS:
        return [(0, total)]
    rows = np.concatenate((np.searchsorted(offsets, range(0, total, EDGE_CHUNK_ROWS)),
                           np.flatnonzero(np.diff(offsets) > EDGE_CHUNK_ROWS)))
    at = sorted(set(offsets[rows].tolist()) | {total})
    return list(zip(at, at[1:]))


def edge_list_chunks(seed: Graph, m: int):
    """The edge-list text of the level-m corona of ``seed`` in pieces: the
    ``# n=`` header, then sorted edges; m=0 writes ``seed`` itself.

    No graph is built: by the layout of ``level_table``, row u of level m
    lists its larger neighbours as its block's seed edges upward, then its
    own copy at each later step, so each birth step's rows are one block
    template tiled over the step's block bases.  A piece holds whole blocks
    of about EDGE_CHUNK_ROWS edges, or one block's rows of about as many.
    """
    n = seed.node_count
    table = level_table(n, m)
    yield f"# n={table[-1].stop}\n"
    # glibc lifts its mmap threshold to the size of a freed mmap-ed block, and
    # its heap trim threshold to twice that.  One untouched block of 64 bytes
    # per chunk edge, freed here, lets a chunk's temporaries (about 100 bytes
    # an edge) reuse the heap instead of faulting in fresh pages: complete:3
    # m=9 takes about 1,000 minor faults, not 25,000
    np.empty(64 * EDGE_CHUNK_ROWS, dtype=np.uint8)
    for t, step in enumerate(table):
        offsets, row, const, weight = _template(seed, table[t + 1:])
        arcs = int(offsets[-1])
        if not arcs:
            continue
        per = max(1, EDGE_CHUNK_ROWS // arcs)
        spans = _spans(offsets)
        for a in range(0, step.blocks, per):
            bases = step.bases(np.arange(a, min(a + per, step.blocks), dtype=np.uint32)[:, None])
            for lo, hi in spans:
                uv = np.empty((len(bases), hi - lo, 2), dtype=np.uint32)
                np.add(bases, row[lo:hi], out=uv[:, :, 0])
                np.multiply(bases, weight[lo:hi], out=uv[:, :, 1])
                uv[:, :, 1] += const[lo:hi]
                yield _edge_lines(uv.reshape(-1, 2))


def write_edge_list(seed: Graph, m: int, path) -> None:
    """Write the level-m edge list to ``path``: n header plus lexicographically
    sorted edges."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(edge_list_chunks(seed, m))
