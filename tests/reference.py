"""Slow, obviously-correct reference copies of code the package replaced,
and the references that only the tests need.

The package fills the corona CSR rows directly from the index layout and
formats the edge list with a chunked numpy serializer, which reads each
node range's edges straight from the CSR rows.  These are the plain
versions they replace: build the whole edge list with ``edge_array`` and
let ``Graph.from_edges`` sort and validate it, and format one f-string per
edge.  The tests assert that both paths give identical arrays and
identical bytes.

The package also runs one quadratic step for all three spectrum kinds.  The
three per-kind steps it replaces are kept below, each with its own
discriminant as first written; the tests assert that both give the same
multiplicities and values to rounding.  The star seeds ran on a driver of
their own, with their own exact seed spectra; it is kept below too, and the
tests assert the same entries and the same discrepancy records.

The package computes the diameter and betweenness block by block over the
block-cut tree.  The one-source-at-a-time diameter, Brandes betweenness and
clique path count are kept below, with the cumulative-sum frontier
expansion they ran on, and so is the whole-graph diameter BFS that took 64
sources per machine word; the tests assert the same expansions, the same
diameters and betweenness equal to rounding.  On a complete seed every
shortest path is unique, so the integer path count must equal the
package's betweenness exactly.  ``brute_betweenness`` counts paths pair by
pair with exact Fractions, the one reference that is exact on tied paths
too; the tests assert the package's betweenness bit for bit against it.

The package counts components in one vectorized pass over the CSR edges.
The loop it replaces, one BFS per component, is kept below; the tests
assert the same counts.

The package runs each corona step over arrays: every entry's roots in one
pass, the arrowhead eigenproblems of a level stacked into batched
``eigvalsh`` calls, and one stable sort and vectorized join.  The
per-entry step it replaces is kept below with the same join rule applied
pair by pair (``join_exact``), one arrowhead ``eigvalsh`` per entry, the
printed star cubics and its seed rules; the tests assert equal entries and
equal discrepancy records, with ``==``.  The package keeps its records as
a table of array columns; the reference keeps one ``CubicDiscrepancy``
object per record, whose ``row()`` is laid out as one row of the table's
``columns()``.  The star's trigonometric solution of its secular cubic,
which the arrowhead replaced, is kept too (``star_cubic_roots``, and the
star driver built on it); the tests assert the arrowhead roots equal to it
within 1e-12 relative.

The number of main eigenvalues, whose eigenspaces are not orthogonal to
the all-ones vector, is the dimension of the Krylov space of M and 1, the
rank of the walk matrix [1, M1, ..., M^(n-1)1] (for A, Rowlinson 2007, "The
main eigenvalues of a graph: a survey"); ``walk_matrix_rank`` computes it
exactly, with Fractions.

The package writes every table the commands print through one chunked row
writer over array columns.  The per-line writers that ``stats --format
csv`` used, one f-string per node or per series point, are kept below; the
tests assert the same bytes.

The level-m degree distribution the paper predicts from the seed's degree
sequence is kept below too; the tests assert it equals the measured
histogram exactly.

The package reads an edge-list file in array passes over its bytes, and
only its odd lines one by one.  The reader it replaces, one line at a time,
is kept below; the tests assert the same graph, or the same error, on
generated files.
"""

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from coronagraphs import oracle
from coronagraphs.distributions import DistributionSeries
from coronagraphs.graph import EdgeListError, Graph, _check_seed, _checked, bfs_distances
from coronagraphs.spectral import (
    ADJACENCY,
    COALESCE_REL_TOL,
    COINCIDE_ULPS,
    FORMULA_TOL,
    LAPLACIAN,
    SIGNLESS,
    Spectrum,
    make_spectrum,
    regular_degree,
    star_size,
)
from coronagraphs.structural import DisconnectedGraphError


class NonUniqueShortestPathError(ValueError):
    """Clique path counting met a tied shortest path (seed was no clique)."""


def edge_array(g: Graph) -> np.ndarray:
    """(edge_count, 2) array with u < v, sorted lexicographically."""
    src = np.repeat(np.arange(g.node_count, dtype=np.int64), g.degrees)
    keep = src < g.targets
    return np.column_stack((src[keep], g.targets[keep]))


def corona_product(g: Graph, seed: Graph) -> Graph:
    """One corona step through an explicit edge list."""
    n = seed.node_count
    N = g.node_count
    seed_e = edge_array(seed)
    copies = np.tile(seed_e, (N, 1))
    shift = (N + np.repeat(np.arange(N, dtype=np.int64), len(seed_e)) * n)[:, None]
    joins = np.column_stack((
        np.repeat(np.arange(N, dtype=np.int64), n),
        N + np.arange(N * n, dtype=np.int64),
    ))
    edges = np.concatenate((edge_array(g), copies + shift, joins), axis=0)
    return Graph.from_edges(N * (1 + n), edges)


def corona_iterate(seed: Graph, m: int) -> Graph:
    g = seed
    for _ in range(m):
        g = corona_product(g, seed)
    return g


def edge_list_text(g: Graph) -> str:
    """The edge-list file contents, one f-string per edge."""
    lines = [f"# n={g.node_count}"]
    lines += [f"{u} {v}" for u, v in edge_array(g)]
    return "\n".join(lines) + "\n"


def adjacency_step_regular(s: Spectrum, seed: Spectrum, n: int, r: int) -> Spectrum:
    """lam spawns (lam + r +- sqrt((r-lam)^2 + 4n))/2; the seed less r is appended."""
    total = s.total_multiplicity
    pairs = []
    for lam, w in s.entries:
        disc = math.sqrt((r - lam) ** 2 + 4 * n)
        pairs.append(((lam + r + disc) / 2.0, w))
        pairs.append(((lam + r - disc) / 2.0, w))
    for mu, w in drop_one(seed.entries, float(r)):
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
    for nu, w in drop_one(seed.entries, 0.0):
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
    for q, w in drop_one(seed.entries, float(2 * r)):
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


def coalesce(pairs) -> tuple[tuple[float, int], ...]:
    """Merge values within the relative tolerance, multiplicity-weighted."""
    out: list[list] = []
    for v, w in sorted(pairs):
        if out:
            pv, pw = out[-1]
            if abs(v - pv) <= COALESCE_REL_TOL * max(1.0, abs(v), abs(pv)):
                out[-1] = [(pv * pw + v * w) / (pw + w), pw + w]
                continue
        out.append([float(v), int(w)])
    return tuple((float(v), int(w)) for v, w in out)


def drop_one(entries, value: float) -> list[tuple[float, int]]:
    """Remove a single copy of the entry nearest ``value``."""
    best = min(range(len(entries)), key=lambda i: abs(entries[i][0] - value))
    if abs(entries[best][0] - value) > 1e-6 * max(1.0, abs(value)):
        raise ValueError(f"seed spectrum is missing the expected value {value}")
    out = []
    for i, (v, w) in enumerate(entries):
        w = w - 1 if i == best else w
        if w:
            out.append((v, w))
    return out


def real_cubic_roots(b: float, c: float, d: float) -> tuple[float, float, float]:
    """Trigonometric solution of x^3 + b x^2 + c x + d with three real roots."""
    p = c - b * b / 3.0
    q = (2.0 * b ** 3 - 9.0 * b * c + 27.0 * d) / 27.0
    if p >= 0.0:
        if p <= 1e-9 and abs(q) <= 1e-9:
            t = -b / 3.0
            return (t, t, t)
        raise ValueError("cubic does not have three real roots")
    half = 2.0 * math.sqrt(-p / 3.0)
    arg = -q / (2.0 * (-p / 3.0) ** 1.5)
    if abs(arg) > 1.0 + 1e-9:
        raise ValueError(f"arccos argument {arg} out of range")
    arg = min(1.0, max(-1.0, arg))
    phi = math.acos(arg) / 3.0
    roots = tuple(half * math.cos(phi + 2.0 * math.pi * z / 3.0) - b / 3.0
                  for z in range(3))
    return tuple(sorted(roots))


def star_cubic_coefficients(mu: float, k: int, kind: str):
    """Secular cubic (b, c, d), plus the printed trig pieces for comparison."""
    if kind == ADJACENCY:
        b = -mu
        c = 1.0 - 2.0 * k
        d = (k - 1.0) * (mu - 2.0)
        shift = mu / 3.0
        w = mu * mu + 6.0 * k - 3.0
        printed_num = 2.0 * mu ** 3 + mu * (18.0 - 9.0 * k) + (54.0 * k - 54.0)
    elif kind == SIGNLESS:
        b = -(mu + 2.0 * k + 2.0)
        c = mu * (k + 2.0) + (k + 1.0) ** 2
        d = -(mu * (k + 1.0) + 4.0 * (k - 1.0))
        shift = (mu + 2.0 * k + 2.0) / 3.0
        w = mu * mu + mu * (k - 2.0) + (k + 1.0) ** 2
        ssum = sum((a + 2) * (k - a - 1) for a in range(1, k - 1))
        printed_num = (2.0 * mu ** 3 + (3.0 * k - 6.0) * mu ** 2
                     - 3.0 * (k * k - k - 2.0) * mu + (70.0 * k - 94.0 - 12.0 * ssum))
    else:
        raise ValueError("star cubics exist for adjacency and signless kinds")
    return b, c, d, shift, w, printed_num


@dataclass(frozen=True)
class CubicDiscrepancy:
    """A printed trig formula disagreed with the secular cubic it should solve."""

    kind: str
    k: int
    level: int
    mu: float
    printed_roots: tuple[float, float, float]
    secular_roots: tuple[float, float, float]
    max_delta: float
    note: str = ""

    def row(self) -> tuple:
        """The record as one row of ``Discrepancies.columns()``."""
        return (self.kind, self.k, self.level, self.mu, *self.printed_roots,
                *self.secular_roots, self.max_delta, self.note)


def star_record(mu: float, secular, k: int, kind: str, level: int,
                discrepancies: list | None) -> None:
    """Evaluate the printed trig form for ``mu``; when it misses ``secular``,
    the roots the step spawns, append a record to ``discrepancies``."""
    *_, shift, w, printed_num = star_cubic_coefficients(float(mu), k, kind)
    note = ""
    arg = printed_num / (2.0 * w ** 1.5)
    if abs(arg) > 1.0 + 1e-9:
        note = f"printed-form arccos argument {arg!r} outside [-1, 1]"
    theta = math.acos(min(1.0, max(-1.0, arg)))
    printed = tuple(sorted(
        (2.0 / 3.0) * math.cos((theta + y * math.pi) / 3.0) * math.sqrt(w) + shift
        for y in (0, 2, 4)))

    scale = max(1.0, *(abs(x) for x in secular))
    delta = max(abs(pr - sr) for pr, sr in zip(printed, secular))
    if (delta > FORMULA_TOL * scale or note) and discrepancies is not None:
        discrepancies.append(CubicDiscrepancy(
            kind=kind, k=k, level=level, mu=float(mu),
            printed_roots=printed, secular_roots=tuple(secular),
            max_delta=float(delta), note=note))


def star_cubic_roots(mu: float, k: int, kind: str, *,
                     discrepancies: list | None = None,
                     level: int = 0) -> tuple[float, float, float]:
    """The trig roots of the secular cubic for one mu; printed-form misses go
    to ``discrepancies``."""
    if k < 3:
        raise ValueError("star seeds need k >= 3")
    b, c, d, *_ = star_cubic_coefficients(float(mu), k, kind)
    secular = real_cubic_roots(b, c, d)
    star_record(mu, secular, k, kind, level, discrepancies)
    return secular


def quadratic_roots(n: int, top: int, pole: int):
    """x -> the roots of (lambda - x - top)(lambda - pole) = n, upper first:
    the one of larger magnitude by the formula, the other as the product
    pole·x + top·pole - n over it; the level is unused."""
    def roots(x: float, level: int = 0) -> tuple[float, float]:
        s, d = x + (top + pole), x - (pole - top)
        disc = math.sqrt(d * d + 4 * n)
        big = (s + disc) / 2.0 if s >= 0 else (s - disc) / 2.0
        small = (pole * x + (top * pole - n)) / big
        return (big, small) if s >= 0 else (small, big)
    return roots


def arrowhead_roots(top: int, poles, weights):
    """x -> the eigenvalues of the one arrowhead [[x + top, sqrt(w)^T],
    [sqrt(w), diag(poles)]]; the level is unused."""
    def roots(x: float, level: int = 0) -> tuple[float, ...]:
        a = np.diag([x + top, *poles])
        a[0, 1:] = a[1:, 0] = [math.sqrt(w) for w in weights]
        return tuple(np.linalg.eigvalsh(a).tolist())
    return roots


def star_arrowhead(k: int, kind: str):
    """(top, poles, weights) of the star on k nodes: the poles are its main
    values -+sqrt(k-1) in A, on (-+sqrt(k-1), 1, ..., 1), and 0 and k in Q,
    on (1, -1, ..., -1) and (k-1, 1, ..., 1), shifted by 1 in Q; each
    weight is |v·1|^2 / |v|^2."""
    if kind == ADJACENCY:
        root = math.sqrt(k - 1.0)
        return 0, [-root, root], [(root - 1.0) ** 2 / 2.0, (root + 1.0) ** 2 / 2.0]
    return k, [1.0, k + 1.0], [(k - 2.0) ** 2 / k, 4.0 * (k - 1.0) / k]


def scalar_step_rule(seed_graph: Graph, kind: str, discrepancies: list | None = None):
    """(level-0 entries, roots, drop) of the seed's per-entry step."""
    n, r = seed_graph.node_count, regular_degree(seed_graph)
    top, shift = (0, 0) if kind == ADJACENCY else (n, 1)
    k = star_size(seed_graph)
    if k is not None and kind != LAPLACIAN:
        if kind == ADJACENCY:
            root = math.sqrt(k - 1.0)
            seed = coalesce([(-root, 1), (0.0, k - 2), (root, 1)])
            dropped = (-root, root)
        else:
            seed = coalesce([(0.0, 1), (1.0, k - 2), (float(k), 1)])
            dropped = (0.0, float(k))
        arrowhead = arrowhead_roots(*star_arrowhead(k, kind))

        def star(x: float, level: int) -> tuple[float, ...]:
            secular = arrowhead(x)
            star_record(x, secular, k, kind, level, discrepancies)
            return secular
        return seed, star, dropped
    mat = oracle.build_matrix(seed_graph, kind)
    vals = list(map(float, oracle.sym_eigenvalues(mat)))
    if kind == LAPLACIAN:
        vals[0] = 0.0
    elif r is not None:
        vals[-1] = float(r if kind == ADJACENCY else 2 * r)
    seed = coalesce([(v, 1) for v in vals])
    if kind == LAPLACIAN or r is not None:
        theta = 0 if kind == LAPLACIAN else r if kind == ADJACENCY else 2 * r
        return (seed, quadratic_roots(n, top, shift + theta),
                (float(theta),))
    # one weight |P·1|^2 per coalesced value, from consecutive eigh columns
    ones = oracle.sym_eigensystem(mat)[1].sum(axis=0).tolist()
    main, first = [], 0
    for v, w in seed:
        weight = sum(c * c for c in ones[first:first + w])
        first += w
        if weight > 1e-10 * n:
            main.append((v, weight))
    roots = arrowhead_roots(top, [v + shift for v, _ in main], [w for _, w in main])
    return seed, roots, tuple(v for v, _ in main)


def join_exact(runs, tail) -> tuple[tuple[float, int], ...]:
    """Sorted (value, multiplicity) entries of the ``runs``, one ascending
    list of pairs per branch, and the ``tail`` pairs, joined pair by pair as
    one eigenvalue where the corona step joins them: equal floats, and a
    tail value within ``COINCIDE_ULPS`` ulps of max(1, |a|, |b|) of a
    neighbour.  Equal values sort branch by branch, then the tail.  A joined
    run takes its multiplicity-weighted mean, summed in order."""
    items = [(v, w, False) for run in runs for v, w in run]
    items += [(v, w, True) for v, w in tail]
    # sorted is stable: equal values keep their order above
    items = sorted(items, key=lambda item: item[0])
    groups: list[list] = []
    for i, (v, w, is_tail) in enumerate(items):
        if i:
            a, _, a_tail = items[i - 1]
            ulps = COINCIDE_ULPS * math.ulp(max(1.0, abs(a), abs(v)))
            if v == a or ((is_tail or a_tail) and v - a <= ulps):
                groups[-1].append((v, w))
                continue
        groups.append([(v, w)])
    out = []
    for group in groups:
        if len(group) == 1:
            out.append(group[0])
            continue
        total, weight = group[0][0] * group[0][1], group[0][1]
        for v, w in group[1:]:
            total, weight = total + v * w, weight + w
        out.append((total / weight, weight))
    return tuple(out)


def scalar_corona_step(entries, level: int, kind: str, seed, roots, drop):
    """Level ``level`` entries from the previous level's, one entry at a time."""
    total = sum(w for _, w in entries)
    spawned = [sorted(roots(x, level)) for x, _ in entries]
    runs = [[(row[j], w) for row, (_, w) in zip(spawned, entries)]
            for j in range(len(spawned[0]))]
    appended = seed
    for value in drop:
        appended = drop_one(appended, value)
    shift = 0.0 if kind == ADJACENCY else 1.0
    return join_exact(runs, [(mu + shift, w * total) for mu, w in appended])


def scalar_levels(seed_graph: Graph, kind: str, m: int,
                  discrepancies: list | None = None) -> list:
    """Entries of levels 0..m by the per-entry step."""
    seed, roots, drop = scalar_step_rule(seed_graph, kind, discrepancies)
    levels = [seed]
    for level in range(1, m + 1):
        levels.append(scalar_corona_step(levels[-1], level, kind, seed, roots, drop))
    return levels


def walk_matrix_rank(g: Graph, kind: str) -> int:
    """Exact rank of [1, M1, ..., M^(n-1)1] for M = A, L or Q of g, by
    Gaussian elimination over Fractions."""
    n = g.node_count
    # M = diag * D + sign * A
    diag, sign = {ADJACENCY: (0, 1), LAPLACIAN: (1, -1), SIGNLESS: (1, 1)}[kind]
    adj = [list(map(int, g.neighbors(u))) for u in range(n)]
    walks, x = [], [Fraction(1)] * n
    for _ in range(n):
        walks.append(x)
        x = [diag * len(adj[u]) * x[u] + sign * sum(x[v] for v in adj[u])
             for u in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if walks[i][col] != 0), None)
        if pivot is None:
            continue
        walks[rank], walks[pivot] = walks[pivot], walks[rank]
        for i in range(n):
            if i != rank and walks[i][col] != 0:
                f = walks[i][col] / walks[rank][col]
                walks[i] = [a - f * b for a, b in zip(walks[i], walks[rank])]
        rank += 1
    return rank


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
        return frontier[:0], targets[:0]
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


def diameter_bit_parallel(g: Graph) -> int:
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


def _bfs_counts(adj: list[list[int]], source: int) -> tuple[list[int], list[int]]:
    """Distances and exact shortest-path counts from one source."""
    n = len(adj)
    dist = [-1] * n
    sigma = [0] * n
    dist[source] = 0
    sigma[source] = 1
    q = deque([source])
    while q:
        u = q.popleft()
        du = dist[u]
        su = sigma[u]
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                q.append(w)
            if dist[w] == du + 1:
                sigma[w] += su
    return dist, sigma


def brute_betweenness(g: Graph, cap: int = 500) -> np.ndarray:
    """Exact betweenness by per-pair path counting, unordered pairs once.

    Accumulates sigma_jk(i)/sigma_jk as Fractions (Python integers never
    overflow) and converts to float at the end.
    """
    n = g.node_count
    if n > cap:
        raise ValueError(f"graph has {n} nodes, over the brute-force cap {cap}")
    adj = [list(map(int, g.neighbors(u))) for u in range(n)]
    dists = []
    sigmas = []
    for s in range(n):
        dist, sigma = _bfs_counts(adj, s)
        if min(dist) < 0:
            raise ValueError("graph must be connected")
        dists.append(np.array(dist, dtype=np.int64))
        sigmas.append(sigma)
    acc = [Fraction(0)] * n
    nodes = np.arange(n)
    for j in range(n):
        dj = dists[j]
        for k in range(j + 1, n):
            dk = dists[k]
            djk = int(dj[k])
            on_path = (dj + dk == djk) & (nodes != j) & (nodes != k)
            if not on_path.any():
                continue
            sigma_jk = sigmas[j][k]
            for i in np.nonzero(on_path)[0]:
                acc[i] += Fraction(sigmas[j][i] * sigmas[i][k], sigma_jk)
    return np.array([float(x) for x in acc])


def betweenness_to_csv(b: np.ndarray) -> str:
    lines = ["node,b"]
    for i, x in enumerate(b):
        lines.append(f"{i},{float(x)!r}")
    return "\n".join(lines) + "\n"


def series_to_csv(d: DistributionSeries) -> str:
    """CSV emission: header comment then value,probability rows."""
    lines = [f"# cumulative={str(d.cumulative).lower()} population={d.population}",
             "value,probability"]
    for v, p in d.points:
        lines.append(f"{_fmt(v)},{p!r}")
    return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def read_edge_list(path, node_cap: int) -> Graph:
    """The line-by-line reader of the edge-list format."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    _check_seed(node_cap, 0, sum(1 for raw in lines
                                 if (line := raw.strip()) and not line.startswith("#")))
    node_count = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n=") and node_count is None and not edges:
                try:
                    node_count = int(body[2:])
                except ValueError:
                    raise EdgeListError(f"line {lineno}: bad node count {body!r}")
                _check_seed(node_cap, node_count)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: non-integer endpoint in {raw!r}")
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at node {u}")
        edges.append((u, v))
    if node_count is None:
        node_count = 1 + max((max(u, v) for u, v in edges), default=-1)
        _check_seed(node_cap, node_count)
    try:
        return Graph.from_edges(node_count, edges)
    except ValueError as exc:
        raise EdgeListError(str(exc)) from exc
