"""Closed-form corona spectra via one per-step recursion.

One corona step maps every eigenvalue x of the current graph through the
seed's secular equation and appends the seed eigenvalues whose eigenvectors
are orthogonal to the all-ones vector.  Iterating the step enumerates exactly
the branch combinations of the unrolled closed forms, without their
sign-placement ambiguity.  ``closed_form_spectrum`` is the one driver:
``step_rule`` builds the seed's rule and ``corona_step`` applies it.

The seed's p main eigenvalues theta_j are those whose eigenspace holds a
part P_j·1 of the all-ones vector, of weight w_j = |P_j·1|^2 (McLeman &
McNicholas 2011, "Spectra of coronae").  An entry x spawns the p + 1 roots of
lambda - x - top = sum_j w_j / (lambda - pole_j), pole_j = theta_j + shift:
the eigenvalues of the arrowhead [[x + top, sqrt(w)^T], [sqrt(w), diag(pole)]].
In L and Q the host gains n in degree (top) and every copy vertex 1 (shift);
in A both are 0.  Every step appends the tail: the seed spectrum less one
copy of each main value, shifted.  Where 1 is an eigenvector, p = 1: the
one pole is theta + shift, and x spawns the roots of (lambda - x - top)
(lambda - pole) = n for a seed on n nodes, the one of larger magnitude by
the formula and the other as the roots' product pole·x + top·pole - n over
it, so that neither cancels:

    seed     kind       roots                                        main values
    any      laplacian  quadratic, pole 1, product x                 0
    regular  adjacency  quadratic, pole r, product rx - n            r
    regular  signless   quadratic, pole 2r+1, product (2r+1)x + 2rn  2r
    star     adjacency  arrowhead (star_cubic_roots)                 -+sqrt(k-1)
    star     signless   arrowhead (star_cubic_roots)                 0, k
    other    A or Q     arrowhead                                    from the seed's eigh

``step_rule`` builds the tail once, as an exact level-0 ``Spectrum``, as is
level 0: literals for a star, else the seed spectrum with the one main value
snapped where 1 is an eigenvector (``seed_spectrum``).

Each root branch rises with x, and the seed's poles keep the branches apart
(Golub 1973; Bunch, Nielsen & Sorensen 1978): distinct x spawn distinct
values, one ascending run per branch, which one stable sort merges with the
tail.  A step joins two values only as one eigenvalue: equal floats, or a
tail value that a branch meets within ``COINCIDE_ULPS``.

A level is a float64 value array and a multiplicity array, and the step runs
over whole arrays: every entry's roots in one pass, batched ``eigvalsh``
calls over stacks of arrowheads, one star call per level, whose discrepancy
records form one block of array columns in a ``Discrepancies`` table.
Multiplicities are int64 while the level's total n(n+1)^m is below 2**63 and
exact Python ints (object dtype) above it.  The command line writes the
arrays and the table's columns through its one chunked row writer, in
array passes with ``floattext`` for the floats, so this module lays out no
output text.  The arrays give the same bits as the
formulas one entry at a time: +, -, *, / and sqrt round the same in numpy as
in Python, and LAPACK solves each arrowhead of a stack as it solves it
alone.  Only the star's printed trig form needs a power, an arccos and a
cosine; they go through the same libm routine as Python's ``**``,
``math.acos`` and ``math.cos`` (``_libm``), since numpy's own differ from
them in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import oracle
from .graph import CapExceededError, Graph, connected_component_count, level_table

ADJACENCY, LAPLACIAN, SIGNLESS = oracle.MATRIX_KINDS

# ulps of max(1, |value|) within which a step joins a tail value to a neighbour
COINCIDE_ULPS = 16
FORMULA_TOL = 1e-8
# a seed eigenvalue is main when its weight |P·1|^2 exceeds this times n;
# counting a smaller weight either way moves the values by about that much
MAIN_TOL = 1e-10
# refused bound on a closed form's entries, judged before its first step;
# the recursion's arrays grow with the entries, not with the node count
ENTRY_CAP = 2 ** 22
# refused bound on the steps' eigensolve work, entries times (p + 1)^3
WORK_CAP = 2 ** 28
# float64s per stack of arrowheads handed to one eigvalsh
ARROWHEAD_CHUNK = 2 ** 20
# eigenvector columns per matrix product of eigenpair_residual_max
RESIDUAL_CHUNK = 256


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalue multiset tagged with its matrix kind and corona level.

    ``values`` ascend; ``multiplicities`` is int64, or object (Python ints)
    once the total reaches 2**63.
    """

    kind: str
    values: np.ndarray
    multiplicities: np.ndarray
    level: int = 0

    def __post_init__(self):
        if self.kind not in oracle.MATRIX_KINDS:
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if self.kind == LAPLACIAN and len(self.values) and self.values[0] < -1e-9:
            raise ValueError(f"negative Laplacian eigenvalue {float(self.values[0])}")

    @property
    def entries(self) -> tuple[tuple[float, int], ...]:
        return tuple(zip(self.values.tolist(), self.multiplicities.tolist()))

    @property
    def total_multiplicity(self) -> int:
        return int(self.multiplicities.sum())

    def expand(self) -> np.ndarray:
        """Eigenvalues repeated by multiplicity, ascending."""
        return np.repeat(self.values, self.multiplicities.astype(np.int64))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return ((self.kind, self.level, self.entries)
                == (other.kind, other.level, other.entries))


def _mult_dtype(total: int):
    """int64 while every multiplicity (each at most ``total``) fits, else object."""
    return np.int64 if total < 2 ** 63 else object


def _libm(fn, *args) -> np.ndarray:
    """fn over float64 arrays element by element, as scalar Python code calls it.

    A scalar argument is repeated; the first argument sets the length.
    """
    n = len(args[0])
    lists = [a.tolist() if isinstance(a, np.ndarray) else repeat(a, n) for a in args]
    return np.fromiter(map(fn, *lists), dtype=np.float64, count=n)


def make_spectrum(kind: str, pairs, level: int) -> Spectrum:
    """Spectrum of a list of (value, multiplicity) pairs, coalesced in one sorted scalar pass:
    a value joins the running multiplicity-weighted mean within b = 64·n·ε·max|λ|, n the
    pairs' multiplicity.  Only for LAPACK output (``seed_spectrum``), off by some n·ε·max|λ|."""
    bound = 64 * math.ulp(1) * sum(w for _, w in pairs) * max([0] + [abs(v) for v, _ in pairs])
    values: list = []
    mults: list = []
    for v, w in sorted((float(v), int(w)) for v, w in pairs):
        if values and abs(v - values[-1]) <= bound:
            values[-1] = (values[-1] * mults[-1] + v * w) / (mults[-1] + w)
            mults[-1] += w
        else:
            values.append(v)
            mults.append(w)
    return Spectrum(kind, np.array(values, dtype=np.float64),
                    np.array(mults, dtype=_mult_dtype(sum(mults))), level)


# ---------------------------------------------------------------------------
# seed helpers


def regular_degree(g: Graph) -> int | None:
    degs = g.degrees
    if len(degs) and np.all(degs == degs[0]):
        return int(degs[0])
    return None


def star_size(g: Graph) -> int | None:
    """k if g is the star on k >= 3 vertices: a hub of degree k-1 on k-1 edges."""
    k = g.node_count
    return k if k >= 3 and g.edge_count == k - 1 and g.degrees.max() == k - 1 else None


def seed_spectrum(g: Graph, kind: str) -> Spectrum:
    """Level-0 spectrum from the oracle, with known-exact values snapped.

    A seed with c components has Laplacian value 0 exactly c times and
    below every other value; an r-regular one also has adjacency value r
    and signless value 2r, each exactly c times and above every other
    value.  Snapping removes the oracle's rounding from every later
    closed-form level.  Refused, before any matrix is built, on more nodes
    than the oracle cap.
    """
    if g.node_count > oracle.DEFAULT_ORACLE_CAP:
        raise CapExceededError(f"seed eigensolve on {g.node_count} nodes exceeds "
                               f"the oracle cap of {oracle.DEFAULT_ORACLE_CAP}")
    vals = oracle.sym_eigenvalues(oracle.build_matrix(g, kind)).tolist()
    r = regular_degree(g)
    c = connected_component_count(g)
    if kind == LAPLACIAN:
        vals[:c] = [0.0] * c
    elif r is not None:
        vals[-c:] = [float(r if kind == ADJACENCY else 2 * r)] * c
    return make_spectrum(kind, [(v, 1) for v in vals], level=0)


# ---------------------------------------------------------------------------
# the roots an entry spawns


def _quadratic_roots(n: int, top: int, pole: int):
    """x -> the roots of (lambda - x - top)(lambda - pole) = n per row, upper
    first; the level is unused.  The root of larger magnitude comes from the
    formula, the other as the roots' product pole·x + top·pole - n over it,
    so neither cancels."""
    def roots(x: np.ndarray, level: int = 0) -> np.ndarray:
        s, d = x + (top + pole), x - (pole - top)
        disc = np.sqrt(d * d + 4 * n)
        up = s >= 0
        big = np.where(up, s + disc, s - disc) / 2.0
        small = (pole * x + (top * pole - n)) / big
        return np.column_stack((np.where(up, big, small), np.where(up, small, big)))
    return roots


def _arrowhead_roots(top: int, poles: np.ndarray, weights: np.ndarray):
    """x -> the ascending eigenvalues of [[x + top, sqrt(w)^T], [sqrt(w),
    diag(poles)]] per row; the level is unused.  The arrowheads are stacked
    at most ``ARROWHEAD_CHUNK`` floats at a time."""
    base = np.diag(np.concatenate(([0.0], poles)))
    base[0, 1:] = base[1:, 0] = np.sqrt(weights)
    rows = max(1, ARROWHEAD_CHUNK // base.size)

    def roots(x: np.ndarray, level: int = 0) -> np.ndarray:
        out = np.empty((len(x), len(base)))
        for start in range(0, len(x), rows):
            chunk = x[start:start + rows]
            stack = np.repeat(base[None], len(chunk), axis=0)
            stack[:, 0, 0] = chunk + top
            out[start:start + rows] = np.linalg.eigvalsh(stack)
        return out
    return roots


@dataclass(eq=False)
class Discrepancies:
    """Printed-form misses of the star steps, one block of record columns per
    ``star_cubic_roots`` call: kind, k, level, mu, the 3 printed roots, the 3
    secular (arrowhead) roots, max_delta and note, one array each over the
    block's flagged rows.  len() counts records, not blocks."""

    blocks: list[tuple] = field(default_factory=list)

    def __len__(self) -> int:
        return sum(len(block[0]) for block in self.blocks)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The 12 record columns, joined across blocks."""
        if not self.blocks:
            return (np.empty(0),) * 12
        return tuple(map(np.concatenate, zip(*self.blocks)))


def _star_cubic_coefficients(mu: np.ndarray, k: int, kind: str):
    """The star's arrowhead (top, poles, weights), plus the printed trig pieces
    (shift, w, numerator) for comparison."""
    if kind == ADJACENCY:
        root = math.sqrt(k - 1.0)
        top, poles, weights = 0, [-root, root], [(root - 1.0) ** 2 / 2, (root + 1.0) ** 2 / 2]
        shift = mu / 3.0
        w = mu * mu + 6.0 * k - 3.0
        printed_num = (2.0 * _libm(math.pow, mu, 3.0) + mu * (18.0 - 9.0 * k)
                       + (54.0 * k - 54.0))
    elif kind == SIGNLESS:
        # poles at 1 + the main values 0 and k, on (1, -1, ..., -1) and (k-1, 1, ..., 1)
        top, poles, weights = k, [1.0, k + 1.0], [(k - 2.0) ** 2 / k, 4.0 * (k - 1.0) / k]
        shift = (mu + 2.0 * k + 2.0) / 3.0
        w = mu * mu + mu * (k - 2.0) + (k + 1.0) ** 2
        ssum = sum((a + 2) * (k - a - 1) for a in range(1, k - 1))
        printed_num = (2.0 * _libm(math.pow, mu, 3.0)
                       + (3.0 * k - 6.0) * _libm(math.pow, mu, 2.0)
                       - 3.0 * (k * k - k - 2.0) * mu + (70.0 * k - 94.0 - 12.0 * ssum))
    else:
        raise ValueError("star cubics exist for adjacency and signless kinds")
    return top, np.array(poles), np.array(weights), shift, w, printed_num


def star_cubic_roots(mus: np.ndarray, k: int, kind: str, *,
                     discrepancies: Discrepancies | None = None,
                     level: int = 0) -> np.ndarray:
    """The three eigenvalues a star step spawns from each input eigenvalue.

    ``mus`` is a float64 array; the result holds one ascending row of roots
    per value, the eigenvalues of the star's arrowhead.  The printed trig
    expression is evaluated verbatim alongside; when it strays beyond
    tolerance, or its arccos argument leaves [-1, 1] by more than 1e-9, the
    row is added to ``discrepancies`` instead of silently clamping: one
    block per call, in the order of ``mus``.
    """
    if k < 3:
        raise ValueError("star seeds need k >= 3")
    top, poles, weights, shift, w, printed_num = _star_cubic_coefficients(mus, k, kind)
    secular = _arrowhead_roots(top, poles, weights)(mus)

    arg = printed_num / (2.0 * _libm(math.pow, w, 1.5))
    wide = np.abs(arg) > 1.0 + 1e-9
    theta = _libm(math.acos, np.clip(arg, -1.0, 1.0))
    printed = np.column_stack([
        (2.0 / 3.0) * _libm(math.cos, (theta + y * math.pi) / 3.0) * np.sqrt(w) + shift
        for y in (0, 2, 4)])
    printed.sort(axis=1, kind="stable")

    scale = np.maximum(1.0, np.abs(secular).max(axis=1))
    delta = np.abs(printed - secular).max(axis=1)
    if discrepancies is not None:
        rows = np.flatnonzero((delta > FORMULA_TOL * scale) | wide)
        notes = np.full(len(rows), "", dtype=object)
        notes[wide[rows]] = [f"printed-form arccos argument {a!r} outside [-1, 1]"
                             for a in arg[rows][wide[rows]].tolist()]
        discrepancies.blocks.append((
            np.full(len(rows), kind, dtype=object), np.full(len(rows), k),
            np.full(len(rows), level), mus[rows], *printed[rows].T, *secular[rows].T,
            delta[rows], notes))
    return secular


# ---------------------------------------------------------------------------
# the corona step


def _level_zero(seed_graph: Graph, kind: str) -> Spectrum:
    """The exact level-0 spectrum: literals for a star's A and Q, else
    ``seed_spectrum``.  It reads no main weights, which only a step needs."""
    k = star_size(seed_graph)
    if k is not None and kind != LAPLACIAN:
        root = math.sqrt(k - 1.0)
        values = [-root, 0.0, root] if kind == ADJACENCY else [0.0, 1.0, float(k)]
        return Spectrum(kind, np.array(values), np.array([1, k - 2, 1]))
    return seed_spectrum(seed_graph, kind)


def step_rule(seed_graph: Graph, kind: str, discrepancies: Discrepancies | None = None):
    """(level-0 spectrum, roots, tail) of the seed's step, as in the module table.

    ``roots(x, level)`` gives, for an array x, the values each entry spawns at
    ``level``, one row per entry.  ``tail`` is the level-0 Spectrum every
    step appends, already shifted; both level-0 spectra are exact.  The star
    steps record their printed-form discrepancies in ``discrepancies``.
    """
    n = seed_graph.node_count
    top, shift = (0, 0) if kind == ADJACENCY else (n, 1)
    seed = _level_zero(seed_graph, kind)
    k = star_size(seed_graph)
    if k is not None and kind != LAPLACIAN:
        # star_cubic_roots is looked up at each call, so a patched module
        # attribute (the bench tracer's) sees every star step
        def star(x: np.ndarray, level: int) -> np.ndarray:
            return star_cubic_roots(x, k, kind, discrepancies=discrepancies,
                                    level=level)
        tail_value = 0.0 if kind == ADJACENCY else 2.0
        return seed, star, Spectrum(kind, np.array([tail_value]), np.array([k - 2]))
    r = regular_degree(seed_graph)
    if kind == LAPLACIAN or r is not None:
        # 1 is an eigenvector, of the one main value, which seed_spectrum snaps
        theta = 0 if kind == LAPLACIAN else r if kind == ADJACENCY else 2 * r
        main = seed.values == theta
        if main.sum() != 1:
            raise ValueError(f"seed spectrum is missing the expected value {float(theta)}")
        roots = _quadratic_roots(n, top, shift + theta)
    else:
        _, vectors = oracle.sym_eigensystem(oracle.build_matrix(seed_graph, kind))
        # eigh orders the values as eigvalsh: a coalesced run is consecutive columns
        starts = np.cumsum(seed.multiplicities) - seed.multiplicities
        weights = np.add.reduceat(vectors.sum(axis=0) ** 2, starts)
        # eigh mixes vectors of values g apart by b/g: weight under (b/g)^2 of its run's is leak
        b = 64 * n * math.ulp(1.0) * np.abs(seed.values).max(initial=0.0)
        run = np.cumsum(np.diff(seed.values, prepend=seed.values[:1]) > b / math.sqrt(MAIN_TOL))
        heaviest = np.lexsort((-weights, run))[np.flatnonzero(np.diff(run, prepend=-1))][run]
        leak = np.where(weights * (seed.values - seed.values[heaviest]) ** 2
                        <= b * b * np.bincount(run, weights)[run], weights, 0.0)
        weights = weights - leak + np.bincount(heaviest, leak, len(weights))
        main = weights > MAIN_TOL * n
        roots = _arrowhead_roots(top, seed.values[main] + shift, weights[main])
    mults = seed.multiplicities - main
    tail = Spectrum(kind, seed.values[mults > 0] + shift, mults[mults > 0])
    return seed, roots, tail


def _join(values: np.ndarray, mults: np.ndarray, tail_at: np.ndarray):
    """Join the sorted neighbours that are one eigenvalue: equal floats, and a
    tail value (at the positions ``tail_at``) within ``COINCIDE_ULPS`` of a
    neighbour.  A joined run takes its multiplicity-weighted mean; every
    other entry keeps its value."""
    join = values[:-1] == values[1:]
    near = np.concatenate((tail_at[tail_at > 0] - 1, tail_at[tail_at < len(join)]))
    a, b = values[near], values[near + 1]
    join[near] |= b - a <= COINCIDE_ULPS * np.spacing(
        np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))
    if not join.any():
        return values, mults
    starts = np.flatnonzero(np.concatenate(([True], ~join)))
    joined = np.diff(starts, append=len(values)) > 1
    sums = np.add.reduceat(values * mults, starts)[joined]
    values, mults = values[starts], np.add.reduceat(mults, starts)
    values[joined] = sums / mults[joined]
    return values, mults


def corona_step(s: Spectrum, seed: Spectrum, roots, tail: Spectrum) -> Spectrum:
    """One corona step of an A, L or Q spectrum under a ``step_rule``.

    Every entry x (mult w) spawns ``roots(x, level)`` with mult w; the
    rule's ``tail`` follows, each multiplicity times the input's total.
    """
    if s.kind != seed.kind:
        raise ValueError(f"kind mismatch: {s.kind} spectrum, {seed.kind} seed")
    level = s.level + 1
    total = s.total_multiplicity
    spawned = roots(s.values, level)
    width = spawned.shape[1]
    # every multiplicity is at most the new level's total, n(n+1)^level
    dtype = _mult_dtype(total * (width + tail.total_multiplicity))
    # branch after branch, then the tail: width + 1 ascending runs to merge
    values = np.concatenate([spawned[:, j] for j in np.argsort(spawned[0])]
                            + [tail.values])
    mults = np.concatenate([s.multiplicities.astype(dtype, copy=False)] * width
                           + [tail.multiplicities.astype(dtype) * total])
    order = np.argsort(values, kind="stable")
    values, mults = _join(values[order], mults[order],
                          np.flatnonzero(order >= spawned.size))
    return Spectrum(s.kind, values, mults, level)


# ---------------------------------------------------------------------------
# one-step eigenvectors (regular seeds)


def build_one_step_eigenpairs(seed_graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """All n(n+1) adjacency eigenpairs of seed∘seed for a connected regular
    seed: the values, and the vectors as the columns of one square array, as
    ``eigh`` returns them, but in family order and not normalized.

    Quadratic-family vectors put 1/(lam - r) times the host's coordinate on
    every vertex of its copy; mu-family vectors place one seed eigenvector
    inside a single copy and vanish elsewhere, in the index layout read off
    ``graph.level_table``: the seed, then host i's copy.  Connectivity makes r a
    simple eigenvalue, so every other seed eigenvector is orthogonal to the
    all-ones vector, as the mu family needs; lam - r is never 0, since
    |lam - r| >= n / (r + sqrt(r^2 + n)).
    """
    r = regular_degree(seed_graph)
    if r is None:
        raise ValueError("eigenpair construction needs a regular seed")
    if connected_component_count(seed_graph) != 1:
        raise ValueError("eigenpair construction needs a connected seed")
    n = seed_graph.node_count
    vals, vecs = oracle.sym_eigensystem(oracle.build_matrix(seed_graph, ADJACENCY))
    lams = _quadratic_roots(n, 0, r)(vals).ravel()  # 2i, 2i + 1: seed eigenvalue i's
    others = np.flatnonzero(np.arange(n) != np.argmax(vals))
    i, host = np.divmod(np.arange(len(others) * n), n)
    copies = level_table(n, 1)[1].copies()  # row j: the copy on host j
    values = np.concatenate([lams, vals[others[i]]])
    vectors = np.zeros((n + n * n, len(values)))
    # the quadratic family: column 2i + k lifts seed eigenvector i
    z = np.repeat(vecs, 2, axis=1)
    vectors[:n, :2 * n] = z
    vectors[copies, :2 * n] = z[:, None, :] / (lams - r)
    # the mu family: one column per non-Perron seed eigenvector and host
    vectors[copies[host].T, np.arange(2 * n, len(values))] = vecs[:, others[i]]
    return values, vectors


def eigenpair_residual_max(seed_graph: Graph, a: np.ndarray) -> float:
    """Largest ||A v - lam v|| / ||v|| over the constructed one-step pairs,
    with ``a`` the adjacency matrix of seed∘seed: one matrix product per
    ``RESIDUAL_CHUNK`` columns."""
    values, vectors = build_one_step_eigenpairs(seed_graph)
    worst = 0.0
    for start in range(0, len(values), RESIDUAL_CHUNK):
        v = vectors[:, start:start + RESIDUAL_CHUNK]
        res = a @ v
        res -= v * values[start:start + RESIDUAL_CHUNK]
        res = np.linalg.norm(res, axis=0) / np.linalg.norm(v, axis=0)
        worst = max(worst, float(res.max()))
    return worst


# ---------------------------------------------------------------------------
# dispatch


def entry_bound(seed: Spectrum, tail: Spectrum, m: int, stop: int) -> tuple[int, int]:
    """(level, bound): a bound on the entries at ``level``, which is m, or
    the first level whose bound reaches ``stop``.

    A step spawns ``width`` values per entry and appends the tail, so
    E -> width * E + |tail| before the step's joins.  It takes a graph on N nodes
    to one on N(n + 1), the tail's multiplicities times N among them, which
    leaves width = n + 1 - sum(tail) = p + 1 (2 for a quadratic).
    """
    width = seed.total_multiplicity + 1 - tail.total_multiplicity
    level, bound = 0, len(seed.values)
    while level < m and bound < stop:
        level, bound = level + 1, width * bound + len(tail.values)
    return level, bound


def closed_form_spectrum(seed_graph: Graph, kind: str, m: int,
                         discrepancies: Discrepancies | None = None) -> Spectrum:
    """The level-m spectrum: m ``corona_step``s of the seed's ``step_rule``.
    Level 0 is the seed's own, and builds no rule.

    Raises CapExceededError before the first step when ``entry_bound``
    reaches ``ENTRY_CAP``, or when the steps' eigensolve work, the entries
    of levels 0 to m-1 times (p + 1)^3, reaches ``WORK_CAP``.
    """
    if m == 0:
        return _level_zero(seed_graph, kind)
    rule = step_rule(seed_graph, kind, discrepancies)
    s, _, tail = rule
    level, bound = entry_bound(s, tail, m, ENTRY_CAP)
    if bound >= ENTRY_CAP:
        raise CapExceededError(
            f"the closed form may hold {bound} entries by level {level}, "
            f"reaching the entry cap of {ENTRY_CAP}")
    width = s.total_multiplicity + 1 - tail.total_multiplicity
    work = sum(entry_bound(s, tail, j, ENTRY_CAP)[1] for j in range(m)) * width ** 3
    if work >= WORK_CAP:
        raise CapExceededError(
            f"the closed form's {width}x{width} eigensolves may cost {work} "
            f"(entries times {width}^3) by level {m}, reaching the work cap of {WORK_CAP}")
    for _ in range(m):
        s = corona_step(s, *rule)
    return s


def spectrum_to_json(s: Spectrum, n: int) -> dict:
    """The stable wire form: kind, level, seed size, entries, provenance."""
    return {
        "kind": s.kind,
        "m": s.level,
        "n": n,
        "entries": [{"value": v, "multiplicity": w}
                    for v, w in zip(s.values.tolist(), s.multiplicities.tolist())],
        "provenance": "closed_form",
    }
