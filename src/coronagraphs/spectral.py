"""Closed-form corona spectra via one per-step recursion.

One corona step maps every eigenvalue x of the current graph through the
seed's secular equation and appends the seed eigenvalues whose eigenvectors
are orthogonal to the all-ones vector.  Iterating the step enumerates exactly
the branch combinations of the unrolled closed forms, without their
sign-placement ambiguity.  ``closed_form_spectrum`` is the one driver:
``step_rule`` picks the seed's rule and ``corona_step`` applies it.

An entry x spawns the quadratic roots (x + alpha +- sqrt((x - beta)^2 + 4n)) / 2
for a seed on n nodes, or the three roots of the secular cubic of the star on
k nodes (``star_cubic_roots``).  The seed spectrum, less one copy of each
``drop`` value and shifted by ``shift``, is the tail every step appends:

    seed      kind       roots                           drop          shift
    regular   adjacency  quadratic, alpha=beta=r         r             0
    any       laplacian  quadratic, n+1, 1-n             0             1
    regular   signless   quadratic, n+2r+1, 2r+1-n       2r            1
    star      adjacency  cubic                           -+sqrt(k-1)   0
    star      signless   cubic                           0, k          1

The regular seeds are r-regular, and the Laplacian rule holds for any
seed, since it needs only L·1 = 0.  The shift depends on the kind alone:
the host edge adds 1 to the degree of every copy vertex in L and Q.  The
tail depends on the seed alone, so ``step_rule`` builds it once, as a
level-0 ``Spectrum``.  Level 0 is exact: literals for a star, else the seed
spectrum whose one dropped value ``seed_spectrum`` snaps.

Each root branch rises with x, and the seed's poles keep the branches apart
(Golub 1973; Bunch, Nielsen & Sorensen 1978): distinct x spawn distinct
values, one ascending run per branch, which one stable sort merges with the
tail.  A step joins two values only as one eigenvalue: equal floats, or a
tail value that a branch meets within ``COINCIDE_ULPS``.

A level is a float64 value array and a multiplicity array, and the step runs
over whole arrays: every entry's roots in one pass, one star cubic call per
level, whose discrepancy records form one block of array columns in a
``Discrepancies`` table.  Multiplicities are int64 while the level's total
n(n+1)^m is below 2**63 and exact Python ints (object dtype) above it.  The
command line writes a spectrum's two arrays and the table's columns through
its one chunked row writer, so this module lays out no output text.  The
arrays give the same bits as evaluating the formulas one entry at a time:
+, -, *, / and sqrt round the same in numpy as in Python, while every power,
arccos and cosine goes through the same libm routine as Python's ``**``,
``math.acos`` and ``math.cos`` (``_libm``), since numpy's own differ from
them in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import oracle
from .graph import CapExceededError, Graph, connected_component_count

ADJACENCY, LAPLACIAN, SIGNLESS = oracle.MATRIX_KINDS

COALESCE_REL_TOL = 1e-9
# ulps of max(1, |value|) within which a step joins a tail value to a neighbour
COINCIDE_ULPS = 16
FORMULA_TOL = 1e-8
# refused bound on a closed form's entries, judged before its first step;
# the recursion's arrays grow with the entries, not with the node count
ENTRY_CAP = 2 ** 22


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
    provenance: str = "closed_form"

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
        return ((self.kind, self.level, self.provenance, self.entries)
                == (other.kind, other.level, other.provenance, other.entries))


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


def make_spectrum(kind: str, pairs, level: int,
                  provenance: str = "closed_form") -> Spectrum:
    """Spectrum of (value, multiplicity) pairs, coalesced in one scalar pass:
    sorted by (value, multiplicity), each value joins the running
    multiplicity-weighted mean when within ``COALESCE_REL_TOL`` of it.  Only
    for LAPACK output: the seed eigensolve of ``seed_spectrum`` and the
    ``spectrum`` command's oracle fallback."""
    values: list = []
    mults: list = []
    for v, w in sorted((float(v), int(w)) for v, w in pairs):
        if values and abs(v - values[-1]) <= COALESCE_REL_TOL * max(
                1.0, abs(v), abs(values[-1])):
            values[-1] = (values[-1] * mults[-1] + v * w) / (mults[-1] + w)
            mults[-1] += w
        else:
            values.append(v)
            mults.append(w)
    return Spectrum(kind, np.array(values, dtype=np.float64),
                    np.array(mults, dtype=_mult_dtype(sum(mults))), level, provenance)


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
# star seeds: cubic secular equations


@dataclass(eq=False)
class Discrepancies:
    """Printed-form misses of the star cubics, one block of record columns per
    ``star_cubic_roots`` call: kind, k, level, mu, the 3 printed roots, the 3
    secular roots, max_delta and note, one array each over the block's
    flagged rows.  len() counts records, not blocks."""

    blocks: list[tuple] = field(default_factory=list)

    def __len__(self) -> int:
        return sum(len(block[0]) for block in self.blocks)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The 12 record columns, joined across blocks."""
        if not self.blocks:
            return (np.empty(0),) * 12
        return tuple(map(np.concatenate, zip(*self.blocks)))


def _real_cubic_roots(b: np.ndarray, c, d):
    """Trigonometric roots, ascending per row, of x^3 + b x^2 + c x + d.

    Only for the star cubics, whose p = c - b^2/3 is -w/3 with w > 0 the
    printed formula's w: p <= -5 for A and w >= (k+1)^2 - (k-2)^2/4 for Q.
    Returns (roots, error): error is (row, message) for the first row whose
    arccos argument is out of range, or None.
    """
    p = c - b * b / 3.0
    q = (2.0 * _libm(math.pow, b, 3.0) - 9.0 * b * c + 27.0 * d) / 27.0
    s = -p / 3.0
    half = 2.0 * np.sqrt(s)
    arg = -q / (2.0 * _libm(math.pow, s, 1.5))
    error = None
    bad = np.flatnonzero(np.abs(arg) > 1.0 + 1e-9)
    if len(bad):
        row = int(bad[0])
        error = (row, f"arccos argument {arg[row].item()} out of range")
    phi = _libm(math.acos, np.clip(arg, -1.0, 1.0)) / 3.0
    roots = np.column_stack([
        half * _libm(math.cos, phi + 2.0 * math.pi * z / 3.0) - b / 3.0
        for z in range(3)])
    roots.sort(axis=1, kind="stable")
    return roots, error


def _star_cubic_coefficients(mu: np.ndarray, k: int, kind: str):
    """Secular cubic (b, c, d), plus the printed trig pieces for comparison."""
    if kind == ADJACENCY:
        b = -mu
        c = 1.0 - 2.0 * k
        d = (k - 1.0) * (mu - 2.0)
        shift = mu / 3.0
        w = mu * mu + 6.0 * k - 3.0
        printed_num = (2.0 * _libm(math.pow, mu, 3.0) + mu * (18.0 - 9.0 * k)
                       + (54.0 * k - 54.0))
    elif kind == SIGNLESS:
        b = -(mu + 2.0 * k + 2.0)
        c = mu * (k + 2.0) + (k + 1.0) ** 2
        d = -(mu * (k + 1.0) + 4.0 * (k - 1.0))
        shift = (mu + 2.0 * k + 2.0) / 3.0
        w = mu * mu + mu * (k - 2.0) + (k + 1.0) ** 2
        ssum = sum((a + 2) * (k - a - 1) for a in range(1, k - 1))
        printed_num = (2.0 * _libm(math.pow, mu, 3.0)
                       + (3.0 * k - 6.0) * _libm(math.pow, mu, 2.0)
                       - 3.0 * (k * k - k - 2.0) * mu + (70.0 * k - 94.0 - 12.0 * ssum))
    else:
        raise ValueError("star cubics exist for adjacency and signless kinds")
    return b, c, d, shift, w, printed_num


def star_cubic_roots(mus: np.ndarray, k: int, kind: str, *,
                     discrepancies: Discrepancies | None = None,
                     level: int = 0) -> np.ndarray:
    """The three eigenvalues a star step spawns from each input eigenvalue.

    ``mus`` is a float64 array; the result holds one ascending row of roots
    per value.  The roots are those of the secular cubic (always consistent
    with the oracle).  The printed trig expression is evaluated verbatim
    alongside; when it strays beyond tolerance, or its arccos argument leaves
    [-1, 1] by more than 1e-9, the row is added to ``discrepancies`` instead
    of silently clamping: one block per call, in the order of ``mus``.
    """
    if k < 3:
        raise ValueError("star seeds need k >= 3")
    b, c, d, shift, w, printed_num = _star_cubic_coefficients(mus, k, kind)
    secular, error = _real_cubic_roots(b, c, d)

    arg = printed_num / (2.0 * _libm(math.pow, w, 1.5))
    wide = np.abs(arg) > 1.0 + 1e-9
    theta = _libm(math.acos, np.clip(arg, -1.0, 1.0))
    printed = np.column_stack([
        (2.0 / 3.0) * _libm(math.cos, (theta + y * math.pi) / 3.0) * np.sqrt(w) + shift
        for y in (0, 2, 4)])
    printed.sort(axis=1, kind="stable")

    scale = np.maximum(1.0, np.abs(secular).max(axis=1))
    delta = np.abs(printed - secular).max(axis=1)
    flagged = (delta > FORMULA_TOL * scale) | wide
    if discrepancies is not None:
        # records stop at a failing row, as a per-value loop would
        rows = np.flatnonzero(flagged[:len(mus) if error is None else error[0]])
        notes = np.full(len(rows), "", dtype=object)
        notes[wide[rows]] = [f"printed-form arccos argument {a!r} outside [-1, 1]"
                             for a in arg[rows][wide[rows]].tolist()]
        discrepancies.blocks.append((
            np.full(len(rows), kind, dtype=object), np.full(len(rows), k),
            np.full(len(rows), level), mus[rows], *printed[rows].T, *secular[rows].T,
            delta[rows], notes))
    if error is not None:
        raise ValueError(error[1])
    return secular


# ---------------------------------------------------------------------------
# the corona step


def _quadratic_roots(n: int, alpha: int, beta: int):
    """x -> (x + alpha +- sqrt((x - beta)^2 + 4n)) / 2 per row; the level is unused."""
    def roots(x: np.ndarray, level: int = 0) -> np.ndarray:
        disc = np.sqrt(_libm(math.pow, x - beta, 2.0) + 4 * n)
        return np.column_stack(((x + alpha + disc) / 2.0, (x + alpha - disc) / 2.0))
    return roots


def step_rule(seed_graph: Graph, kind: str, discrepancies: Discrepancies | None = None):
    """(level-0 spectrum, roots, tail) of the seed's step, as in the module table.

    ``roots(x, level)`` gives, for an array x, the values each entry spawns at
    ``level``, one row per entry.  ``tail`` is the level-0 Spectrum every
    step appends, already shifted; both level-0 spectra are exact.  None
    when the (seed, kind) pair has no closed form.  The star cubics record
    their printed-form discrepancies in ``discrepancies``.
    """
    n, r = seed_graph.node_count, regular_degree(seed_graph)
    if kind == LAPLACIAN:
        alpha, beta, drop = n + 1, 1 - n, 0
    elif r is not None:
        alpha, beta, drop = ((r, r, r) if kind == ADJACENCY
                             else (n + 2 * r + 1, 2 * r + 1 - n, 2 * r))
    else:
        k = star_size(seed_graph)
        if k is None:
            return None
        if kind == ADJACENCY:
            root = math.sqrt(k - 1.0)
            values, tail_value = [-root, 0.0, root], 0.0
        else:
            values, tail_value = [0.0, 1.0, float(k)], 2.0

        # star_cubic_roots is looked up at each call, so a patched module
        # attribute (the bench tracer's) sees every cubic
        def cubic(x: np.ndarray, level: int) -> np.ndarray:
            return star_cubic_roots(x, k, kind, discrepancies=discrepancies,
                                    level=level)
        return (Spectrum(kind, np.array(values), np.array([1, k - 2, 1])), cubic,
                Spectrum(kind, np.array([tail_value]), np.array([k - 2])))
    seed = seed_spectrum(seed_graph, kind)
    # seed_spectrum puts the snapped 0 of L first, and r or 2r last
    at = 0 if kind == LAPLACIAN else -1
    if seed.values[at] != drop:
        raise ValueError(f"seed spectrum is missing the expected value {float(drop)}")
    mults = seed.multiplicities.copy()
    mults[at] -= 1
    shift = 0.0 if kind == ADJACENCY else 1.0
    tail = Spectrum(kind, seed.values[mults > 0] + shift, mults[mults > 0])
    return seed, _quadratic_roots(n, alpha, beta), tail


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


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray


def build_one_step_eigenpairs(seed_graph: Graph) -> list[EigenPair]:
    """All n(n+1) adjacency eigenpairs of seed∘seed for a connected regular seed.

    Quadratic-family vectors put 1/(lam - r) times the host's coordinate on
    every vertex of its copy; mu-family vectors place one seed eigenvector
    inside a single copy and vanish elsewhere.  Layout matches
    corona_product's copy-major index contract.  Connectivity makes r a
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
    perron = int(np.argmax(vals))
    lams = _quadratic_roots(n, r, r)(np.asarray(vals, dtype=np.float64)).tolist()
    pairs: list[EigenPair] = []
    for i in range(n):
        mu = float(vals[i])
        z = vecs[:, i]
        for lam in lams[i]:
            vec = np.concatenate((z, np.repeat(z, n) / (lam - r)))
            pairs.append(EigenPair(value=lam, vector=vec))
        if i != perron:
            for j in range(n):
                vec = np.zeros(n + n * n)
                vec[n + j * n: n + (j + 1) * n] = z
                pairs.append(EigenPair(value=mu, vector=vec))
    return pairs


def eigenpair_residual_max(seed_graph: Graph, a: np.ndarray) -> float:
    """Largest ||A v - lam v|| / ||v|| over the constructed one-step pairs,
    with ``a`` the adjacency matrix of seed∘seed."""
    worst = 0.0
    for pair in build_one_step_eigenpairs(seed_graph):
        v = pair.vector
        res = float(np.linalg.norm(a @ v - pair.value * v) / np.linalg.norm(v))
        worst = max(worst, res)
    return worst


# ---------------------------------------------------------------------------
# dispatch


def entry_bound(seed: Spectrum, tail: Spectrum, m: int, stop: int) -> tuple[int, int]:
    """(level, bound): a bound on the entries at ``level``, which is m, or
    the first level whose bound reaches ``stop``.

    A step spawns ``width`` values per entry and appends the tail, so
    E -> width * E + |tail| before the step's joins.  It takes a graph on N nodes
    to one on N(n + 1), the tail's multiplicities times N among them, which
    leaves width = n + 1 - sum(tail) (2 for a quadratic, 3 for a star cubic).
    """
    width = seed.total_multiplicity + 1 - tail.total_multiplicity
    level, bound = 0, len(seed.values)
    while level < m and bound < stop:
        level, bound = level + 1, width * bound + len(tail.values)
    return level, bound


def closed_form_spectrum(seed_graph: Graph, kind: str, m: int,
                         discrepancies: Discrepancies | None = None) -> Spectrum | None:
    """Closed-form spectrum when the (seed, kind) pair supports one, else None.

    Regular seeds support all three kinds; star seeds support adjacency and
    signless via the cubic recursion; every seed supports the Laplacian.
    Every closed form is m ``corona_step``s of the seed's ``step_rule``.
    Raises CapExceededError before the first step when ``entry_bound``
    reaches ``ENTRY_CAP``.
    """
    rule = step_rule(seed_graph, kind, discrepancies)
    if rule is None:
        return None
    s, _, tail = rule
    level, bound = entry_bound(s, tail, m, ENTRY_CAP)
    if bound >= ENTRY_CAP:
        raise CapExceededError(
            f"the closed form may hold {bound} entries by level {level}, "
            f"reaching the entry cap of {ENTRY_CAP}")
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
        "provenance": s.provenance,
    }
