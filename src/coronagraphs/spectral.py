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
``drop`` value, is appended shifted by ``shift``:

    seed      kind       roots                           drop          shift
    regular   adjacency  quadratic, alpha=beta=r         r             0
    any       laplacian  quadratic, n+1, 1-n             0             1
    regular   signless   quadratic, n+2r+1, 2r+1-n       2r            1
    star      adjacency  cubic                           -+sqrt(k-1)   0
    star      signless   cubic                           0, k          1

The regular seeds are r-regular, and the Laplacian rule holds for any
connected seed.  The shift depends on the kind alone: the host edge adds 1
to the degree of every copy vertex in L and Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .graph import Graph, connected_component_count, corona_product

ADJACENCY = "adjacency"
LAPLACIAN = "laplacian"
SIGNLESS = "signless"

COALESCE_REL_TOL = 1e-9
FORMULA_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset tagged with its matrix kind and corona level."""

    kind: str
    entries: tuple[tuple[float, int], ...]
    level: int
    provenance: str = "closed_form"

    @property
    def total_multiplicity(self) -> int:
        return sum(w for _, w in self.entries)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.entries)

    def expand(self) -> np.ndarray:
        """Eigenvalues repeated by multiplicity, ascending."""
        return np.repeat([v for v, _ in self.entries],
                         [w for _, w in self.entries]).astype(np.float64)


def _coalesce(pairs) -> tuple[tuple[float, int], ...]:
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


def make_spectrum(kind: str, pairs, level: int,
                  provenance: str = "closed_form") -> Spectrum:
    if kind not in (ADJACENCY, LAPLACIAN, SIGNLESS):
        raise ValueError(f"unknown spectrum kind {kind!r}")
    entries = _coalesce(pairs)
    if kind == LAPLACIAN and entries and entries[0][0] < -1e-9:
        raise ValueError(f"negative Laplacian eigenvalue {entries[0][0]}")
    return Spectrum(kind=kind, entries=entries, level=level, provenance=provenance)


# ---------------------------------------------------------------------------
# seed helpers


def regular_degree(g: Graph) -> int | None:
    degs = g.degrees
    if len(degs) and np.all(degs == degs[0]):
        return int(degs[0])
    return None


def star_size(g: Graph) -> int | None:
    """k if g is the star on k >= 3 vertices (one hub, k-1 leaves)."""
    k = g.node_count
    if k < 3 or g.edge_count != k - 1:
        return None
    degs = np.sort(g.degrees)
    if degs[-1] == k - 1 and np.all(degs[:-1] == 1):
        return k
    return None


def seed_spectrum(g: Graph, kind: str) -> Spectrum:
    """Level-0 spectrum from the oracle, with known-exact values snapped.

    For a connected r-regular seed the top adjacency value is exactly r and
    the top signless value exactly 2r; a connected seed's smallest Laplacian
    value is exactly 0.  Snapping removes the oracle's rounding from every
    later closed-form level.
    """
    vals = oracle.sym_eigenvalues(oracle.build_matrix(g, kind))
    vals = list(map(float, vals))
    r = regular_degree(g)
    if kind == LAPLACIAN:
        vals[0] = 0.0
    elif r is not None:
        vals[-1] = float(r if kind == ADJACENCY else 2 * r)
    return make_spectrum(kind, [(v, 1) for v in vals], level=0)


def _drop_one(entries, value: float) -> list[tuple[float, int]]:
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


def algebraic_connectivity(s: Spectrum) -> float:
    """Second-smallest Laplacian eigenvalue, counting multiplicity."""
    if s.kind != LAPLACIAN:
        raise ValueError("algebraic connectivity is a Laplacian quantity")
    if s.total_multiplicity < 2:
        raise ValueError("need at least two eigenvalues")
    v0, w0 = s.entries[0]
    return v0 if w0 >= 2 else s.entries[1][0]


# ---------------------------------------------------------------------------
# star seeds: cubic secular equations


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

    def to_dict(self) -> dict:
        return dict(vars(self))


def _real_cubic_roots(b: float, c: float, d: float) -> tuple[float, float, float]:
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


def _star_cubic_coefficients(mu: float, k: int, kind: str):
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


def star_cubic_roots(mu: float, k: int, kind: str, *,
                     discrepancies: list | None = None,
                     level: int = 0) -> tuple[float, float, float]:
    """Three eigenvalues a star step spawns from one input eigenvalue mu.

    Returns the roots of the secular cubic (always consistent with the
    oracle).  The printed trig expression is evaluated verbatim alongside;
    when it strays beyond tolerance, or its arccos argument leaves [-1, 1]
    by more than 1e-9, a CubicDiscrepancy is appended to
    ``discrepancies`` instead of silently clamping.
    """
    if k < 3:
        raise ValueError("star seeds need k >= 3")
    b, c, d, shift, w, printed_num = _star_cubic_coefficients(float(mu), k, kind)
    secular = _real_cubic_roots(b, c, d)

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
            printed_roots=printed, secular_roots=secular,
            max_delta=float(delta), note=note))
    return secular


# ---------------------------------------------------------------------------
# the corona step


def _quadratic_roots(n: int, alpha: int, beta: int):
    """x -> (x + alpha +- sqrt((x - beta)^2 + 4n)) / 2; the level is unused."""
    def roots(x: float, level: int = 0) -> tuple[float, float]:
        disc = math.sqrt((x - beta) ** 2 + 4 * n)
        return (x + alpha + disc) / 2.0, (x + alpha - disc) / 2.0
    return roots


def step_rule(seed_graph: Graph, kind: str, discrepancies: list | None = None):
    """(level-0 spectrum, roots, drop) of the seed's step, as in the module table.

    ``roots(x, level)`` gives the values an entry x spawns at ``level``.
    None when the (seed, kind) pair has no closed form.  The star cubics
    record their printed-form discrepancies in ``discrepancies``.
    """
    n, r = seed_graph.node_count, regular_degree(seed_graph)
    if kind == LAPLACIAN:
        if connected_component_count(seed_graph) != 1:
            raise ValueError("Laplacian closed form needs a connected seed")
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
            seed = make_spectrum(kind, [(-root, 1), (0.0, k - 2), (root, 1)], level=0)
            dropped = (-root, root)
        else:
            seed = make_spectrum(kind, [(0.0, 1), (1.0, k - 2), (float(k), 1)], level=0)
            dropped = (0.0, float(k))

        # star_cubic_roots is looked up at each call, so a patched module
        # attribute (the bench tracer's) sees every cubic
        def cubic(x: float, level: int) -> tuple[float, float, float]:
            return star_cubic_roots(x, k, kind, discrepancies=discrepancies,
                                    level=level)
        return seed, cubic, dropped
    return (seed_spectrum(seed_graph, kind), _quadratic_roots(n, alpha, beta),
            (float(drop),))


def corona_step(s: Spectrum, seed: Spectrum, roots, drop) -> Spectrum:
    """One corona step of an A, L or Q spectrum under a ``step_rule``.

    Every entry x (mult w) spawns ``roots(x, level)`` with mult w; the seed
    values, less one copy of each ``drop`` value and shifted, carry the
    input's total multiplicity.
    """
    if s.kind != seed.kind:
        raise ValueError(f"kind mismatch: {s.kind} spectrum, {seed.kind} seed")
    low = min(s.values, default=0.0)
    if s.kind == LAPLACIAN and low < -1e-9:
        raise ValueError(f"negative Laplacian input eigenvalue {low}")
    level = s.level + 1
    total = s.total_multiplicity
    pairs = [(lam, w) for x, w in s.entries for lam in roots(x, level)]
    appended = seed.entries
    for value in drop:
        appended = _drop_one(appended, value)
    shift = 0.0 if s.kind == ADJACENCY else 1.0
    pairs.extend((mu + shift, w * total) for mu, w in appended)
    return make_spectrum(s.kind, pairs, level=level)


# ---------------------------------------------------------------------------
# one-step eigenvectors (regular seeds)


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray


def build_one_step_eigenpairs(seed_graph: Graph) -> list[EigenPair]:
    """All n(n+1) adjacency eigenpairs of seed∘seed for a regular seed.

    Quadratic-family vectors put 1/(lam - r) times the host's coordinate on
    every vertex of its copy; mu-family vectors place one seed eigenvector
    inside a single copy and vanish elsewhere.  Layout matches
    corona_product's copy-major index contract.
    """
    r = regular_degree(seed_graph)
    if r is None:
        raise ValueError("eigenpair construction needs a regular seed")
    n = seed_graph.node_count
    vals, vecs = oracle.sym_eigensystem(oracle.build_matrix(seed_graph, ADJACENCY))
    perron = int(np.argmax(vals))
    roots = _quadratic_roots(n, r, r)
    pairs: list[EigenPair] = []
    for i in range(n):
        mu = float(vals[i])
        z = vecs[:, i]
        for lam in roots(mu):
            if abs(lam - r) <= 1e-12:
                raise ValueError("degenerate denominator: eigenvalue equals r")
            vec = np.concatenate((z, np.repeat(z, n) / (lam - r)))
            pairs.append(EigenPair(value=lam, vector=vec))
        if i != perron:
            for j in range(n):
                vec = np.zeros(n + n * n)
                vec[n + j * n: n + (j + 1) * n] = z
                pairs.append(EigenPair(value=mu, vector=vec))
    return pairs


def eigenpair_residual_max(seed_graph: Graph) -> float:
    """Largest ||A v - lam v|| / ||v|| over the constructed one-step pairs."""
    g1 = corona_product(seed_graph, seed_graph)
    a = oracle.build_matrix(g1, ADJACENCY)
    worst = 0.0
    for pair in build_one_step_eigenpairs(seed_graph):
        v = pair.vector
        res = float(np.linalg.norm(a @ v - pair.value * v) / np.linalg.norm(v))
        worst = max(worst, res)
    return worst


# ---------------------------------------------------------------------------
# dispatch


def closed_form_spectrum(seed_graph: Graph, kind: str, m: int,
                         discrepancies: list | None = None) -> Spectrum | None:
    """Closed-form spectrum when the (seed, kind) pair supports one, else None.

    Regular seeds support all three kinds; star seeds support adjacency and
    signless via the cubic recursion; any connected seed supports the
    Laplacian.  Every closed form is m ``corona_step``s of the seed's
    ``step_rule``.
    """
    rule = step_rule(seed_graph, kind, discrepancies)
    if rule is None:
        return None
    s = rule[0]
    for _ in range(m):
        s = corona_step(s, *rule)
    return s


def spectrum_to_json(s: Spectrum, n: int) -> dict:
    """The stable wire form: kind, level, seed size, entries, provenance."""
    return {
        "kind": s.kind,
        "m": s.level,
        "n": n,
        "entries": [{"value": v, "multiplicity": w} for v, w in s.entries],
        "provenance": s.provenance,
    }
