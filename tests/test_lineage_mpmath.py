"""Deep lineages of the arrowhead step against a 40-digit mpmath reference.

At m = 12 path:5 has millions of entries, past the entry cap, so the deep
levels are checked one lineage at a time: a seed value, then at each level
one of the p + 1 values its entry spawns, chosen at random.  The reference
takes the seed's main eigenvalues theta_j and weights w_j = |P_j·1|^2 from
mpmath's own symmetric eigensolver at 40 digits, and finds the chosen root
of lambda - x - top = sum_j w_j / (lambda - theta_j - shift) by bisection
between its poles, then Newton.  The package's float64 lineage must stay
within 1e-12 of it, relative, at every level.
"""

import random

import numpy as np
import pytest

from coronagraphs import oracle
from coronagraphs.graph import SeedDescriptor
from coronagraphs.spectral import ADJACENCY, SIGNLESS, step_rule

mpmath = pytest.importorskip("mpmath")

DIGITS = 40
DEPTH = 12
LINEAGES = 100  # per case, 300 in all
SAME = mpmath.mpf("1e-30")  # eigsy's values of one eigenvalue, and a zero weight


def mp_seed(spec: str, kind: str):
    """(top, distinct seed values, main poles, main weights) at DIGITS digits."""
    g = SeedDescriptor.from_spec(spec).graph
    n = g.node_count
    top, shift = (0, 0) if kind == ADJACENCY else (n, 1)
    groups = []  # [value, weight]
    with mpmath.workdps(DIGITS):
        vals, vecs = mpmath.eigsy(mpmath.matrix(oracle.build_matrix(g, kind).tolist()))
        for i in sorted(range(n), key=lambda i: vals[i]):
            weight = mpmath.fsum(vecs[j, i] for j in range(n)) ** 2
            if groups and abs(vals[i] - groups[-1][0]) <= SAME:
                groups[-1][1] += weight
            else:
                groups.append([vals[i], weight])
    main = [(v + shift, w) for v, w in groups if w > SAME]
    return top, [v for v, _ in groups], [v for v, _ in main], [w for _, w in main]


def mp_root(x, top, poles, weights, branch: int):
    """The ``branch``-th smallest root for the entry x."""
    def f(lam):
        return lam - x - top - mpmath.fsum(w / (lam - d) for w, d in zip(weights, poles))

    def slope(lam):
        return 1 + mpmath.fsum(w / (lam - d) ** 2 for w, d in zip(weights, poles))

    # f rises from -inf to +inf between neighbouring poles; every root lies
    # within sqrt(sum w) of the arrowhead's diagonal
    spread = mpmath.sqrt(mpmath.fsum(weights)) + 1
    edges = [min(x + top, poles[0]) - spread, *poles, max(x + top, poles[-1]) + spread]
    lo, hi = edges[branch], edges[branch + 1]
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    lam = (lo + hi) / 2
    for _ in range(4):
        lam -= f(lam) / slope(lam)
    assert lo <= lam <= hi and abs(f(lam)) < mpmath.mpf(10) ** (5 - DIGITS)
    return lam


@pytest.mark.parametrize("spec,kind", [("path:5", ADJACENCY), ("star:4", ADJACENCY),
                                       ("star:4", SIGNLESS)])
def test_lineages_match_mpmath(spec, kind):
    seed, roots, _ = step_rule(SeedDescriptor.from_spec(spec).graph, kind)
    top, values, poles, weights = mp_seed(spec, kind)
    p = len(poles)
    assert len(values) == len(seed.values)
    rng = random.Random(f"{spec} {kind}")
    starts = [rng.randrange(len(values)) for _ in range(LINEAGES)]
    branches = [[rng.randrange(p + 1) for _ in range(DEPTH)] for _ in range(LINEAGES)]

    xs = seed.values[starts]
    with mpmath.workdps(DIGITS):
        refs = [values[i] for i in starts]
        for level in range(1, DEPTH + 1):
            rows = roots(xs, level)
            assert rows.shape == (LINEAGES, p + 1)
            picked = [b[level - 1] for b in branches]
            xs = rows[np.arange(LINEAGES), picked]
            refs = [mp_root(x, top, poles, weights, b) for x, b in zip(refs, picked)]
            for got, want in zip(xs.tolist(), refs):
                want = float(want)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (level, got, want)
