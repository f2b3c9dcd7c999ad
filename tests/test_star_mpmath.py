"""The deep star recursion, and the smallest nonzero Laplacian value of a
deep complete corona, against 50-digit mpmath references.

The dense oracle's 5,000-node cap stops its checks of star:4 at m = 3, so
the deeper levels are checked here against the same recursion run at 50
digits: every entry spawns the roots of the star's secular equation, found
by ``mpmath.polyroots``, and the seed values orthogonal to the all-ones
vector are appended with the previous node count's multiplicity.
"""

import pytest

from coronagraphs.graph import complete_graph, star_graph
from coronagraphs.spectral import ADJACENCY, LAPLACIAN, SIGNLESS, closed_form_spectrum

mpmath = pytest.importorskip("mpmath")

K = 4
DEPTH = 5
DIGITS = 50
SAME = mpmath.mpf("1e-30")  # only values equal by construction merge


def polymul(p, q):
    """Product of two polynomials, coefficients highest power first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def secular_cubic(x, k, kind):
    """The cubic, highest power first, whose roots an entry x spawns.

    The coronal chi(t) = 1^T (tI - M)^-1 1 of the star on k nodes is
    (k t + 2(k-1)) / (t^2 - (k-1)) for M = A, and (k t - (k-2)^2) / (t (t-k))
    for M = Q.  An adjacency entry x spawns the roots of lam - x = chi_A(lam).
    In Q the host vertex gains k in degree and every copy vertex 1, so a
    signless entry spawns the roots of lam - x - k = chi_Q(lam - 1).
    Clearing the denominators gives the cubics below.
    """
    if kind == ADJACENCY:
        left = polymul([1, -x], [1, 0, -(k - 1)])
        right = [0, 0, k, 2 * (k - 1)]
    else:
        left = polymul(polymul([1, -(x + k)], [1, -1]), [1, -(k + 1)])
        right = [0, 0, k, -k - (k - 2) ** 2]
    return [a - b for a, b in zip(left, right)]


def merge(pairs):
    out = []
    for v, w in sorted(pairs, key=lambda p: p[0]):
        if out and abs(v - out[-1][0]) <= SAME * max(1, abs(v)):
            out[-1][1] += w
        else:
            out.append([v, w])
    return out


def mp_levels(k, kind, depth):
    """Entries [value, multiplicity] of levels 0..depth, at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        if kind == ADJACENCY:
            root = mpmath.sqrt(k - 1)
            s = [[-root, 1], [mpmath.mpf(0), k - 2], [root, 1]]
            appended = mpmath.mpf(0)
        else:
            s = [[mpmath.mpf(0), 1], [mpmath.mpf(1), k - 2], [mpmath.mpf(k), 1]]
            appended = mpmath.mpf(2)
        levels = [s]
        total = k
        for _ in range(depth):
            pairs = []
            for x, w in s:
                roots = mpmath.polyroots(secular_cubic(x, k, kind),
                                         maxsteps=200, extraprec=4 * DIGITS)
                for r in roots:
                    assert abs(mpmath.im(r)) <= SAME
                    pairs.append((mpmath.re(r), w))
            pairs.append((appended, (k - 2) * total))
            s = merge(pairs)
            levels.append(s)
            total *= k + 1
    return levels


@pytest.mark.parametrize("kind", [ADJACENCY, SIGNLESS])
def test_star4_recursion_matches_mpmath(kind):
    for m, want in enumerate(mp_levels(K, kind, DEPTH)):
        got = closed_form_spectrum(star_graph(K), kind, m)
        assert [w for _, w in got.entries] == [w for _, w in want], m
        for (v, _), (ref, _) in zip(got.entries, want):
            ref = float(ref)
            assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref)), (m, v, ref)


def test_complete3_algebraic_connectivity_matches_mpmath():
    """a(G), the smallest nonzero L value, follows the lower root of its
    predecessor: 0 spawns 0 and n + 1, every other value spawns two roots
    above it, and the tail is n + 1.  The lower root is about x / (n + 1),
    so at m = 20 it is 12 orders below the roots' sum, where a difference
    of the two would cancel."""
    n, m = 3, 20
    with mpmath.workdps(DIGITS):
        a = mpmath.mpf(n)
        for _ in range(m):
            t = a + n + 1
            a = (t - mpmath.sqrt(t * t - 4 * a)) / 2
        want = float(a)
    s = closed_form_spectrum(complete_graph(n), LAPLACIAN, m)
    assert s.entries[0] == (0.0, 1)
    assert abs(s.values[1] - want) <= 1e-14 * want
