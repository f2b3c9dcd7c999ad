"""Seed multiplicities against a 40-digit mpmath reference.

``make_spectrum`` joins LAPACK's seed values only within the eigensolve's
error, 64·n·ε·max|λ|.  Two K5s joined through a path of 12 to 18 nodes have
a top adjacency pair 4.4e-8 to 1.6e-11 apart, which LAPACK resolves, so it
must print as two values at m=0 and carry two lineages into m=1.  Only the
barbell's top value is main: eigh's vectors of the pair mix, and the weight
that leaks onto the other value must not make it main.  Two K5s with pendant
paths of 5 to 8 nodes have a top pair 8e-8 to 3.9e-10 apart whose values are
both main, so each keeps its own weight.  The reference groups mpmath's
eigenvalues that agree to 30 digits.
"""

import json
import math

import numpy as np
import pytest

from coronagraphs import cli, oracle
from coronagraphs.graph import Graph
from coronagraphs.spectral import ADJACENCY, closed_form_spectrum, seed_spectrum

mpmath = pytest.importorskip("mpmath")

DIGITS = 40
SAME = mpmath.mpf("1e-30")  # eigsy's values of one eigenvalue, and a zero weight
PATHS = (12, 14, 16, 18)


def barbell(path: int) -> Graph:
    """Two K5s, nodes 0-4 and the last five, joined through ``path`` nodes."""
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i, i + 1) for i in range(4, path + 5)]
    edges += [(path + 5 + i, path + 5 + j) for i in range(5) for j in range(i + 1, 5)]
    return Graph.from_edges(path + 10, edges)


def lollipops(a: int, b: int) -> Graph:
    """A K5 with a pendant path of ``a`` nodes beside a K5 with one of ``b``."""
    edges, start = [], 0
    for path in (a, b):
        edges += [(start + i, start + j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(start + i, start + i + 1) for i in range(4, path + 4)]
        start += path + 5
    return Graph.from_edges(start, edges)


def mp_groups(g: Graph) -> list:
    """[value, multiplicity, weight |P·1|^2] of each distinct adjacency
    eigenvalue of g, at DIGITS digits."""
    n = g.node_count
    groups = []
    with mpmath.workdps(DIGITS):
        vals, vecs = mpmath.eigsy(mpmath.matrix(oracle.build_matrix(g, ADJACENCY).tolist()))
        for i in sorted(range(n), key=lambda i: vals[i]):
            weight = mpmath.fsum(vecs[j, i] for j in range(n)) ** 2
            if groups and abs(vals[i] - groups[-1][0]) <= SAME:
                groups[-1][1] += 1
                groups[-1][2] += weight
            else:
                groups.append([vals[i], 1, weight])
    return groups


def mp_root(x, poles: list, weights: list, branch: int):
    """The ``branch``-th smallest root of λ - x = Σ w_j/(λ - θ_j), by
    bisection to DIGITS digits: a root can lie within 1e-6 of a pole of
    small weight, where Newton's steps lose digits."""
    def f(lam):
        return lam - x - mpmath.fsum(w / (lam - d) for w, d in zip(weights, poles))

    # f rises from -inf to +inf between neighbouring poles; every root lies
    # within sqrt(sum w) of the arrowhead's diagonal
    spread = mpmath.sqrt(mpmath.fsum(weights)) + 1
    edges = [min(x, poles[0]) - spread, *poles, max(x, poles[-1]) + spread]
    lo, hi = edges[branch], edges[branch + 1]
    while hi - lo > mpmath.mpf(10) ** -DIGITS * max(1, abs(hi)):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    return (lo + hi) / 2


def mp_level_one(groups: list, n: int) -> list:
    """(value, multiplicity) of each distinct adjacency eigenvalue of G∘G:
    the p + 1 roots of λ - x = Σ w_j/(λ - θ_j) over the p main θ_j for each
    seed value x, and each seed value n·(its multiplicity, less one if main)
    more times."""
    main = [(value, weight) for value, _, weight in groups if weight > SAME]
    poles, weights = [value for value, _ in main], [weight for _, weight in main]
    pairs = []
    with mpmath.workdps(DIGITS):
        for x, k, _ in groups:
            pairs += [(mp_root(x, poles, weights, b), k) for b in range(len(main) + 1)]
        pairs += [(value, n * (k - (weight > SAME))) for value, k, weight in groups
                  if k - (weight > SAME)]
        merged = []
        for value, k in sorted(pairs, key=lambda pair: pair[0]):
            if merged and abs(value - merged[-1][0]) <= SAME:
                merged[-1][1] += k
            else:
                merged.append([value, k])
    return merged


def assert_matches(spectrum, reference: list, n: int) -> None:
    """Every value within tol = 64·n·ε·max|λ| of the reference's, counted
    with multiplicity, and each reference value further than 2·tol from its
    neighbours one entry of its multiplicity.  Closer true values may round
    to one float64 (at m=1 on the 18-node path two lie 2.3e-17 apart), so
    only their total counts."""
    values = np.array([float(value) for value, _ in reference])
    mults = np.array([k for _, k in reference])
    tol = 64 * n * math.ulp(1.0) * np.abs(values).max()
    assert spectrum.total_multiplicity == mults.sum()
    assert np.abs(spectrum.expand() - np.repeat(values, mults)).max() <= tol
    apart = np.diff(values) > 2 * tol
    alone = np.concatenate(([True], apart)) & np.concatenate((apart, [True]))
    at = np.searchsorted(spectrum.values, values[alone] - tol)
    assert at.max() < len(spectrum.values)
    assert np.abs(spectrum.values[at] - values[alone]).max() <= tol
    assert spectrum.multiplicities[at].tolist() == mults[alone].tolist()


@pytest.mark.parametrize("path", PATHS)
def test_a_barbell_seed_keeps_its_top_pair_apart(path):
    g = barbell(path)
    groups = mp_groups(g)
    top = [float(value) for value, _, _ in groups[-2:]]
    assert 1e-11 < top[1] - top[0] < 1e-7
    spectrum = seed_spectrum(g, ADJACENCY)
    assert_matches(spectrum, [(value, k) for value, k, _ in groups], g.node_count)
    # LAPACK resolves the pair: each value is within 1 ulp of the true one
    assert all(abs(a - b) <= math.ulp(b) for a, b in zip(spectrum.values[-2:].tolist(), top))


@pytest.mark.parametrize("path", PATHS)
def test_a_barbell_seed_carries_two_lineages_into_level_one(path):
    g = barbell(path)
    n = g.node_count
    assert_matches(closed_form_spectrum(g, ADJACENCY, 1), mp_level_one(mp_groups(g), n), n)


def test_the_cli_prints_both_top_values(tmp_path, capsys):
    g = barbell(14)
    seed = tmp_path / "barbell.edges"
    seed.write_text(f"# n={g.node_count}\n" + "".join(
        f"{u} {v}\n" for u in range(g.node_count) for v in g.neighbors(u) if u < v))
    code = cli.main(["spectrum", "--seed", f"file:{seed}", "--m", "0", "--kind", "adjacency"])
    entries = json.loads(capsys.readouterr().out)["spectrum"]["entries"]
    assert code == cli.EXIT_OK
    top = [float(value) for value, _, _ in mp_groups(g)[-2:]]
    assert [entry["multiplicity"] for entry in entries[-2:]] == [1, 1]
    assert all(abs(entry["value"] - want) <= math.ulp(want)
               for entry, want in zip(entries[-2:], top))


@pytest.mark.parametrize("paths", [(5, 6), (6, 7), (7, 8)])
def test_two_close_main_values_keep_their_weights(paths):
    g = lollipops(*paths)
    n = g.node_count
    groups = mp_groups(g)
    assert 1e-10 < groups[-1][0] - groups[-2][0] < 1e-7
    assert min(groups[-1][2], groups[-2][2]) > 1
    assert_matches(seed_spectrum(g, ADJACENCY), [(value, k) for value, k, _ in groups], n)
    assert_matches(closed_form_spectrum(g, ADJACENCY, 1), mp_level_one(groups, n), n)
