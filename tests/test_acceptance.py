"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete.
"""

import math
import time

import numpy as np
import pytest

import reference
from conftest import algebraic_connectivity, moment, random_graph
from coronagraphs import oracle
from coronagraphs.distributions import cumulative_series, fit_exponential, fit_power_law
from coronagraphs.graph import (
    CoronaPlan,
    SeedDescriptor,
    corona_iterate,
    edge_count_formula,
    node_count_formula,
)
from coronagraphs.spectral import (
    ADJACENCY,
    LAPLACIAN,
    SIGNLESS,
    Discrepancies,
    build_one_step_eigenpairs,
    closed_form_spectrum,
)
from coronagraphs.structural import (
    betweenness_exact,
    betweenness_series,
    degree_histogram,
    diameter_formula,
    diameter_measured,
)

COUNT_SEEDS = ["complete:3", "path:3", "cycle:4", "star:4", "complete:5"]
SPECTRAL_MATRIX = [
    ("complete:3", (ADJACENCY, LAPLACIAN, SIGNLESS)),
    ("cycle:4", (ADJACENCY, LAPLACIAN, SIGNLESS)),
    ("complete:4", (ADJACENCY, LAPLACIAN, SIGNLESS)),
    ("star:3", (ADJACENCY, LAPLACIAN, SIGNLESS)),
    ("star:4", (ADJACENCY, LAPLACIAN, SIGNLESS)),
    ("path:3", (LAPLACIAN,)),
]
ALL_KINDS = (ADJACENCY, LAPLACIAN, SIGNLESS)


@pytest.fixture(scope="module")
def oracle_grid(tmp_path_factory):
    """Seeds with no closed form in the paper: paths, and random file seeds,
    connected and disconnected, each on every kind."""
    folder = tmp_path_factory.mktemp("seeds")
    grid = [("path:4", ALL_KINDS), ("path:5", ALL_KINDS)]
    for seed in range(4):
        for connected in (True, False):
            path = folder / f"{seed}-{connected}.edges"
            path.write_text(reference.edge_list_text(random_graph(seed, connected)))
            grid.append((f"file:{path}", ALL_KINDS))
    return grid


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def seed_for(spec: str) -> SeedDescriptor:
    return SeedDescriptor.from_spec(spec)


def level(spec: str, m: int):
    return corona_iterate(CoronaPlan(seed=seed_for(spec), m=m))


@pytest.fixture(scope="module")
def k3_m5():
    return level("complete:3", 5)


@pytest.fixture(scope="module")
def k3_m5_betweenness(k3_m5):
    start = time.perf_counter()
    b = betweenness_exact(k3_m5)
    return b, time.perf_counter() - start


def test_criterion_1_counts():
    start = time.perf_counter()
    ok = True
    for spec in COUNT_SEEDS:
        sd = seed_for(spec)
        n, e = sd.graph.node_count, sd.graph.edge_count
        for m in range(5):
            g = level(spec, m)
            ok &= g.node_count == node_count_formula(n, m)
            ok &= g.edge_count == edge_count_formula(n, e, m)
    # deeper-level spot checks for the 3-node seeds
    checkpoints = {1: 12, 2: 48, 3: 192, 5: 3072, 6: 12288, 7: 49152}
    for m, nodes in checkpoints.items():
        ok &= node_count_formula(3, m) == nodes
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(1, ok, f"exact node/edge counts for 5 seeds, m in [0,4] "
                  f"({elapsed:.2f}s < 5s)")


def test_criterion_2_diameter():
    start = time.perf_counter()
    ok = True
    for spec in COUNT_SEEDS:
        d0 = diameter_measured(seed_for(spec).graph)
        for m in range(4):
            ok &= diameter_measured(level(spec, m)) == diameter_formula(d0, m)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(2, ok, f"BFS diameter equals D0 + 2m for 5 seeds, m in [0,3] "
                  f"({elapsed:.2f}s < 30s)")


def test_criterion_3_cumulative_degree_law():
    g = level("complete:3", 6)
    cum = cumulative_series(degree_histogram(g))
    table = dict(zip(cum.values, cum.probabilities))
    worst = 0.0
    for j in range(6):
        # the cumulative law (n+1)**((r+1-k)/n), exact on this degree lattice
        k = 3 + 3 * j
        worst = max(worst, abs(table[float(k)] - 4.0 ** ((3 - k) / 3)))
    rate, _ = fit_exponential(cum)
    target = math.log(4.0) / 3.0
    rel = abs(rate - target) / target
    ok = worst <= 1e-12 and rel <= 0.05
    report(3, ok, f"lattice max delta {worst:.2e} <= 1e-12, exponential rate "
                  f"{rate:.4f} within {rel * 100:.2f}% of ln(4)/3")


def test_criterion_4_betweenness_power_law(k3_m5, k3_m5_betweenness):
    b, elapsed = k3_m5_betweenness
    ok = elapsed < 60.0
    fit = fit_power_law(betweenness_series(b))
    ok &= 1.7 <= fit.gamma <= 2.3
    # the per-source integer path count shares no code with the block-cut pass
    counts = reference.betweenness_clique_pathcount(k3_m5)
    max_delta = float(np.max(np.abs(counts - b)))
    ok &= max_delta <= 1e-9
    report(4, ok, f"3072-node Brandes in {elapsed:.2f}s < 60s, gamma_b = "
                  f"{fit.gamma:.4f} in [1.7, 2.3], path counting delta "
                  f"{max_delta:.2e} <= 1e-9")


def test_criterion_5_spectral_oracle_equivalence(oracle_grid):
    start = time.perf_counter()
    ok = True
    worst = 0.0
    cases = 0
    star_records = 0
    for spec, kinds in SPECTRAL_MATRIX + oracle_grid:
        sd = seed_for(spec)
        n = sd.graph.node_count
        for m in (1, 2):
            if node_count_formula(n, m) > 400:
                continue
            g = level(spec, m)
            for kind in kinds:
                discrepancies = Discrepancies()
                closed = closed_form_spectrum(sd.graph, kind, m, discrepancies)
                numeric = oracle.sym_eigenvalues(oracle.build_matrix(g, kind))
                match = oracle.compare_spectra(closed, numeric, tol=1e-8)
                # a star-formula deviation is acceptable only because the
                # secular roots (what closed_form_spectrum returns) match
                ok &= match.passed
                ok &= closed.total_multiplicity == g.node_count
                worst = max(worst, match.max_abs_delta)
                star_records += len(discrepancies)
                cases += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    ok &= star_records > 0  # the signless star typo must surface as records
    report(5, ok, f"{cases} (seed, kind, m) cases match the eigensolver, "
                  f"max delta {worst:.2e} <= 1e-8, {star_records} star "
                  f"discrepancy records ({elapsed:.1f}s < 120s)")


def test_criterion_6_trace_identities():
    ok = True
    worst = 0.0
    for spec, kinds in SPECTRAL_MATRIX:
        sd = seed_for(spec)
        n, e = sd.graph.node_count, sd.graph.edge_count
        for m in range(1, 7):
            edges2 = 2.0 * edge_count_formula(n, e, m)
            for kind in kinds:
                s = closed_form_spectrum(sd.graph, kind, m)
                if kind == ADJACENCY:
                    rel1 = abs(moment(s, 1)) / edges2
                    rel2 = abs(moment(s, 2) - edges2) / edges2
                    worst = max(worst, rel1, rel2)
                else:
                    worst = max(worst, abs(moment(s, 1) - edges2) / edges2)
    ok &= worst <= 1e-9
    report(6, ok, f"trace identities up to m=6 hold at relative {worst:.2e} <= 1e-9")


def test_criterion_7_algebraic_connectivity():
    ok = True
    for spec, _ in SPECTRAL_MATRIX:
        sd = seed_for(spec)
        for m in range(1, 7):
            s = closed_form_spectrum(sd.graph, LAPLACIAN, m)
            ok &= algebraic_connectivity(s) < 1.0
    closed = algebraic_connectivity(
        closed_form_spectrum(seed_for("complete:3").graph, LAPLACIAN, 1))
    exact = (7.0 - math.sqrt(37.0)) / 2.0
    numeric = oracle.sym_eigenvalues(
        oracle.build_matrix(level("complete:3", 1), LAPLACIAN))[1]
    ok &= abs(closed - exact) <= 1e-9
    ok &= abs(closed - numeric) <= 1e-9
    report(7, ok, f"a(lambda_2) < 1 for all seeds, m in [1,6]; K_3 level 1 gives "
                  f"{closed:.9f} = (7 - sqrt(37))/2 within 1e-9 of the oracle")


def test_criterion_8_eigenpair_residuals():
    ok = True
    worst = 0.0
    for spec in ("complete:3", "cycle:4"):
        sd = seed_for(spec)
        n = sd.graph.node_count
        values, vectors = build_one_step_eigenpairs(sd.graph)
        ok &= vectors.shape == (n * (n + 1), n * (n + 1)) == (len(values),) * 2
        a = oracle.build_matrix(level(spec, 1), ADJACENCY)
        for value, vector in zip(values, vectors.T):
            res = float(np.linalg.norm(a @ vector - value * vector)
                        / np.linalg.norm(vector))
            worst = max(worst, res)
    ok &= worst <= 1e-8
    report(8, ok, f"all one-step eigenpairs for K_3 and C_4 have residual "
                  f"{worst:.2e} <= 1e-8")
