"""Closed-form spectra against the dense eigensolver, plus the step algebra."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import reference
from conftest import (
    algebraic_connectivity,
    assert_close_rows,
    moment,
    random_connected_graph,
    random_graph,
    table_rows,
    zero_count,
)
from coronagraphs import oracle, spectral
from coronagraphs.graph import (
    CapExceededError,
    CoronaPlan,
    Graph,
    SeedDescriptor,
    complete_graph,
    connected_component_count,
    corona_iterate,
    corona_product,
    cycle_graph,
    edge_count_formula,
    node_count_formula,
    path_graph,
    star_graph,
)
from coronagraphs.spectral import (
    ADJACENCY,
    LAPLACIAN,
    RESIDUAL_CHUNK,
    SIGNLESS,
    Discrepancies,
    Spectrum,
    build_one_step_eigenpairs,
    closed_form_spectrum,
    corona_step,
    eigenpair_residual_max,
    entry_bound,
    make_spectrum,
    regular_degree,
    seed_spectrum,
    spectrum_to_json,
    star_cubic_roots,
    star_size,
    step_rule,
)

SQ3 = math.sqrt(3.0)
SQ21 = math.sqrt(21.0)
SQ37 = math.sqrt(37.0)
SQ13 = math.sqrt(13.0)


def level(spec: str, m: int) -> Graph:
    return corona_iterate(CoronaPlan(seed=SeedDescriptor.from_spec(spec), m=m))


def oracle_values(g: Graph, kind: str) -> np.ndarray:
    return oracle.sym_eigenvalues(oracle.build_matrix(g, kind))


def spectral_radius(s: Spectrum) -> float:
    return max(abs(v) for v in s.values)


def step(s: Spectrum, g: Graph) -> Spectrum:
    """One corona step of s under seed g's rule for s's kind."""
    return corona_step(s, *step_rule(g, s.kind))


class TestSpectrumType:
    def test_coalescing_merges_close_values(self):
        s = make_spectrum(ADJACENCY, [(1.0, 2), (1.0 + 1e-12, 3), (2.0, 1)], level=0)
        assert len(s.entries) == 2
        assert s.entries[0][1] == 5
        assert s.total_multiplicity == 6

    def test_distinct_values_kept(self):
        s = make_spectrum(ADJACENCY, [(1.0, 1), (1.0 + 1e-6, 1)], level=0)
        assert len(s.entries) == 2

    def test_expand_sorted(self):
        s = make_spectrum(ADJACENCY, [(2.0, 1), (-1.0, 2)], level=0)
        assert np.array_equal(s.expand(), [-1.0, -1.0, 2.0])

    def test_negative_laplacian_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_spectrum(LAPLACIAN, [(-0.5, 1)], level=0)

    def test_multiplicities_past_int64_stay_exact(self):
        # complete:50 at m=11 has entries of multiplicity above 2**63; the
        # step switches them to Python ints instead of letting int64 wrap
        s = closed_form_spectrum(complete_graph(50), ADJACENCY, 11)
        assert max(w for _, w in s.entries) > 2 ** 63
        assert s.total_multiplicity == node_count_formula(50, 11)
        assert s.total_multiplicity == 303_558_180_760_413_152_550
        below = closed_form_spectrum(complete_graph(50), ADJACENCY, 10)
        assert below.multiplicities.dtype == np.int64
        assert below.total_multiplicity == node_count_formula(50, 10)

    def test_coalescing_follows_the_scalar_rule_near_the_split_width(self):
        # the tolerance is 1e-9 * max(1, |a|, |b|), and runs split only at
        # gaps wider than twice that: 1 and 1+1e-12 merge, 1+3e-9 stays apart;
        # 2 and 2+1.5e-9 merge, within the tolerance but beyond half of it;
        # 3 and 3+4e-9 share a run yet stay apart, beyond the tolerance
        s = make_spectrum(ADJACENCY, [(5.0, 2), (1.0 + 3e-9, 1), (1.0, 1),
                                      (1.0 + 1e-12, 3), (5.0, 1), (2.0 + 1.5e-9, 1),
                                      (2.0, 1), (3.0 + 4e-9, 1), (3.0, 1)], level=0)
        assert s.entries == (((1.0 * 1 + (1.0 + 1e-12) * 3) / 4, 4),
                             (1.0 + 3e-9, 1),
                             ((2.0 * 1 + (2.0 + 1.5e-9) * 1) / 2, 2),
                             (3.0, 1), (3.0 + 4e-9, 1), (5.0, 3))

    def test_json_shape(self):
        s = make_spectrum(ADJACENCY, [(-1.0, 2), (2.0, 1)], level=0)
        payload = spectrum_to_json(s, 3)
        assert list(payload) == ["kind", "m", "n", "entries", "provenance"]
        assert payload["entries"][0] == {"value": -1.0, "multiplicity": 2}


class TestSeedHelpers:
    def test_regular_degree(self):
        assert regular_degree(complete_graph(4)) == 3
        assert regular_degree(cycle_graph(5)) == 2
        assert regular_degree(star_graph(4)) is None

    def test_star_size(self):
        assert star_size(star_graph(4)) == 4
        assert star_size(path_graph(3)) == 3  # P_3 is the 3-vertex star
        assert star_size(path_graph(4)) is None
        assert star_size(complete_graph(3)) is None

    def test_seed_spectrum_snaps_exact_values(self):
        assert seed_spectrum(complete_graph(3), ADJACENCY).entries == ((-1.0, 2), (2.0, 1))
        lap = seed_spectrum(star_graph(4), LAPLACIAN)
        assert lap.entries[0] == (0.0, 1)
        sig = seed_spectrum(cycle_graph(4), SIGNLESS)
        assert sig.entries[-1][0] == 4.0

    def test_seed_spectrum_snaps_every_component_of_a_regular_seed(self):
        triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert seed_spectrum(triangles, ADJACENCY).entries[-1] == (2.0, 2)
        assert seed_spectrum(triangles, SIGNLESS).entries[-1] == (4.0, 2)


class TestAdjacencyStep:
    def test_k3_level1_frozen(self):
        s0 = seed_spectrum(complete_graph(3), ADJACENCY)
        s1 = step(s0, complete_graph(3))
        expected = sorted([
            (2 - SQ3, 1), ((1 - SQ21) / 2, 2), (-1.0, 6),
            ((1 + SQ21) / 2, 2), (2 + SQ3, 1),
        ])
        assert s1.total_multiplicity == 12
        for (v, w), (ev, ew) in zip(s1.entries, expected):
            assert v == pytest.approx(ev, abs=1e-12)
            assert w == ew

    def test_single_node_seed_gives_k2(self):
        s0 = make_spectrum(ADJACENCY, [(0.0, 1)], level=0)
        s1 = step(s0, complete_graph(1))
        assert [(round(v, 12), w) for v, w in s1.entries] == [(-1.0, 1), (1.0, 1)]

    def test_trace_stays_zero(self):
        s0 = seed_spectrum(cycle_graph(4), ADJACENCY)
        s1 = step(s0, cycle_graph(4))
        assert moment(s1, 1) == pytest.approx(0.0, abs=1e-9)

    def test_kind_mismatch(self):
        lap = seed_spectrum(complete_graph(3), LAPLACIAN)
        adj = seed_spectrum(complete_graph(3), ADJACENCY)
        with pytest.raises(ValueError, match="adjacency"):
            corona_step(lap, *step_rule(complete_graph(3), ADJACENCY))

    def test_branch_family_sizes(self):
        # each entry spawns exactly two branch values, the appended family
        # carries (n-1) * input total, so the output total is (n+1) * input
        s0 = seed_spectrum(complete_graph(3), ADJACENCY)
        s1 = step(s0, complete_graph(3))
        s2 = step(s1, complete_graph(3))
        assert s1.total_multiplicity == 4 * s0.total_multiplicity
        assert s2.total_multiplicity == 4 * s1.total_multiplicity


class TestAdjacencySpectrumRegular:
    def test_m0_identity(self):
        g = complete_graph(3)
        assert closed_form_spectrum(g, ADJACENCY, 0) == seed_spectrum(g, ADJACENCY)

    @pytest.mark.parametrize("spec,m", [
        ("complete:3", 1), ("complete:3", 2), ("cycle:4", 1), ("cycle:4", 2),
        ("complete:4", 2),
    ])
    def test_matches_oracle(self, spec, m):
        seed = SeedDescriptor.from_spec(spec).graph
        closed = closed_form_spectrum(seed, ADJACENCY, m)
        rep = oracle.compare_spectra(closed, oracle_values(level(spec, m), ADJACENCY),
                                     tol=1e-8)
        assert rep.passed, rep

    def test_c4_level1_sums_to_zero(self):
        closed = closed_form_spectrum(cycle_graph(4), ADJACENCY, 1)
        assert closed.total_multiplicity == 20
        assert moment(closed, 1) == pytest.approx(0.0, abs=1e-9)

    def test_spectral_radius(self):
        seed = complete_graph(3)
        s1 = closed_form_spectrum(seed, ADJACENCY, 1)
        assert spectral_radius(s1) == pytest.approx(2 + SQ3, abs=1e-12)
        assert spectral_radius(seed_spectrum(seed, ADJACENCY)) == 2.0

    def test_radius_nondecreasing_in_m(self):
        seed = complete_graph(3)
        radii = [spectral_radius(closed_form_spectrum(seed, ADJACENCY, m))
                 for m in range(5)]
        assert all(b >= a for a, b in zip(radii, radii[1:]))


class TestLaplacian:
    def test_k3_step_frozen(self):
        s0 = seed_spectrum(complete_graph(3), LAPLACIAN)
        s1 = step(s0, complete_graph(3))
        table = {round(v, 9): w for v, w in s1.entries}
        assert table[0.0] == 1
        assert table[4.0] == 7
        assert table[round((7 - SQ37) / 2, 9)] == 2
        assert table[round((7 + SQ37) / 2, 9)] == 2
        assert moment(s1, 1) == pytest.approx(42.0)

    def test_zero_maps_to_zero_and_n_plus_one(self):
        s0 = make_spectrum(LAPLACIAN, [(0.0, 1)], level=0)
        s1 = step(s0, complete_graph(1))
        assert s1.entries == ((0.0, 1), (2.0, 1))

    def test_p3_seed_exactly_one_zero(self):
        closed = closed_form_spectrum(path_graph(3), LAPLACIAN, 1)
        assert closed.total_multiplicity == 12
        assert zero_count(closed) == 1

    @pytest.mark.parametrize("spec,m", [
        ("complete:3", 1), ("complete:3", 2), ("star:4", 1), ("star:4", 2),
        ("path:3", 2), ("cycle:4", 2), ("complete:4", 2),
    ])
    def test_matches_oracle(self, spec, m):
        seed = SeedDescriptor.from_spec(spec).graph
        closed = closed_form_spectrum(seed, LAPLACIAN, m)
        rep = oracle.compare_spectra(closed, oracle_values(level(spec, m), LAPLACIAN),
                                     tol=1e-8)
        assert rep.passed, rep
        assert zero_count(closed) == 1

    @staticmethod
    def assert_matches_oracle_with_one_zero_per_component(seed: Graph):
        c = connected_component_count(seed)
        g = seed
        for m in range(4):
            if g.node_count > 500:
                break
            closed = closed_form_spectrum(seed, LAPLACIAN, m)
            rep = oracle.compare_spectra(closed, oracle_values(g, LAPLACIAN), tol=1e-8)
            assert rep.passed, rep
            assert closed.entries[0] == (0.0, c)
            g = corona_product(g, seed)

    def test_disconnected_seed_takes_the_closed_form(self):
        # L·1 = 0 on every seed, which is all the step needs
        for seed in (Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
                     Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]),
                     Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]),
                     Graph.from_edges(3, [])):
            self.assert_matches_oracle_with_one_zero_per_component(seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_disconnected_seeds(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        while True:
            g = Graph.from_edges(n, rng.sample(pairs, rng.randrange(len(pairs))))
            if connected_component_count(g) > 1:
                break
        self.assert_matches_oracle_with_one_zero_per_component(g)

    def test_algebraic_connectivity(self):
        assert algebraic_connectivity(
            seed_spectrum(complete_graph(3), LAPLACIAN)) == pytest.approx(3.0)
        s1 = closed_form_spectrum(complete_graph(3), LAPLACIAN, 1)
        assert algebraic_connectivity(s1) == pytest.approx((7 - SQ37) / 2, abs=1e-12)

    def test_connectivity_below_one_for_all_seeds(self):
        for spec in ["complete:3", "path:3", "cycle:4", "star:4", "complete:4"]:
            seed = SeedDescriptor.from_spec(spec).graph
            for m in range(1, 5):
                s = closed_form_spectrum(seed, LAPLACIAN, m)
                assert algebraic_connectivity(s) < 1.0


class TestSignless:
    def test_k3_step_frozen(self):
        s0 = seed_spectrum(complete_graph(3), SIGNLESS)
        assert [w for _, w in s0.entries] == [2, 1]
        assert s0.entries[-1] == (4.0, 1)
        assert abs(s0.entries[0][0] - 1.0) <= 1e-15
        s1 = step(s0, complete_graph(3))
        table = {round(v, 9): w for v, w in s1.entries}
        assert table[8.0] == 1
        assert table[4.0] == 1
        assert table[2.0] == 6
        assert table[round((9 - SQ13) / 2, 9)] == 2
        assert table[round((9 + SQ13) / 2, 9)] == 2
        assert moment(s1, 1) == pytest.approx(42.0)
        assert spectral_radius(s1) == 8.0

    def test_bipartite_seed_signless_equals_laplacian(self):
        sig = seed_spectrum(cycle_graph(4), SIGNLESS)
        lap = seed_spectrum(cycle_graph(4), LAPLACIAN)
        assert np.allclose(sig.expand(), lap.expand(), atol=1e-10)

    @pytest.mark.parametrize("spec,m", [
        ("complete:3", 1), ("complete:3", 2), ("cycle:4", 1), ("cycle:4", 2),
        ("complete:4", 2),
    ])
    def test_matches_oracle(self, spec, m):
        seed = SeedDescriptor.from_spec(spec).graph
        closed = closed_form_spectrum(seed, SIGNLESS, m)
        rep = oracle.compare_spectra(closed, oracle_values(level(spec, m), SIGNLESS),
                                     tol=1e-8)
        assert rep.passed, rep


class TestStarCubics:
    def test_root_sum_identity(self):
        # the three adjacency roots sum to mu: the cosine triple cancels
        for mu in (-1.3, 0.0, math.sqrt(2), 2.5):
            roots = star_cubic_roots(np.array([mu]), 5, ADJACENCY)[0]
            assert sum(roots) == pytest.approx(mu, abs=1e-12)

    def test_largest_root_frozen(self):
        # eigensolver on A(S_3 o S_3) puts its largest eigenvalue at
        # 3.1307838872... which the mu = sqrt(2) cubic must reproduce
        roots = star_cubic_roots(np.array([math.sqrt(2)]), 3, ADJACENCY)[0]
        assert max(roots) == pytest.approx(3.130783887249892, abs=1e-9)
        top = oracle_values(corona_product(star_graph(3), star_graph(3)),
                            ADJACENCY)[-1]
        assert max(roots) == pytest.approx(top, abs=1e-9)

    def test_zero_mu_roots_appear_in_oracle_spectrum(self):
        numeric = oracle_values(corona_product(star_graph(3), star_graph(3)),
                                ADJACENCY)
        for root in star_cubic_roots(np.array([0.0]), 3, ADJACENCY)[0]:
            assert np.min(np.abs(numeric - root)) < 1e-8

    def test_adjacency_printed_form_agrees(self):
        sink = Discrepancies()
        for mu in (-2.0, 0.0, 1.7):
            star_cubic_roots(np.array([mu]), 4, ADJACENCY, discrepancies=sink)
        assert len(sink) == 0
        assert table_rows(sink) == []

    def test_signless_printed_form_deviates(self):
        sink = Discrepancies()
        roots = tuple(star_cubic_roots(np.array([0.0]), 3, SIGNLESS,
                                       discrepancies=sink, level=2)[0].tolist())
        want: list = []
        reference.star_cubic_roots(0.0, 3, SIGNLESS, discrepancies=want, level=2)
        assert len(sink) == 1
        (row,) = table_rows(sink)
        assert_close_rows([row], [want[0].row()])
        kind, k, level, *_, max_delta, note = row
        assert (kind, k, level, note) == (SIGNLESS, 3, 2, "")
        assert max_delta > 1e-3
        assert tuple(row[7:10]) == roots

    # mu spread over the signless star's range: the printed form misses
    # every root, so every row is a record
    MUS = np.linspace(0.0, 9.0, 7)

    @pytest.mark.parametrize("kind", [ADJACENCY, SIGNLESS])
    @pytest.mark.parametrize("k", range(3, 9))
    def test_arrowhead_roots_match_the_trig_cubic(self, k, kind):
        # the eigenvalues of the star's arrowhead against the trigonometric
        # roots of its secular cubic, one mu at a time
        mus = np.concatenate((np.linspace(-3.0 * k, 3.0 * k, 61), [0.0, 2.0, k - 1.0]))
        got = star_cubic_roots(mus, k, kind)
        for mu, row in zip(mus.tolist(), got.tolist()):
            want = reference.star_cubic_roots(mu, k, kind)
            for a, b in zip(row, want):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (mu, row, want)

    def test_wide_rows_get_their_note(self, monkeypatch):
        # tripling the printed numerator pushes the arccos argument out of
        # [-1, 1] on some rows: only those rows carry a note
        def tripled(coefficients):
            def patched(*args):
                *head, printed_num = coefficients(*args)
                return (*head, 3.0 * printed_num)
            return patched

        monkeypatch.setattr(spectral, "_star_cubic_coefficients",
                            tripled(spectral._star_cubic_coefficients))
        monkeypatch.setattr(reference, "star_cubic_coefficients",
                            tripled(reference.star_cubic_coefficients))
        sink = Discrepancies()
        for level, mus in enumerate((self.MUS, np.array([]), self.MUS[::-2])):
            star_cubic_roots(mus, 4, SIGNLESS, discrepancies=sink, level=level)
        want: list = []
        for level, mus in enumerate((self.MUS, np.array([]), self.MUS[::-2])):
            for mu in mus.tolist():
                reference.star_cubic_roots(mu, 4, SIGNLESS, discrepancies=want,
                                           level=level)
        notes = [row[-1] for row in table_rows(sink)]
        assert "" in notes
        assert any(note.startswith("printed-form arccos argument") for note in notes)
        assert_close_rows(table_rows(sink), [d.row() for d in want])

    def test_an_empty_table_has_twelve_empty_columns(self):
        assert [len(column) for column in Discrepancies().columns()] == [0] * 12

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            star_cubic_roots(0.0, 2, ADJACENCY)


class TestStarSpectra:
    def test_s3_level1_structure(self):
        s = closed_form_spectrum(star_graph(3), ADJACENCY, 1)
        assert s.total_multiplicity == 12
        assert zero_count(s, tol=1e-9) == 3  # k(k-2) appended zeros

    # star:6 at m=2 is 294 nodes
    STAR_CASES = [(k, m) for k in (3, 4, 5, 6) for m in (1, 2)]

    @pytest.mark.parametrize("k,m", STAR_CASES)
    def test_adjacency_matches_oracle(self, k, m):
        sink = Discrepancies()
        closed = closed_form_spectrum(star_graph(k), ADJACENCY, m, sink)
        rep = oracle.compare_spectra(closed, oracle_values(level(f"star:{k}", m),
                                                           ADJACENCY), tol=1e-8)
        assert rep.passed, rep
        assert rep.count_mismatched == 0
        want: list = []
        reference.star_spectrum(k, m, ADJACENCY, want)
        assert (len(sink), want) == (0, [])

    def test_zero_multiplicity_formula(self):
        k, m = 4, 2
        closed = closed_form_spectrum(star_graph(k), ADJACENCY, m)
        expected = k * (k - 2) * (k + 1) ** (m - 1)
        assert zero_count(closed, tol=1e-8) == expected
        numeric = oracle_values(level("star:4", 2), ADJACENCY)
        assert int(np.sum(np.abs(numeric) < 1e-8)) == expected

    @pytest.mark.parametrize("k,m", STAR_CASES)
    def test_signless_matches_oracle_with_discrepancies(self, k, m):
        sink = Discrepancies()
        closed = closed_form_spectrum(star_graph(k), SIGNLESS, m, sink)
        rep = oracle.compare_spectra(closed, oracle_values(level(f"star:{k}", m),
                                                           SIGNLESS), tol=1e-8)
        assert rep.passed, rep
        assert rep.count_mismatched == 0
        # the printed signless trig constant is off for every k, so the
        # verbatim formula must be flagged at each level
        assert len(sink) > 0
        want: list = []
        reference.star_spectrum(k, m, SIGNLESS, want)
        assert_close_rows(table_rows(sink), [d.row() for d in want])

    def test_signless_trace_identity(self):
        for k, m in [(3, 1), (4, 1), (4, 2)]:
            closed = closed_form_spectrum(star_graph(k), SIGNLESS, m)
            e = edge_count_formula(k, k - 1, m)
            assert moment(closed, 1) == pytest.approx(2.0 * e, rel=1e-9)

    def test_m0_is_seed(self):
        assert closed_form_spectrum(star_graph(4), ADJACENCY, 0).entries == (
            (-math.sqrt(3.0), 1), (0.0, 2), (math.sqrt(3.0), 1))


class TestEigenpairs:
    @pytest.mark.parametrize("seed_fn,n", [(complete_graph, 3), (cycle_graph, 4)])
    def test_residuals(self, seed_fn, n):
        seed = seed_fn(n)
        values, vectors = build_one_step_eigenpairs(seed)
        assert values.shape == (n * (n + 1),)
        assert vectors.shape == (n * (n + 1), n * (n + 1))
        assert np.linalg.matrix_rank(vectors) == n * (n + 1)  # an eigenbasis
        a = oracle.build_matrix(corona_product(seed, seed), ADJACENCY)
        for value, vector in zip(values, vectors.T):
            res = np.linalg.norm(a @ vector - value * vector)
            assert res <= 1e-8 * np.linalg.norm(vector)

    def test_mu_family_orthogonal_to_ones(self):
        seed = complete_graph(3)
        _, vectors = build_one_step_eigenpairs(seed)
        mu_family = [v for v in vectors.T if np.linalg.norm(v[:3]) <= 1e-12]
        assert len(mu_family) == 6
        for v in mu_family:
            assert abs(v.sum()) < 1e-10

    def test_residual_max_helper(self):
        # cycle:16 at m=1 has 272 pairs, more than one product's columns; the
        # reference is one matvec per pair, so only the sums' order differs
        for seed in (complete_graph(3), cycle_graph(16)):
            a = oracle.build_matrix(corona_product(seed, seed), ADJACENCY)
            values, vectors = build_one_step_eigenpairs(seed)
            per_pair = max(np.linalg.norm(a @ v - lam * v) / np.linalg.norm(v)
                           for lam, v in zip(values, vectors.T))
            got = eigenpair_residual_max(seed, a)
            assert got < 1e-12
            assert abs(got - per_pair) <= 1e-14

    def test_residual_max_reads_every_column(self):
        # A + u w^T, with w row c of the inverse of the vectors, moves column
        # c's residual alone, to 1e3 here: the first and last of each product
        seed = cycle_graph(16)
        a = oracle.build_matrix(corona_product(seed, seed), ADJACENCY)
        _, vectors = build_one_step_eigenpairs(seed)
        dual = np.linalg.inv(vectors)
        for c in (0, RESIDUAL_CHUNK - 1, RESIDUAL_CHUNK, len(vectors) - 1):
            u = np.zeros(len(a))
            u[0] = 1e3 * np.linalg.norm(vectors[:, c])
            got = eigenpair_residual_max(seed, a + np.outer(u, dual[c]))
            assert got == pytest.approx(1e3, rel=1e-9)

    def test_irregular_seed_rejected(self):
        with pytest.raises(ValueError, match="regular"):
            build_one_step_eigenpairs(star_graph(4))

    def test_disconnected_seed_rejected(self):
        # two triangles: 2-regular, but r = 2 is a double eigenvalue
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0),
                                             (3, 4), (4, 5), (5, 3)])
        with pytest.raises(ValueError, match="connected"):
            build_one_step_eigenpairs(two_triangles)


class TestDispatch:
    def test_regular_seed_supports_all_kinds(self):
        g = complete_graph(3)
        for kind in (ADJACENCY, LAPLACIAN, SIGNLESS):
            assert closed_form_spectrum(g, kind, 1) is not None

    def test_star_seed(self):
        g = star_graph(4)
        assert closed_form_spectrum(g, ADJACENCY, 1) is not None
        assert closed_form_spectrum(g, SIGNLESS, 1) is not None
        assert closed_form_spectrum(g, LAPLACIAN, 1) is not None

    def test_generic_seed_supports_all_kinds(self):
        for spec in ("path:4", "path:5"):
            g = SeedDescriptor.from_spec(spec).graph
            for kind in (ADJACENCY, LAPLACIAN, SIGNLESS):
                for m in (1, 2):
                    closed = closed_form_spectrum(g, kind, m)
                    assert closed.total_multiplicity == \
                        node_count_formula(g.node_count, m)

    def test_multiplicity_conservation(self):
        for spec in ["complete:3", "cycle:4", "star:4"]:
            seed = SeedDescriptor.from_spec(spec).graph
            n = seed.node_count
            for kind in (ADJACENCY, LAPLACIAN, SIGNLESS):
                for m in (1, 2, 3):
                    s = closed_form_spectrum(seed, kind, m)
                    assert s.total_multiplicity == n * (n + 1) ** m


GRID_SEEDS = ([SeedDescriptor.from_spec(spec).graph for spec in
               ("path:4", "path:5", "path:6", "star:5", "cycle:5", "complete:4")]
              + [random_graph(seed, True) for seed in range(8)]
              + [random_graph(100 + seed, False) for seed in range(8)])


class TestArrowheadStep:
    """Every seed and kind: p main eigenvalues, p + 1 roots per entry."""

    @pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN, SIGNLESS])
    @pytest.mark.parametrize("index", range(len(GRID_SEEDS)))
    def test_p_is_the_rank_of_the_walk_matrix(self, index, kind):
        g = GRID_SEEDS[index]
        seed, roots, tail = step_rule(g, kind)
        p = seed.total_multiplicity - tail.total_multiplicity
        assert p == reference.walk_matrix_rank(g, kind)
        assert roots(seed.values, 1).shape == (len(seed.values), p + 1)

    @pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN, SIGNLESS])
    @pytest.mark.parametrize("index", range(len(GRID_SEEDS)))
    def test_matches_the_oracle_on_a_grid(self, index, kind):
        g = GRID_SEEDS[index]
        level_g = g
        for m in (1, 2):
            level_g = corona_product(level_g, g)
            if level_g.node_count > 600:
                break
            closed = closed_form_spectrum(g, kind, m)
            rep = oracle.compare_spectra(closed, oracle_values(level_g, kind), tol=1e-10)
            assert rep.passed, (m, rep)

    def test_work_cap_refuses_before_the_first_step(self, monkeypatch):
        def step(*args):
            raise AssertionError("a corona step ran")

        # a random 200-node seed has about 200 main eigenvalues
        g = random_connected_graph(200, random.Random(5))
        seed, _, tail = step_rule(g, ADJACENCY)
        width = seed.total_multiplicity + 1 - tail.total_multiplicity
        monkeypatch.setattr(spectral, "corona_step", step)
        with pytest.raises(CapExceededError, match=f"{width}x{width} eigensolves may "
                           f"cost {len(seed.values) * width ** 3} "):
            closed_form_spectrum(g, ADJACENCY, 1)
        assert closed_form_spectrum(g, ADJACENCY, 0) == seed

    def test_work_cap_refuses_at_the_cap_not_below(self, monkeypatch):
        # path:5 A: p = 3, 5 entries at level 0 and 22 at level 1
        work = (5 + 22) * 4 ** 3
        monkeypatch.setattr(spectral, "WORK_CAP", work + 1)
        assert closed_form_spectrum(path_graph(5), ADJACENCY, 2).level == 2
        monkeypatch.setattr(spectral, "WORK_CAP", work)
        with pytest.raises(CapExceededError, match=f"may cost {work} .* by level 2, "
                           f"reaching the work cap of {work}"):
            closed_form_spectrum(path_graph(5), ADJACENCY, 2)


class TestEntryBound:
    CAP = spectral.ENTRY_CAP

    @pytest.mark.parametrize("spec,kind", [
        (spec, kind) for spec in ("complete:3", "cycle:4", "star:4", "star:5")
        for kind in (ADJACENCY, LAPLACIAN, SIGNLESS)] + [("path:4", LAPLACIAN)])
    def test_bounds_every_level(self, spec, kind):
        rule = step_rule(SeedDescriptor.from_spec(spec).graph, kind)
        seed, _, tail = rule
        s = seed
        for m in range(5):
            level, bound = entry_bound(seed, tail, m, self.CAP)
            assert level == m
            assert len(s.values) <= bound
            s = corona_step(s, *rule)

    @pytest.mark.parametrize("kind,width", [(ADJACENCY, 3), (SIGNLESS, 3),
                                            (LAPLACIAN, 2)])
    def test_star_cubics_spawn_three(self, kind, width):
        seed, _, tail = step_rule(star_graph(4), kind)
        e0 = len(seed.values)
        assert entry_bound(seed, tail, 1, self.CAP) == (1, width * e0 + len(tail.values))

    def test_exact_on_complete3_up_to_the_cap(self):
        # 3 * 2**m - 1 entries: nothing coalesces
        seed, _, tail = step_rule(complete_graph(3), ADJACENCY)
        assert len(closed_form_spectrum(complete_graph(3), ADJACENCY, 10).values) == \
            3 * 2 ** 10 - 1
        assert entry_bound(seed, tail, 20, self.CAP) == (20, 3_145_727)
        assert entry_bound(seed, tail, 21, self.CAP) == (21, 6_291_455)
        # a huge m stops at the first level over the cap
        assert entry_bound(seed, tail, 10 ** 9, self.CAP) == (21, 6_291_455)

    def test_closed_form_refuses_before_its_first_step(self, monkeypatch):
        def step(*args):
            raise AssertionError("a corona step ran")

        monkeypatch.setattr(spectral, "corona_step", step)
        with pytest.raises(CapExceededError, match="6291455 entries by level 21"):
            closed_form_spectrum(complete_graph(3), ADJACENCY, 21)

    def test_closed_form_refuses_at_the_cap_not_below(self, monkeypatch):
        # level 10 of complete:3 holds 3 * 2**10 - 1 entries
        monkeypatch.setattr(spectral, "ENTRY_CAP", 3 * 2 ** 10)
        assert closed_form_spectrum(complete_graph(3), ADJACENCY, 10) is not None
        monkeypatch.setattr(spectral, "ENTRY_CAP", 3 * 2 ** 10 - 1)
        with pytest.raises(CapExceededError, match="3071 entries by level 10, "
                           "reaching the entry cap of 3071"):
            closed_form_spectrum(complete_graph(3), ADJACENCY, 10)


class TestExactMultiplicities:
    """Distinct counts, exact zeros and the Kirchhoff sum at deep m, with no
    oracle.  A step spawns 2 values per entry (3 for a star) and appends the
    tail, so E_m = 2 E_{m-1} + |tail| (3 E_{m-1} + 1 for star:4) counts the
    entries before the joins; the counts below are E_m less the values a
    branch meets in the tail."""

    @pytest.mark.parametrize("spec,kind,m,count", [
        # 0 spawns n + 1 = 4, a tail value, at every level
        ("complete:3", LAPLACIAN, 20, 2 ** 21),
        ("complete:3", ADJACENCY, 20, 3 * 2 ** 20 - 1),
        ("cycle:5", SIGNLESS, 14, 5 * 2 ** 14 - 2),
        ("cycle:5", LAPLACIAN, 12, 5 * 2 ** 12 - 2),
        # 2 ** 13 true duplicates: the branches meet the tail at 2 +- sqrt(5)
        ("cycle:5", ADJACENCY, 14, 5 * 2 ** 14 - 2 - 2 ** 13),
        ("star:4", ADJACENCY, 9, (7 * 3 ** 9 - 1) // 2),
        ("star:4", SIGNLESS, 9, (7 * 3 ** 9 - 1) // 2),
    ])
    def test_distinct_counts(self, spec, kind, m, count):
        seed = SeedDescriptor.from_spec(spec).graph
        s = closed_form_spectrum(seed, kind, m)
        assert len(s.values) == count
        assert np.all(np.diff(s.values) > 0)
        assert s.total_multiplicity == node_count_formula(seed.node_count, m)

    @pytest.mark.parametrize("seed,m", [
        ("complete:5", 13), ("path:8", 9), ("two components", 9)])
    def test_laplacian_zero_is_exact_once_per_component(self, seed, m, tmp_path):
        if seed == "two components":
            # path:5 beside a triangle
            path = tmp_path / "two.edges"
            path.write_text("# n=8\n0 1\n1 2\n2 3\n3 4\n5 6\n6 7\n5 7\n")
            seed = f"file:{path}"
        g = SeedDescriptor.from_spec(seed).graph
        s = closed_form_spectrum(g, LAPLACIAN, m)
        assert s.entries[0] == (0.0, connected_component_count(g))
        assert s.values[1] > 0.0

    @staticmethod
    def kirchhoff_sum(n: int, m: int) -> Fraction:
        """Sum of 1/lambda over the nonzero L values of complete:n at level m.

        Each x > 0 spawns two roots with sum x + n + 1 and product x, so
        1/x+ + 1/x- = 1 + (n + 1)/x; 0 spawns 0 and n + 1; the tail is
        n + 1, n - 1 times per node of the level before.
        """
        s, nodes = Fraction(n - 1, n), n
        for _ in range(m):
            s = (nodes - 1) + (n + 1) * s + Fraction(1, n + 1) \
                + nodes * Fraction(n - 1, n + 1)
            nodes *= n + 1
        return s

    @pytest.mark.parametrize("n,m", [(3, 16), (5, 13), (3, 20)])
    def test_kirchhoff_sum_follows_its_exact_recurrence(self, n, m):
        # the smallest values weigh most: a cancelling lower root shows here
        s = closed_form_spectrum(complete_graph(n), LAPLACIAN, m)
        got = math.fsum(w / v for v, w in s.entries if v != 0.0)
        assert got == pytest.approx(float(self.kirchhoff_sum(n, m)), rel=1e-13)


class TestStepJoin:
    """The step joins equal floats and a tail value within COINCIDE_ULPS of a
    neighbour, and keeps every other pair of values apart."""

    TAIL_AT = 3.0

    def step_with(self, spawned, tail_value):
        """One step of a two-entry spectrum whose entries spawn ``spawned``,
        one row each, with a tail of ``tail_value`` at multiplicity 5."""
        s = make_spectrum(ADJACENCY, [(0.0, 1), (1.0, 2)], level=0)
        tail = make_spectrum(ADJACENCY, [(tail_value, 5)], level=0)
        return corona_step(s, s, lambda x, level: np.array(spawned), tail)

    def test_equal_spawned_floats_join(self):
        s = self.step_with([[7.0, 9.0], [7.0, 10.0]], 20.0)
        assert s.entries == ((7.0, 3), (9.0, 1), (10.0, 2), (20.0, 15))

    def test_spawned_floats_an_ulp_apart_stay_apart(self):
        near = float(np.nextafter(7.0, 8.0))
        s = self.step_with([[7.0, 9.0], [near, 10.0]], 20.0)
        assert s.entries == ((7.0, 1), (near, 2), (9.0, 1), (10.0, 2), (20.0, 15))

    @pytest.mark.parametrize("side", [-1, 1])
    def test_a_tail_value_within_coincide_ulps_joins(self, side):
        t = self.TAIL_AT + side * spectral.COINCIDE_ULPS * np.spacing(self.TAIL_AT)
        s = self.step_with([[1.0, self.TAIL_AT], [2.0, 10.0]], t)
        lo, hi = sorted([(self.TAIL_AT, 1), (t, 15)])
        assert s.entries == ((1.0, 1), (2.0, 2),
                             ((lo[0] * lo[1] + hi[0] * hi[1]) / 16, 16), (10.0, 2))

    @pytest.mark.parametrize("side", [-1, 1])
    def test_a_tail_value_beyond_coincide_ulps_stays_apart(self, side):
        t = self.TAIL_AT + side * (spectral.COINCIDE_ULPS + 1) * np.spacing(self.TAIL_AT)
        s = self.step_with([[1.0, self.TAIL_AT], [2.0, 10.0]], t)
        assert s.entries == tuple(sorted([(1.0, 1), (2.0, 2), (self.TAIL_AT, 1),
                                          (t, 15), (10.0, 2)]))
