"""The one corona step against the per-kind steps and the star driver it
replaces, and the array step against the per-entry step."""

import random

import pytest

from coronagraphs import spectral

from coronagraphs.graph import Graph, SeedDescriptor
from coronagraphs.spectral import (
    ADJACENCY,
    LAPLACIAN,
    SIGNLESS,
    Discrepancies,
    Spectrum,
    closed_form_spectrum,
    corona_step,
    regular_degree,
    step_rule,
)

import reference
from conftest import assert_close_rows, random_connected_graph, table_rows

REGULAR_SEEDS = ["complete:3", "complete:4", "complete:5",
                 "cycle:4", "cycle:5", "cycle:6"]


def assert_same_records(got: Discrepancies, want: list) -> None:
    """The table's rows equal the reference's records, floats and notes by
    ``==`` and by repr, so -0.0 and 0.0 differ too."""
    rows, records = table_rows(got), [d.row() for d in want]
    assert len(got) == len(want)
    assert rows == records
    assert repr(rows) == repr(records)


def assert_same_spectrum(got: Spectrum, want: Spectrum) -> None:
    assert got.kind == want.kind
    assert got.level == want.level
    assert [w for _, w in got.entries] == [w for _, w in want.entries]
    for (v, _), (ref, _) in zip(got.entries, want.entries):
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref)), (v, ref)


def assert_steps_agree(g: Graph, kind: str, m: int) -> None:
    """At every level up to m, the new step agrees with the old one on the
    same input, and the new recursion with the old recursion."""
    n, r = g.node_count, regular_degree(g)
    seed, roots, drop = step_rule(g, kind)
    got = want = seed
    for _ in range(m):
        step = corona_step(got, seed, roots, drop)
        assert_same_spectrum(step, reference.quadratic_step(got, seed, n, r))
        want = reference.quadratic_step(want, seed, n, r)
        assert_same_spectrum(step, want)
        got = step


@pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN, SIGNLESS])
@pytest.mark.parametrize("spec", REGULAR_SEEDS)
def test_regular_seeds_every_kind(spec, kind):
    assert_steps_agree(SeedDescriptor.from_spec(spec).graph, kind, 6)


@pytest.mark.parametrize("spec", ["path:4", "star:5"])
def test_laplacian_irregular_builtin_seeds(spec):
    assert_steps_agree(SeedDescriptor.from_spec(spec).graph, LAPLACIAN, 4)


@pytest.mark.parametrize("seed", range(10))
def test_laplacian_random_connected_seeds(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng.randrange(4, 10), rng)
    assert_steps_agree(g, LAPLACIAN, 4)



@pytest.mark.parametrize("kind", [ADJACENCY, SIGNLESS])
@pytest.mark.parametrize("k", range(3, 8))
def test_star_seeds_match_the_star_driver(k, kind):
    g = SeedDescriptor.from_spec(f"star:{k}").graph
    for m in range(6):
        got_records, want_records = Discrepancies(), []
        got = closed_form_spectrum(g, kind, m, got_records)
        want = reference.star_spectrum(k, m, kind, want_records)
        # the arrowhead's eigenvalues against the trig roots of the cubic
        assert_same_spectrum(got, want)
        assert_close_rows(table_rows(got_records), [d.row() for d in want_records])


def assert_exact_levels(g: Graph, kind: str, m: int) -> None:
    """Every level of the array step equals the per-entry step's, bit for bit,
    and so do the star discrepancy records."""
    want_records: list = []
    want = reference.scalar_levels(g, kind, m, want_records)
    got_records = Discrepancies()
    seed, roots, drop = step_rule(g, kind, got_records)
    got = seed
    for level in range(m + 1):
        if level:
            got = corona_step(got, seed, roots, drop)
        assert got.entries == want[level], (kind, level)
        assert repr(got.entries) == repr(want[level]), (kind, level)
    assert_same_records(got_records, want_records)
    assert closed_form_spectrum(g, kind, m).entries == want[m]


@pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN, SIGNLESS])
@pytest.mark.parametrize("spec", REGULAR_SEEDS)
def test_array_step_is_exact_on_regular_seeds(spec, kind):
    assert_exact_levels(SeedDescriptor.from_spec(spec).graph, kind, 8)


@pytest.mark.parametrize("kind", [ADJACENCY, SIGNLESS])
@pytest.mark.parametrize("spec", ["star:3", "star:4", "star:5"])
def test_array_step_is_exact_on_star_seeds(spec, kind):
    assert_exact_levels(SeedDescriptor.from_spec(spec).graph, kind, 6)


@pytest.mark.parametrize("kind", [ADJACENCY, SIGNLESS])
@pytest.mark.parametrize("spec", ["path:4", "path:5"])
def test_array_step_is_exact_on_path_seeds(spec, kind, monkeypatch):
    # a few arrowheads a stack: every level splits into chunks
    monkeypatch.setattr(spectral, "ARROWHEAD_CHUNK", 80)
    assert_exact_levels(SeedDescriptor.from_spec(spec).graph, kind, 6)


def test_array_step_is_exact_on_path4_laplacian():
    assert_exact_levels(SeedDescriptor.from_spec("path:4").graph, LAPLACIAN, 8)


@pytest.mark.parametrize("seed", range(10))
def test_array_step_is_exact_on_random_laplacian(seed):
    rng = random.Random(100 + seed)
    g = random_connected_graph(rng.randrange(4, 10), rng)
    assert_exact_levels(g, LAPLACIAN, 6)
