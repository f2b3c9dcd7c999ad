"""floattext.float_cells against float.__repr__, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronagraphs.floattext import CELL, _table, float_cells
from coronagraphs.graph import cells_text
from floattext_soak import EXACT, exact_constants


def texts(x: np.ndarray) -> list[str]:
    """The text of each cell of ``x``, one a line."""
    cells = np.concatenate([float_cells(x), np.full((len(x), 1), ord("\n"), np.uint8)], axis=1)
    return cells_text(cells).split("\n")[:-1]


def with_neighbours(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def signed(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, -x])


def corpus() -> np.ndarray:
    info = np.finfo(np.float64)
    edges = [0.0, 5e-324, info.smallest_normal - 5e-324, info.smallest_normal, info.max]
    powers2 = np.ldexp(1.0, np.arange(-1074, 1024))
    powers10 = np.array([float(f"1e{e}") for e in range(-323, 309)])
    # repr switches to exponent form below 1e-4 and from 1e16 up
    switches = np.outer([1.0, 9.999999999999999, 5.5], 10.0 ** np.arange(-5, -2)).ravel()
    switches = np.concatenate([switches, switches * 1e20])
    integral = np.concatenate([np.arange(0.0, 1025.0), 2.0 ** 53 + np.arange(-64.0, 65.0),
                               2.0 ** 63 + np.arange(-8, 9) * 2.0 ** 11, [9007199254740993.0]])
    short = np.array([0.1, 0.2, 0.3, 0.1 + 0.2, 0.5, 1.5, 2.5, 1e22, 1e23, 123456789.0])
    return signed(np.concatenate([edges, with_neighbours(powers2), with_neighbours(powers10),
                                  with_neighbours(switches), integral, short]))


def test_corpus_matches_repr():
    x = corpus()
    assert texts(x) == list(map(repr, x.tolist()))


def test_specials_match_repr():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0])
    assert texts(x) == ["0.0", "-0.0", "inf", "-inf", "nan", "nan", "1.0"]


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(20240521).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64,
                                                     endpoint=False)
    x = bits.view(np.float64)
    for part in np.array_split(x, 8):
        assert texts(part) == list(map(repr, part.tolist()))


def test_exact_exponents_are_those_whose_low_limbs_are_left_out():
    assert [b for b in range(1, 2047) if _table(b, b)[1]] == list(EXACT)


def test_random_exact_constant_patterns_match_repr():
    # blocks whose exponents all have exact constants skip G's low limbs;
    # full-range patterns never do
    rng = np.random.default_rng(20240521)
    for _ in range(64):
        x = exact_constants(rng, 8192)
        biased = x.view(np.int64) >> 52 & 2047
        assert _table(int(biased.min()), int(biased.max()))[1] >= 2
        assert texts(x) == list(map(repr, x.tolist()))


@pytest.mark.parametrize("count", [1, 2, 7])
def test_cells_are_nul_padded_and_fixed_width(count):
    cells = float_cells(np.linspace(-1.5, 2.25, count))
    assert cells.shape == (count, 32) and CELL == 32 and cells.dtype == np.uint8
    assert all(set(row.tobytes()) <= set(b"\0-0123456789.e+") for row in cells)


def test_the_longest_reprs_fit():
    x = np.array([-2.2250738585072014e-308, -1.7976931348623157e+308, -5e-324])
    assert texts(x) == ["-2.2250738585072014e-308", "-1.7976931348623157e+308", "-5e-324"]


def ulps_from(x: float, steps: int) -> float:
    """The double ``steps`` units in the last place above positive ``x``."""
    return float((np.array([x]).view(np.int64) + steps).view(np.float64)[0])


VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.integers(-(2 ** 62), 2 ** 62).map(float),
    # repr switches to exponent form below 1e-4 and from 1e16 up
    st.builds(lambda switch, steps, sign: sign * ulps_from(switch, steps),
              st.sampled_from([1e-4, 1e16]), st.integers(-40, 40), st.sampled_from([1.0, -1.0])),
    # short decimals, most of whose digits are trailing zeros
    st.builds(lambda digits, exp: float(f"{digits}e{exp}"),
              st.integers(1, 10 ** 17), st.integers(-22, 6)))


@settings(max_examples=300, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=400))
def test_random_arrays_match_repr(values):
    x = np.array(values, dtype=np.float64)
    assert texts(x) == list(map(repr, x.tolist()))
