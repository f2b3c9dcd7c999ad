"""The text of every number a command prints, as rows of NUL-padded ASCII
cells: 4-digit groups of an integer (``digit_groups``, as ``edge_lines``
writes the edge list), a float's ``repr`` in 32 bytes (``float_cells``) and
tables (``rows``); ``cells_text`` deletes the NULs.

Float digits by Schubfach (Giulietti 2020, "The Schubfach way to render doubles";
Ryu, Adams 2018, PLDI, finds the same): the rounding interval of c * 2**q
holds at most one multiple of 10**(k+1), k = floor(log10 of its width), the
answer if there; else the closest multiple of 10**k.  Value and bounds times
4 * 10**-k are c times a 126-bit constant per exponent (exact Python ints,
for the exponents present), in 30-bit limbs of int64 arrays, rounded to odd.
The 17 digits are ASCII in bytes 7-23 of a cell, and a byte lower in a copy
kept before the point; masks by layout keep the digits after it.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from itertools import chain

import numpy as np

CELL = 32   # bytes of a float's cell; the longest repr, -2.2250738585072014e-308, is 24
_LIMB, _HIGH, _INF = (1 << 30) - 1, (1 << 63) - 1, 0x7FF0000000000000
_TENS = 10 ** np.arange(18)
_GROUP = 10_000  # integers are printed 4 decimal digits at a time
_SEPARATORS = np.frombuffer(b" \0\0\0\n\0\0\0", dtype=np.uint32)   # after u, after v
# floats per chunk of a table written in array passes (rows, if it has no
# %r): 4,096 or 16,384 cost 5-15% more a float than 8,192 (2 CPUs, numpy 2.4)
CHUNK_FLOATS = 8192
# below this many floats, one % pass writes a table faster than the array
# passes, whose float_cells call alone costs about 0.11 ms: they break even
# at about 270 floats in rows of one (entries, csv), 300 in rows of two
# (points) and 360 in discrepancy records of eight
ARRAY_FLOATS = 256


@functools.cache
def _scale(biased: int, asym: int) -> tuple[int, ...]:
    """For a biased exponent (of a power of 2 if ``asym``): k, the 30-bit
    limbs of G, lowest first, with G * 4c / 2**127 = 4 * 10**-k * c * 2**q;
    then, for the gaps D to the lower and upper bounds, D >> 127, bits 64 to
    126 of D and a signed threshold on bits 0 to 63.  G is g = floor(10**-k *
    2**shift) + 1 times 2**h, h in [2, 5], at most 2**5 over exact; or exact,
    where that is whole and 2**62 divides it, leaving 4c * G no bit below 64."""
    q = max(biased, 1) - 1075
    k = (q * 661971961083 - asym * 274743187321) >> 41
    shift = 125 - ((-k * 913124641741) >> 38)   # 125 - floor(-k * log2(10))
    g = (10 ** max(-k, 0) << max(shift, 0)) // (10 ** max(k, 0) << max(-shift, 0))
    big = (g + (k > 0 or q - k < -65)) << (q + 127 - shift)
    lower, upper = big * (2 - asym), big * 2   # 4c less 2 (1 below a power of 2), plus 2
    return (k, *((big >> (30 * i)) & _LIMB for i in range(5)),
            lower >> 127, (lower >> 64) & _HIGH, lower % (1 << 64) - (1 << 63),
            upper >> 127, (upper >> 64) & _HIGH, _HIGH - upper % (1 << 64))


@functools.lru_cache(maxsize=64)
def _table(low: int, high: int) -> tuple[np.ndarray, int]:
    """_scale of biased exponents low to high, sym and asym (as sym at 1), a
    column each, less the low limbs of G that are all 0; and their count."""
    table = np.array([_scale(b, a and b > 1) for b in range(low, high + 1) for a in (0, 1)]).T
    zero = next(i for i in range(5) if table[1 + i].any())
    return np.delete(table, range(1, 1 + zero), axis=0), zero


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """By key 18 * (head + 3) + kept, for the digits before the point (20 for
    the exponent form, as 1) and those kept: the masks of the digits and of
    the copy, then the point, "0." and its zeros, and ".0"'s 0, in 10 words.
    By p + 323 (the value is 0.d * 10**p): the key's head part, the exponent
    word.  4-digit groups in ASCII, and 4 bytes up.  0.0, -0.0, inf, -inf, nan."""
    rows = bytearray()
    for form in range(-3, 18):
        head = 1 if form == 17 else form
        for kept in range(18):
            upper, lower, text = bytearray(24), bytearray(24), bytearray(32)
            lower[6:6 + head] = b"\xff" * max(head, 0)
            upper[7 + head:7 + max(kept, head)] = b"\xff" * max(kept - head, 0)
            text[6 + head] = ord(".") * (form < 17 or kept > 1)
            if head <= 0:
                text[5 + head:7] = b"0." + b"0" * -head
            text[24] = ord("0") * (form < 17 and kept <= head)
            rows += upper + lower + text
    fixed = [(p, -4 < p < 17) for p in range(-323, 310)]   # every double's p
    exps = b"".join((b"" if f else b"e%+03d" % (p - 1)).ljust(8, b"\0") for p, f in fixed)
    groups = _group_ascii()[:_GROUP].astype(np.int64)
    texts = b"".join(t.ljust(CELL, b"\0") for t in b"0.0 -0.0 inf -inf nan nan".split())
    return (np.frombuffer(bytes(rows), np.int64).reshape(-1, 10).T.copy(),
            np.array([18 * (p + 3 if f else 20) for p, f in fixed]), np.frombuffer(exps, np.int64),
            groups, groups << 32, np.frombuffer(texts, np.int64).reshape(-1, 4))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k): the shortest decimal f * 10**k that reads back as each
    positive finite double of ``bits``, the closest to it of those.  vbl, vb
    and vbr, G * (4c - 2, or - 1), G * 4c and G * (4c + 2) over 2**127, are
    rounded to odd; as a product exceeds the exact one by less than 2**60, it
    is whole where bits 64 to 126 are 0.  One product serves all three."""
    biased = bits >> 52
    c = bits & ((1 << 52) - 1)
    least = int(biased.min())
    table, zero = _table(least, int(biased.max()))
    scale = np.take(table, (biased - least) * 2 + (c == 0), axis=1)   # a power of 2: asym
    g, d = scale[1:6 - zero], scale[6 - zero:]
    c |= (biased > 0) << 52 if least == 0 else 1 << 52
    acc = g * (c0 := (c << 2) & _LIMB)   # 4c in two limbs
    acc[1:] += g[:-1] * (c1 := c >> 28)
    for i in range(1, len(acc)):   # carry into the limb above
        acc[i] += acc[i - 1] >> 30
    v = (((acc[-1] >> 30) + g[-1] * c1) << 23) | ((acc[-1] & _LIMB) >> 7)
    acc &= _LIMB
    limbs = [0] * zero + list(acc)
    high = (limbs[2] >> 4) | (limbs[3] << 26) | ((limbs[4] & 127) << 56)
    low = (limbs[0] | (limbs[1] << 30) | (limbs[2] << 60)) ^ (-1 << 63)   # signed order
    below = high - d[1] - (low < d[2])
    above = high + d[4] + (low > d[5])   # from 2**63 it wraps, a carry
    vbl = ((v - d[0] + (below >> 63)) | ((below & _HIGH) != 0)) + (out := c & 1)
    vbr = ((v + d[3] - (above >> 63)) | ((above & _HIGH) != 0)) - out   # odd c: open bounds
    vb = v | (high != 0)
    s4 = (s := vb >> 2) << 2
    t_in = s4 + 4 <= vbr
    # s and s + 1 both in: the closer, and the even one at a tie
    f = s + np.where((vbl <= s4) != t_in, t_in, vb + (s & 1) > s4 + 2)
    tens4 = (tens := s // 10) * 40
    up = tens4 + 40 <= vbr
    return np.where((vbl <= tens4) != up, (tens + up) * 10, f), scale[0]


def float_cells(x: np.ndarray) -> np.ndarray:
    """A (len(x), CELL) uint8 array: each float64's ``repr``, NUL-padded."""
    layouts, heads, exps, groups, shifted, specials = _tables()
    bits = x.view(np.int64) & _HIGH
    odd = np.flatnonzero((bits == 0) | (bits >= _INF)) if (
        bits.min() == 0 or bits.max() >= _INF) else []
    bits[odd] = 0x3FF0000000000000   # 1.0, in place of 0, inf and nan
    f, k = _shortest(bits)
    length = np.searchsorted(_TENS, f, "right") if f.min() < 10 ** 15 else 16 + (f >= 10 ** 16)
    f *= _TENS.take(17 - length)   # to 17 digits: a normal double has 16 or 17
    point = k + length + 323   # the value is 0.f * 10**(point - 323)
    digits, parts = np.empty((3, len(x)), np.int64), np.empty((2, len(x)), np.int64)
    np.subtract(f, (high := f // 10 ** 8) * 10 ** 8, out=parts[1])
    np.subtract(high, (lead := high // 10 ** 8) * 10 ** 8, out=parts[0])
    np.left_shift(lead + ord("0"), 56, out=digits[0])
    tops = parts // 10 ** 4
    np.bitwise_or(groups.take(tops), shifted.take(parts - tops * 10 ** 4), out=digits[1:])
    top = ((digits[1:] ^ 0x3030303030303030).astype(np.float64).view(np.int64) + (1 << 52)) >> 55
    kept = np.maximum(np.maximum(top[0] - 126, top[1] - 118), 1)   # top bytes not "0"
    mask = layouts.take(heads.take(point) + kept, axis=1)
    lower = digits >> 8
    lower[:2] |= digits[1:] << 56
    digits &= mask[:3]
    lower &= mask[3:6]
    digits |= lower
    digits[0] |= x.view(np.int64) >> 63 & ord("-")
    cells = np.empty((len(x), 4), np.int64)
    np.bitwise_or(digits, mask[6:9], out=cells.T[:3])
    np.bitwise_or(mask[9], exps.take(point), out=cells[:, 3])
    if len(odd):   # 0.0, -0.0, inf, -inf, nan
        magnitude = (odd_bits := x.view(np.int64)[odd]) & _HIGH
        cells[odd] = specials[2 * (magnitude > 0) + 2 * (magnitude > _INF) + (odd_bits < 0)]
    return cells.view(np.uint8)


@functools.cache
def _group_ascii() -> np.ndarray:
    """The 4 ASCII bytes of every 4-digit group, one uint32 per group value.

    Rows 0-9999 are zero-padded ("0042"), for groups below a number's
    leading group.  A leading group is NUL-padded instead, and the NULs are
    deleted once a chunk is laid out: rows 10000-19999 serve groups above
    the units (value 0 is all NUL, a group wholly above the number) and
    rows 20000-29999 the units group (value 0 prints as "0").
    """
    value = np.arange(_GROUP)[:, None]
    padded = (value // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    width = 1 + (value >= 10) + (value >= 100) + (value >= 1000)
    units = np.where(np.arange(4) >= 4 - width, padded, 0)
    above = np.concatenate((np.zeros((1, 4), np.uint8), units[1:]))
    return np.concatenate((padded, above, units)).view(np.uint32).ravel()


def digit_groups(values: np.ndarray) -> list[np.ndarray]:
    """The decimal digits of nonempty non-negative integer ``values``, 4
    ASCII bytes to a uint32 cell, one array per group of the largest, the
    leading group first; a group above a value's leading digit is NUL."""
    table = _group_ascii()
    cells = []
    rest = values
    for i in range(-(-len(str(int(values.max()))) // 4)):   # the units group first
        quot = rest // _GROUP
        low = rest - quot * _GROUP
        low += (quot == 0) * np.uint32(_GROUP * (2 if i == 0 else 1))
        cells.append(table.take(low))
        rest = quot
    return cells[::-1]


def cells_text(cells: np.ndarray) -> str:
    """The text of a NUL-padded byte array: its bytes in order, NULs deleted."""
    return cells.tobytes().translate(None, b"\0").decode()


def edge_lines(uv: np.ndarray) -> str:
    """``u v`` lines for a nonempty (k, 2) block of endpoints in [0, 2**32).

    Each endpoint, divided in uint32, becomes a row of NUL-padded 4-digit
    groups in one uint32 matrix, followed by its separator; one
    ``translate`` then deletes the padding.
    """
    groups = digit_groups(uv.astype(np.uint32, copy=False))
    cells = np.empty(uv.shape + (len(groups) + 1,), dtype=np.uint32)
    for i, group in enumerate(groups):
        cells[:, :, i] = group
    cells[:, :, -1] = _SEPARATORS
    return cells_text(cells)


def rows(template: str, columns, sep: str = "") -> Iterator[str]:
    """Rows of ``template`` over equal-length array columns, joined by ``sep``,
    in chunks of CHUNK_FLOATS floats (or rows, if it has no ``%r``).

    ``template`` holds ``%r`` (float64 columns, written as ``float.__repr__``
    writes them), ``%d`` (int columns, or float64 ones truncated as ``%d``
    truncates them) and ``%s`` (object columns of str).  A table of fewer
    than ARRAY_FLOATS floats (or rows, if it has no ``%r``) is one ``%`` over
    the ``.tolist()`` of its columns.
    Larger ones are written a chunk at a time, each one uint8 matrix with a
    row of NUL-padded cells per row of the table: ``sep`` and the template's
    literal pieces broadcast, every ``%r`` cell from one ``float_cells``
    call over the chunk's float columns, and the ``%d`` cells in 4-digit
    groups as ``edge_lines`` writes them.  Deleting the NULs gives the
    chunk's text.
    """
    count = len(columns[0])
    pieces = template.split("%")
    kinds = [piece[0] for piece in pieces[1:]]
    floats = max(1, kinds.count("r"))
    if count * floats < ARRAY_FLOATS:
        if count:
            yield sep.join([template] * count) % tuple(chain.from_iterable(
                zip(*[column.tolist() for column in columns])))
        return
    literals = [(sep + pieces[0]).encode()] + [piece[1:].encode() for piece in pieces[1:]]
    per_chunk = CHUNK_FLOATS // floats
    # a chunk's temporaries reuse the heap (see graph.edge_list_chunks)
    np.empty(256 * CHUNK_FLOATS, dtype=np.uint8)
    for at in range(0, count, per_chunk):
        yield _chunk_text(kinds, literals, [column[at:at + per_chunk] for column in columns],
                          len(sep) * (at == 0))


def _chunk_text(kinds, literals, columns, blank: int) -> str:
    """The rows of one chunk of ``rows``, less the first ``blank`` bytes of
    the first (the separator before a table's first row)."""
    floats = [column for kind, column in zip(kinds, columns) if kind == "r"]
    if floats:
        floats = iter(np.split(float_cells(np.concatenate(floats)), len(floats)))
    cells = [next(floats) if kind == "r" else _int_cells(column) if kind == "d"
             else _str_cells(column) for kind, column in zip(kinds, columns)]
    # one row of the literals with room for the cells, then the cells
    widths = [cell.shape[1] for cell in cells]
    row = b"".join(literal + bytes(width) for literal, width in zip(literals, widths + [0]))
    matrix = np.empty((len(columns[0]), len(row)), np.uint8)
    matrix[:] = np.frombuffer(row, np.uint8)
    at = 0
    for literal, cell, width in zip(literals, cells, widths):
        at += len(literal)
        matrix[:, at:at + width] = cell
        at += width
    matrix[0, :blank] = 0
    return cells_text(matrix)


def _int_cells(column: np.ndarray) -> np.ndarray:
    """``%d`` cells: 4-digit groups for a non-negative int64 or float64 column,
    ``str`` of each value for an object one (2**63 and above) or a negative."""
    if column.dtype != object:
        column = column.astype(np.int64, copy=False)
        if column.min() >= 0:
            return np.stack(digit_groups(column), axis=1).view(np.uint8)
    return _str_cells(column)


def _str_cells(column: np.ndarray) -> np.ndarray:
    """NUL-padded UTF-8 cells of ``str`` of each value, each distinct value
    encoded once."""
    values = column.tolist()
    index = {value: i for i, value in enumerate(dict.fromkeys(values))}
    text = np.array([str(value).encode() for value in index])
    at = np.fromiter(map(index.__getitem__, values), np.intp, len(values))
    return text.view(np.uint8).reshape(len(index), -1).take(at, axis=0)
