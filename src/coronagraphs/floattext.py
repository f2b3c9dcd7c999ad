"""``float.__repr__`` text of float64 arrays, as NUL-padded byte cells.

Digits by Schubfach (Giulietti 2020, "The Schubfach way to render doubles";
Ryu, Adams 2018, PLDI, finds the same): the rounding interval of c * 2**q
holds at most one multiple of 10**(k+1), k = floor(log10 of its width), the
answer if there; else the closest multiple of 10**k.  Value and bounds times
4 * 10**-k are c times a 126-bit constant per exponent (exact Python ints,
for the exponents present), in 30-bit limbs of int64 arrays, rounded to odd.
"""

from __future__ import annotations

import functools

import numpy as np

from .graph import _group_ascii, digit_groups

CELL = 56   # bytes of a float's cell
_LIMB = (1 << 30) - 1
_HIGH = (1 << 63) - 1
_ONE = 0x3FF0000000000000   # the bits of 1.0, computed in place of 0, inf and nan


@functools.cache
def _scale(biased: int, asym: int) -> tuple[int, ...]:
    """For a biased exponent (of a power of 2 if ``asym``): k, the 30-bit
    limbs of G, lowest first, with G * 4c / 2**127 = 4 * 10**-k * c * 2**q;
    then, for the gaps D to the lower and upper bounds, D >> 127, bits 64 to
    126 of D and a signed threshold on bits 0 to 63.  G is at most 2**5 over
    exact: g = floor(10**-k * 2**shift) + 1, times 2**h, h in [2, 5]."""
    q = max(biased, 1) - 1075
    k = (q * 661971961083 - asym * 274743187321) >> 41
    shift = 125 - ((-k * 913124641741) >> 38)   # 125 - floor(-k * log2(10))
    g = (10 ** max(-k, 0) << max(shift, 0)) // (10 ** max(k, 0) << max(-shift, 0))
    big = (g + 1) << (q + 127 - shift)
    lower, upper = big * (2 - asym), big * 2   # 4c less 2 (1 below a power of 2), plus 2
    return (k, *((big >> (30 * i)) & _LIMB for i in range(5)),
            lower >> 127, (lower >> 64) & _HIGH, lower % (1 << 64) - (1 << 63),
            upper >> 127, (upper >> 64) & _HIGH, _HIGH - upper % (1 << 64))


@functools.lru_cache(maxsize=64)
def _table(low: int, high: int) -> np.ndarray:
    """_scale of biased exponents low to high, sym and asym, one a column."""
    rows = [_scale(b, a) for b in range(low, high + 1) for a in (0, 1)]
    return np.ascontiguousarray(np.array(rows).T)


@functools.cache
def _words() -> tuple[np.ndarray, ...]:
    """Words of bytes: the first j set, for j = 0 to 8; ".000"; "-", a lone
    "0" and ".0"'s "0"; "e+" and "e-"; an exponent's 2 and 3 digits kept."""
    masks = b"".join(b"\xff" * j + b"\0" * (8 - j) for j in range(9))
    return (np.frombuffer(masks, np.uint64), np.frombuffer(b".000\0\0\0\0", np.uint64)[0],
            *np.frombuffer(b"-\0\0\0\0" b"0\0\0" b"0\0\0\0", np.uint32),
            np.frombuffer(b"e+\0\0e-\0\0", np.uint32),
            np.frombuffer(b"\0\0\xff\xff\0\xff\xff\xff", np.uint32))


def _bounds(scale: np.ndarray, cb: np.ndarray) -> tuple[np.ndarray, ...]:
    """(vbl, vb, vbr): G * (cb - 2, or - 1), G * cb and G * (cb + 2) over
    2**127, rounded to odd; as a product exceeds the exact one by less than
    2**60, it is whole where bits 64 to 126 are 0.  One product serves all."""
    g = scale[1:6]
    c0, c1 = cb & _LIMB, cb >> 30
    acc = g[0] * c0
    limbs = [acc & _LIMB]
    for i in range(1, 5):   # bits 30i .. 30i + 29 of the product
        acc = (acc >> 30) + g[i] * c0 + g[i - 1] * c1
        limbs.append(acc & _LIMB)
    v = (limbs[4] >> 7) | (((acc >> 30) + g[4] * c1) << 23)
    high = (limbs[2] >> 4) | (limbs[3] << 26) | ((limbs[4] & 127) << 56)
    low = (limbs[0] | (limbs[1] << 30) | (limbs[2] << 60)) ^ (-1 << 63)   # signed order
    below = high - scale[7] - (low < scale[8])
    above = high + scale[10] + (low > scale[11])   # from 2**63 it wraps, a carry
    return ((v - scale[6] - (below < 0)) | ((below & _HIGH) != 0), v | (high != 0),
            (v + scale[9] + (above < 0)) | ((above & _HIGH) != 0))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k): the shortest decimal f * 10**k that reads back as each
    positive finite double of ``bits``, the closest to it of those."""
    biased = (bits >> 52) & 0x7FF
    c = bits & ((1 << 52) - 1)
    asym = (c == 0) & (biased > 1)   # a power of 2, whose lower gap is half
    c |= (biased > 0) << 52
    low = int(biased.min())
    scale = np.take(_table(low, int(biased.max())), 2 * (biased - low) + asym, axis=1)
    vbl, vb, vbr = _bounds(scale, c << 2)
    vbl += c & 1   # an odd c's bounds read back as its neighbours
    vbr -= c & 1
    s4 = (s := vb >> 2) << 2
    t_in = s4 + 4 <= vbr
    one_in = (vbl <= s4) != t_in
    # s and s + 1 both in: the closer, and the even one at a tie
    closer = vb + (s & 1) > s4 + 2
    f = s + ((one_in & t_in) | (~one_in & closer))
    tens = s // 10 * 10
    tens_up = (tens << 2) + 40 <= vbr
    np.copyto(f, tens + 10 * tens_up, where=(vbl <= tens << 2) != tens_up)
    return f, scale[0]


def float_cells(x: np.ndarray) -> np.ndarray:
    """A (len(x), CELL) uint8 array: the ``repr`` of each float64 of ``x``,
    NUL-padded."""
    masks, dot, minus, lone, zero, exp_signs, exp_keep = _words()
    real = np.isfinite(x) & (x != 0)
    f, k = _shortest(np.where(real, x.view(np.int64), _ONE))
    length = 16 + (f >= 10 ** 16)   # a normal double's f; a subnormal's may be shorter
    short = np.flatnonzero(f < 10 ** 15)
    length[short] = np.searchsorted(10 ** np.arange(18), f[short], side="right")
    zeros, at = np.zeros_like(f), np.flatnonzero(f // 10 * 10 == f)   # trailing
    rest, count = f[at], np.zeros(len(at), np.int64)
    for p in (16, 8, 4, 2, 1):
        quot = rest // 10 ** p
        count += (whole := quot * 10 ** p == rest) * p
        np.copyto(rest, quot, where=whole)
    zeros[at] = count
    point = length + k   # the value is 0.f * 10**point
    other = np.flatnonzero(~real)
    f[other], point[other], length[other] = 0, 1, 1   # 0 prints as "0.0"
    fixed = (point > -4) & (point <= 16)
    head = 1 + (point - 1) * fixed   # digits before the point
    # 7 words: the sign, "0" below 1 and the digits before the point; the
    # point, zeros after it and the rest of the digits; ".0"'s 0 or exponent
    words = np.empty((3, len(x), 2), np.uint32)
    words[0, :, 0] = np.signbit(x) * minus + (head <= 0) * lone
    (words[0, :, 1], words[1, :, 0], words[1, :, 1],
     words[2, :, 0], words[2, :, 1]) = digit_groups(f, 5)
    words = words.view(np.uint64).reshape(3, -1)
    cells = np.empty((len(x), 7), np.uint64)
    split, end = 24 - length + head, 24 - zeros   # in bytes from the cell's start
    for w in range(3):
        np.bitwise_and(words[w], np.take(masks, split - 8 * w, mode="clip"), out=cells[:, w])
        np.bitwise_xor(words[w], cells[:, w], out=cells[:, 3 + w])
        cells[:, 3 + w] &= np.take(masks, end - 8 * w, mode="clip")
    cells[:, 3] |= dot & masks.take((1 + np.maximum(-head, 0)) * (fixed | (length - zeros > 1)))
    tail = cells[:, 6:].view(np.uint32)
    tail[:, 0], tail[:, 1] = (head >= length - zeros) * zero, 0
    if len(rows := np.flatnonzero(~fixed)):
        exp = point[rows] - 1
        tail[rows, 0] = exp_signs[(exp < 0) * 1]
        tail[rows, 1] = _group_ascii()[np.abs(exp)] & exp_keep[(np.abs(exp) >= 100) * 1]
    cells = cells.view(np.uint8)
    for rows, text in ((np.isinf(x), b"inf"), (np.isnan(x), b"nan")):   # after any "-"
        cells[rows, 1:] = np.frombuffer(text.ljust(CELL - 1, b"\0"), np.uint8)
    cells[np.isnan(x), 0] = 0
    return cells
