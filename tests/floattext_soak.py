"""Random bit patterns against ``float.__repr__``: ``python tests/floattext_soak.py [COUNT] [SEED]``.

Writes two seeded streams of COUNT (default 10**7) random doubles each, in
blocks of ``floattext.CHUNK_FLOATS`` floats, through ``floattext.float_cells``
and ``floattext.cells_text``, as the table writer ``floattext.rows`` does:

- every double: random 64-bit patterns, subnormals, infinities and NaNs too.
  A block spans nearly every exponent, so its table keeps all 5 limbs of G;
- exact constants: biased exponents in EXACT (about 2**-41 to 2**56), where
  G is exact and its low limbs are 0, each block's in a random window of up
  to WINDOW of them, one double in 16 a power of 2.  Its blocks take the
  product that skips those limbs, as the spectra's values mostly do.

Each block's text must be byte for byte ``repr`` of its floats; the first
mismatch is printed and the exit code is 1.  The last line printed is one
JSON summary, with each stream's count of blocks by low limbs skipped.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coronagraphs import floattext  # noqa: E402
from coronagraphs.floattext import CHUNK_FLOATS, cells_text  # noqa: E402

EXACT = range(981, 1079)   # biased exponents whose G is exact
WINDOW = 32


def every_double(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.integers(0, 1 << 64, count, dtype=np.uint64, endpoint=False).view(np.float64)


def exact_constants(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` doubles whose biased exponents lie in one random window of EXACT."""
    low = int(rng.integers(EXACT.start, EXACT.stop))
    high = min(low + int(rng.integers(1, WINDOW + 1)), EXACT.stop)
    biased = rng.integers(low, high, count, dtype=np.uint64)
    fraction = rng.integers(0, 1 << 52, count, dtype=np.uint64) * (rng.random(count) >= 1 / 16)
    sign = rng.integers(0, 2, count, dtype=np.uint64)
    return ((sign << np.uint64(63)) | (biased << np.uint64(52)) | fraction).view(np.float64)


STREAMS = {"every double": every_double, "exact constants": exact_constants}


def main(count: int, seed: int) -> int:
    newline = np.full((CHUNK_FLOATS, 1), ord("\n"), np.uint8)
    skipped = Counter()   # by float_cells call: the low limbs of G left out
    table = floattext._table

    def counted(low: int, high: int):
        result = table(low, high)
        skipped[result[1]] += 1
        return result

    floattext._table = counted
    start, summary = time.perf_counter(), {"correct": True, "seed": seed}
    for number, (name, draw) in enumerate(STREAMS.items()):
        rng, done = np.random.default_rng([seed, number] if number else seed), 0
        skipped.clear()
        while done < count:
            x = draw(rng, min(CHUNK_FLOATS, count - done))
            text = cells_text(np.concatenate([floattext.float_cells(x), newline[:len(x)]], axis=1))
            if text != "\n".join(map(repr, x.tolist())) + "\n":
                got = text.split("\n")
                at = next(i for i, value in enumerate(x.tolist()) if got[i] != repr(value))
                print(f"{name}: mismatch at pattern {done + at}: bits "
                      f"{x[at:at + 1].view(np.uint64)[0]:#018x} writes {got[at]!r}, "
                      f"repr {float(x[at])!r}")
                print(json.dumps({**summary, "correct": False, name: {"patterns": done + at + 1}}))
                return 1
            done += len(x)
        summary[name] = {"patterns": done, "blocks by limbs skipped": dict(sorted(skipped.items()))}
        print(f"{name}: {done} patterns (seed {seed}) match repr; blocks by limbs skipped "
              f"{dict(sorted(skipped.items()))}")
    summary["seconds"] = round(time.perf_counter() - start, 1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    sys.exit(main(*(args + [10 ** 7, 20240521][len(args):])))
