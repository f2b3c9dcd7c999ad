"""The scale-check runner passes the cheap rows of its table, and fails a row
whose pin, peak bound, exit code or json field is off."""

import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from scale_checks import CHECKS, Check

# every refusal of the table, and two small rows with pins and fields
SMALL_EDGES = Check(
    "small edge list", "generate --seed complete:3 --m 2",
    stdout_sha256="3c1f124491db4194ea64337453d2c713499936728c7ecd899dc5c2f62228bc4f",
    out_sha256="66e0f4c0b3bf7167758e9411fd763df679a7765a796f7a2d5c98dd5c1c99bf4f",
    peak_mb=("<", 100), timeout=30)
SMALL_REPORT = Check(
    "small report", "stats --seed complete:3 --m 2",
    fields={"nodes": 48, "diameter": {"measured": 5, "formula": 5}},
    lengths={"degree_distribution": 3}, timeout=30)
CHEAP = [row for row in CHECKS if row.exit] + [SMALL_EDGES, SMALL_REPORT]
REFUSAL = CHEAP[0]
MUTANTS = [
    dataclasses.replace(SMALL_EDGES, out_sha256="0" + SMALL_EDGES.out_sha256[1:]),
    dataclasses.replace(SMALL_EDGES, peak_mb=("<=", 1)),
    dataclasses.replace(REFUSAL, exit=REFUSAL.exit + 1),
    dataclasses.replace(SMALL_REPORT, fields={"nodes": 49}),
]
MUTANTS = [dataclasses.replace(row, name=f"mutant {i} of {row.name}")
           for i, row in enumerate(MUTANTS)]
RUN = "import pickle, sys, scale_checks; sys.exit(scale_checks.main(pickle.load(sys.stdin.buffer)))"


@pytest.fixture(scope="module")
def failed():
    # the runner starts in a fresh interpreter: a child's peak starts from
    # the high-water mark of its parent, and this test process is large
    child = subprocess.run([sys.executable, "-c", RUN], input=pickle.dumps(CHEAP + MUTANTS),
                           capture_output=True, cwd=Path(__file__).parent, timeout=300)
    lines = child.stdout.decode().splitlines()
    assert (child.returncode, lines[-1]) == (
        1, f"{len(CHEAP)} of {len(CHEAP) + len(MUTANTS)} scale checks passed"), child.stderr
    return {line[len("FAIL "):].split(":")[0] for line in lines if line.startswith("FAIL ")}


@pytest.mark.parametrize("row", CHEAP, ids=lambda row: row.name)
def test_row_passes(row, failed):
    assert row.name not in failed


@pytest.mark.parametrize("row", MUTANTS, ids=["pin", "peak", "exit", "field"])
def test_mutant_fails(row, failed):
    assert row.name in failed
