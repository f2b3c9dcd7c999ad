"""Ground-truth numerics: dense A/L/Q matrices and LAPACK eigensolves
through numpy, for cross-checking the closed-form spectra.

Everything here is deliberately independent of the recursion code it
validates: matrices are assembled entry by entry from the graph, and
eigenvalues come from LAPACK's dense symmetric solver (``eigvalsh``/``eigh``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

DEFAULT_ORACLE_CAP = 5000

MATRIX_KINDS = ("adjacency", "laplacian", "signless")


def build_matrix(g: Graph, kind: str) -> np.ndarray:
    """Dense symmetric matrix of the requested kind.

    adjacency: A, laplacian: D - A, signless: D + A.
    """
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    n = g.node_count
    if n > DEFAULT_ORACLE_CAP:
        raise ValueError(f"graph has {n} nodes, over the oracle cap {DEFAULT_ORACLE_CAP}")
    # one n x n array: L's -1 entries written as such, the diagonal in place
    a = np.zeros((n, n), dtype=np.float64)
    src = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    a[src, g.targets] = -1.0 if kind == "laplacian" else 1.0
    if kind != "adjacency":
        np.fill_diagonal(a, g.degrees)
    return a


def sym_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (LAPACK ``eigvalsh``)."""
    return np.linalg.eigvalsh(_symmetric(mat))


def sym_eigensystem(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns (LAPACK ``eigh``)."""
    return np.linalg.eigh(_symmetric(mat))


def _symmetric(mat) -> np.ndarray:
    """The input as a float64 array, after the square and symmetric checks."""
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    return a


@dataclass(frozen=True)
class MatchReport:
    """Elementwise comparison of a closed-form spectrum against oracle values."""

    max_abs_delta: float
    mean_abs_delta: float
    count_mismatched: int
    passed: bool


def compare_spectra(closed, numeric: np.ndarray, tol: float = 1e-8) -> MatchReport:
    """Compare a closed-form Spectrum with sorted numeric eigenvalues.

    A total-multiplicity mismatch is a hard error (it means a bookkeeping
    bug, not numeric noise); value deltas beyond tol are counted.
    """
    expanded = closed.expand()
    numeric = np.sort(np.asarray(numeric, dtype=np.float64))
    if len(expanded) != len(numeric):
        raise ValueError(
            f"multiplicity total {len(expanded)} != oracle count {len(numeric)}"
        )
    deltas = np.abs(expanded - numeric)
    mismatched = int(np.sum(deltas > tol))
    return MatchReport(
        max_abs_delta=float(deltas.max(initial=0.0)),
        mean_abs_delta=float(deltas.mean()) if len(deltas) else 0.0,
        count_mismatched=mismatched,
        passed=mismatched == 0,
    )

