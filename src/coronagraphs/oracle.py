"""Ground-truth numerics: dense A/L/Q matrices, LAPACK eigensolves through
numpy, and brute-force betweenness/diameter for cross-checking the closed
forms.

Everything here is deliberately independent of the recursion code it
validates: matrices are assembled entry by entry from the graph, eigenvalues
come from LAPACK's dense symmetric solver (``eigvalsh``/``eigh``), and
betweenness is per-pair path counting with exact rational accumulation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

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
    a = np.zeros((n, n), dtype=np.float64)
    src = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    a[src, g.targets] = 1.0
    if kind == "adjacency":
        return a
    d = np.diag(g.degrees.astype(np.float64))
    return d - a if kind == "laplacian" else d + a


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


# ---------------------------------------------------------------------------
# brute-force shortest-path references


def _bfs_counts(adj: list[list[int]], source: int) -> tuple[list[int], list[int]]:
    """Distances and exact shortest-path counts from one source."""
    n = len(adj)
    dist = [-1] * n
    sigma = [0] * n
    dist[source] = 0
    sigma[source] = 1
    q = deque([source])
    while q:
        u = q.popleft()
        du = dist[u]
        su = sigma[u]
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                q.append(w)
            if dist[w] == du + 1:
                sigma[w] += su
    return dist, sigma


def brute_betweenness(g: Graph, cap: int = 500) -> np.ndarray:
    """Exact betweenness by per-pair path counting, unordered pairs once.

    Accumulates sigma_jk(i)/sigma_jk as Fractions (Python integers never
    overflow) and converts to float at the end.
    """
    n = g.node_count
    if n > cap:
        raise ValueError(f"graph has {n} nodes, over the brute-force cap {cap}")
    adj = [list(map(int, g.neighbors(u))) for u in range(n)]
    dists = []
    sigmas = []
    for s in range(n):
        dist, sigma = _bfs_counts(adj, s)
        if min(dist) < 0:
            raise ValueError("graph must be connected")
        dists.append(np.array(dist, dtype=np.int64))
        sigmas.append(sigma)
    acc = [Fraction(0)] * n
    nodes = np.arange(n)
    for j in range(n):
        dj = dists[j]
        for k in range(j + 1, n):
            dk = dists[k]
            djk = int(dj[k])
            on_path = (dj + dk == djk) & (nodes != j) & (nodes != k)
            if not on_path.any():
                continue
            sigma_jk = sigmas[j][k]
            for i in np.nonzero(on_path)[0]:
                acc[i] += Fraction(sigmas[j][i] * sigmas[i][k], sigma_jk)
    return np.array([float(x) for x in acc])


def brute_diameter(g: Graph, cap: int = 500) -> int:
    """Exact diameter by all-source BFS; raises on disconnected input."""
    n = g.node_count
    if n > cap:
        raise ValueError(f"graph has {n} nodes, over the brute-force cap {cap}")
    adj = [list(map(int, g.neighbors(u))) for u in range(n)]
    best = 0
    for s in range(n):
        dist, _ = _bfs_counts(adj, s)
        ecc = max(dist)
        if min(dist) < 0:
            raise ValueError("graph must be connected")
        best = max(best, ecc)
    return best
