"""The benchmark's workloads, its generated file seed, and the output checks.

Each workload is a list of ``coronagraphs.cli.main`` invocations run by one
caller in one fresh process, each after the previous one returns (a closed
loop).  Paths in the argument lists are relative: the workload process runs
in its own scratch directory, which holds the generated seed file and every
payload, so payload bytes do not depend on where that directory is.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from collections import deque
from dataclasses import asdict, dataclass

SEED_FILE = "seed.edges"
FILE_SEED = f"file:{SEED_FILE}"
SEED_NODES = 8
EXTRA_EDGE_PROB = 0.3
TRACE_REL_TOL = 1e-9   # trace identity, relative to sum |value| * multiplicity


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv plus what the checks need to know about it."""

    command: str
    seed: str
    m: int
    kind: str | None = None
    out: str | None = None
    flags: tuple[str, ...] = ()

    @property
    def argv(self) -> list[str]:
        argv = [self.command, "--seed", self.seed, "--m", str(self.m)]
        if self.kind is not None:
            argv += ["--kind", self.kind]
        if self.out is not None:
            argv += ["--out", self.out]
        return argv + list(self.flags)

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "Invocation":
        return cls(**{**d, "flags": tuple(d["flags"])})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]


def _spectrum(seed: str, m: int, kind: str) -> Invocation:
    return Invocation("spectrum", seed, m, kind=kind)


def _verify(seed: str, m: int, kind: str) -> Invocation:
    return Invocation("verify", seed, m, kind=kind)


WORKLOADS = {w.name: w for w in (
    Workload(
        "generate-large",
        "786k-node corona build and 21 MB edge-list write: the graph layer's "
        "build and write path; structural, spectral and oracle stay idle",
        (Invocation("generate", "complete:3", 9, out="g.edges"),),
    ),
    Workload(
        "stats-betweenness",
        "all-source BFS diameter and Brandes betweenness on 3k nodes with unique "
        "and with tied shortest paths: structural plus the graph layer's CSR reads",
        (Invocation("stats", "complete:3", 5, flags=("--betweenness",)),
         Invocation("stats", "cycle:4", 4, flags=("--betweenness",))),
    ),
    Workload(
        "spectrum-deep",
        "closed-form spectra at deep m with no materialization: spectral steps, "
        "star cubics and cli JSON output, with the oracle on seed-sized matrices",
        (_spectrum("complete:3", 14, "adjacency"),
         _spectrum("complete:3", 14, "laplacian"),
         _spectrum("complete:3", 14, "signless"),
         _spectrum("star:4", 9, "adjacency"),
         _spectrum("star:4", 9, "signless"),
         # One step short of the depth where the exact Laplacian 0 is lost
         # (complete:5 at m=13, and tree-like file seeds at m=9): the
         # workloads must not fail, and test_bench keeps that defect in view.
         _spectrum("complete:5", 12, "laplacian"),
         _spectrum(FILE_SEED, 8, "laplacian")),
    ),
    Workload(
        "verify-oracle",
        "dense Jacobi eigensolves on 72-192 nodes against shallow closed forms: "
        "the oracle layer, apart from the deep closed forms of spectrum-deep",
        (_verify("complete:3", 3, "adjacency"),
         _verify("complete:4", 2, "laplacian"),
         _verify("star:4", 2, "signless"),
         _verify(FILE_SEED, 1, "laplacian")),
    ),
)}


# ---------------------------------------------------------------------------
# seeds


def file_seed_edges(seed: int) -> list[tuple[int, int]]:
    """Random connected graph on SEED_NODES nodes, fixed by ``seed``.

    A random labelled spanning tree plus each remaining pair with probability
    EXTRA_EDGE_PROB.
    """
    rng = random.Random(seed)
    order = list(range(SEED_NODES))
    rng.shuffle(order)
    edges = set()
    for i in range(1, SEED_NODES):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for u in range(SEED_NODES):
        for v in range(u + 1, SEED_NODES):
            if (u, v) not in edges and rng.random() < EXTRA_EDGE_PROB:
                edges.add((u, v))
    return sorted(edges)


def write_seed_file(path, seed: int) -> None:
    lines = [f"# n={SEED_NODES}"] + [f"{u} {v}" for u, v in file_seed_edges(seed)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def seed_shape(spec: str, seed: int) -> tuple[int, int, int]:
    """(nodes, edges, diameter) of a seed spec, computed apart from the package."""
    kind, _, param = spec.partition(":")
    if kind == "file":
        n, edges = SEED_NODES, file_seed_edges(seed)
    else:
        k = int(param)
        n = k
        edges = {
            "complete": [(u, v) for u in range(k) for v in range(u + 1, k)],
            "cycle": [(i, (i + 1) % k) for i in range(k)],
            "path": [(i, i + 1) for i in range(k - 1)],
            "star": [(0, i) for i in range(1, k)],
        }[kind]
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    diameter = 0
    for s in range(n):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        diameter = max(diameter, max(dist.values()))
    return n, len(edges), diameter


# ---------------------------------------------------------------------------
# checks


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def count_lines(path) -> int:
    count = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            count += chunk.count(b"\n")
    return count


def stdout_name(index: int) -> str:
    """File in the scratch directory that takes invocation ``index``'s stdout."""
    return f"stdout-{index}.txt"


def payload_path(workdir, index: int, inv: Invocation) -> str:
    """The invocation's payload: its --out file, else its stdout."""
    return os.path.join(workdir, inv.out or stdout_name(index))


def check(inv: Invocation, exit_code, workdir, index: int, seed: int) -> list[str]:
    """Reasons the invocation's outputs are wrong; empty when they pass."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    n, e, d0 = seed_shape(inv.seed, seed)
    nodes = n * (n + 1) ** inv.m
    edges = e + (e + n) * ((n + 1) ** inv.m - 1)
    with open(os.path.join(workdir, stdout_name(index)), encoding="utf-8") as fh:
        text = fh.read()
    if inv.command == "generate":
        return _check_generate(text, os.path.join(workdir, inv.out), nodes, edges)
    report = json.loads(text)
    if inv.command == "stats":
        return _check_stats(report, nodes, d0 + 2 * inv.m)
    if inv.command == "spectrum":
        return _check_spectrum(inv, report, nodes, edges)
    return [] if report.get("passed") is True else ["verify reported passed=false"]


def _check_generate(text: str, out_path, nodes: int, edges: int) -> list[str]:
    fields = dict(tok.split("=", 1) for tok in text.split() if "=" in tok)
    want = {"predicted_nodes": nodes, "actual_nodes": nodes,
            "predicted_edges": edges, "actual_edges": edges}
    bad = [f"{k}={fields.get(k)}, expected {v}" for k, v in want.items()
           if fields.get(k) != str(v)]
    lines = count_lines(out_path)
    if lines != edges + 1:
        bad.append(f"edge file has {lines} lines, expected {edges + 1}")
    return bad


def _check_stats(report: dict, nodes: int, diameter: int) -> list[str]:
    bad = []
    if report.get("nodes") != nodes:
        bad.append(f"nodes={report.get('nodes')}, expected {nodes}")
    d = report.get("diameter") or {}
    if not d.get("measured") == d.get("formula") == diameter:
        bad.append(f"diameter measured={d.get('measured')} formula={d.get('formula')}, "
                   f"expected {diameter}")
    gamma = (report.get("betweenness") or {}).get("gamma")
    if not isinstance(gamma, float) or not math.isfinite(gamma):
        bad.append("betweenness fit missing")
    return bad


def _check_spectrum(inv: Invocation, report: dict, nodes: int, edges: int) -> list[str]:
    entries = [(x["value"], x["multiplicity"]) for x in report["spectrum"]["entries"]]
    bad = []
    total = sum(w for _, w in entries)
    if total != nodes:
        bad.append(f"total multiplicity {total}, expected {nodes}")
    trace = math.fsum(v * w for v, w in entries)
    scale = math.fsum(abs(v) * w for v, w in entries)
    want = 0.0 if inv.kind == "adjacency" else 2.0 * edges
    if abs(trace - want) > TRACE_REL_TOL * max(scale, 1.0):
        bad.append(f"trace {trace!r}, expected {want!r} within {TRACE_REL_TOL:g} relative")
    if inv.kind == "laplacian" and entries[:1] != [(0.0, 1)]:
        bad.append(f"smallest Laplacian entry {entries[:1]}, expected an exact "
                   "0 of multiplicity 1")
    return bad
