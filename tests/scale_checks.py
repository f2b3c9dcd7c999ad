"""Claims and bounds at full size, one row each: ``python tests/scale_checks.py``.

Each row runs ``python -m coronagraphs.cli`` in fresh children, whose ``ru_maxrss``
starts from the runner's high-water mark (Linux keeps it through fork and exec).
So the runner holds no payload: it hashes each file in 1 MB blocks, json last.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ERROR = "error:"   # as a row's stderr: one line with this prefix
BOUNDS = {"<": operator.lt, "<=": operator.le}
RANDOM_SEED = "random1000.edges"   # written by main into the rows' directory
# levels that main writes into the rows' directory with `generate --out`, for
# the rows that read a level back as a file seed
LEVEL_FILES = {"complete3-m9.edges": "complete:3 --m 9", "star4-m7.edges": "star:4 --m 7"}
# the prefix of a level file's copy whose first data line is written "+0 1",
# the same edge, which the reader reads as text
ODD = "odd-"


@dataclass(frozen=True)
class Check:
    name: str
    argv: str   # split on spaces
    exit: int = 0
    stdout_sha256: str | None = None
    out_sha256: str | None = None
    fields: dict = field(default_factory=dict)    # dotted json path: value
    lengths: dict = field(default_factory=dict)   # dotted json path: list length
    stderr: str | None = None   # its one line, or ERROR; None: no stderr
    peak_mb: tuple[str, float] | None = None      # ("<=", 300) or ("<", 100)
    timeout: float = 120.0


CHECKS = [
    # 786k nodes in seconds, with no --force: the guards judge 4-node blocks
    Check("diameter law at m=9", "stats --seed complete:3 --m 9 --betweenness",
          fields={"diameter": {"measured": 19, "formula": 19}}, peak_mb=("<=", 180)),
    # 1,562,500 nodes, measured from the seed and the index layout
    Check("betweenness near the cap", "stats --seed star:4 --m 8 --betweenness",
          fields={"nodes": 1562500, "diameter": {"measured": 18, "formula": 18}},
          peak_mb=("<=", 300)),
    # 1,020,100 nodes whose 100 seed-cycle blocks are over 64 nodes: the
    # in-block farthest-pair search runs
    Check("long blocks", "stats --seed cycle:100 --m 2",
          stdout_sha256="cefb99474084742f4fd660c8cffed8e88c8c0b0e4095d1136e5f553344e1d838",
          fields={"nodes": 1020100, "diameter": {"measured": 54, "formula": 54}},
          peak_mb=("<=", 300)),
    # 199,999 blocks and a tree 199,999 levels deep: O(log n) array passes
    Check("long path", "stats --seed path:200000 --m 0 --betweenness",
          fields={"diameter": {"measured": 199999, "formula": 199999}}, timeout=60),
    # 1,999,998 blocks in a chain: the block-cut tree DP in O(log n) array passes
    Check("long path at the cap", "stats --seed path:1999999 --m 0",
          fields={"diameter": {"measured": 1999998, "formula": 1999998}},
          peak_mb=("<=", 600), timeout=60),
    # a 1,000,000-point betweenness series from the measure to the row writer
    # as arrays; pinned from the writer that took it through Python tuples
    Check("betweenness series at the cap", "stats --seed path:1999999 --m 0 --betweenness",
          stdout_sha256="f72c5cbbea20c3f636f21e35d146879e7192fd9b32ffbfa68540c3cbb8535141",
          lengths={"betweenness.series": 1000000}, timeout=60),
    Check("betweenness csv", "stats --seed complete:3 --m 9 --betweenness --format csv",
          stdout_sha256="83dad8603bb3e0196561f449ecb32d6ade3fb240626e36fe6659247eb51bf234",
          out_sha256="83dad8603bb3e0196561f449ecb32d6ade3fb240626e36fe6659247eb51bf234"),
    # the same levels written by generate and read back as file seeds: their
    # CSR decomposed whole gives the bytes of the layout's block table
    Check("degree csv", "stats --seed complete:3 --m 9 --format csv",
          stdout_sha256="fde12af719031022341eb3e30da5dc3a566997414273043f5216892a7a3d8648"),
    Check("betweenness csv of the file", "stats --seed file:complete3-m9.edges --m 0 "
          "--betweenness --format csv",
          stdout_sha256="83dad8603bb3e0196561f449ecb32d6ade3fb240626e36fe6659247eb51bf234"),
    # its peak is the file reader's: 196 MB in array passes, 417 MB line by line
    Check("degree csv of the file", "stats --seed file:complete3-m9.edges --m 0 --format csv",
          stdout_sha256="fde12af719031022341eb3e30da5dc3a566997414273043f5216892a7a3d8648",
          peak_mb=("<=", 210)),
    # its one line read as text joins the other lines' pairs as an array: 195 MB
    # and 0.6 s, as the file above, against 372 MB and 1.9 s as Python lists
    Check("degree csv of the file with an odd line",
          f"stats --seed file:{ODD}complete3-m9.edges --m 0 --format csv",
          stdout_sha256="fde12af719031022341eb3e30da5dc3a566997414273043f5216892a7a3d8648",
          peak_mb=("<=", 205), timeout=30),
    Check("star betweenness csv", "stats --seed star:4 --m 7 --betweenness --format csv",
          stdout_sha256="60f7239ab4ec6747a9a278bf3014e530599cff08287485d871652a5160bded02"),
    Check("star betweenness csv of the file", "stats --seed file:star4-m7.edges --m 0 "
          "--betweenness --format csv",
          stdout_sha256="60f7239ab4ec6747a9a278bf3014e530599cff08287485d871652a5160bded02"),
    Check("star degree csv", "stats --seed star:4 --m 7 --format csv",
          stdout_sha256="b4b262cbc6ab121d060770d486d57539ca75d6aa14b0238c7f5e007495ad4364"),
    Check("star degree csv of the file", "stats --seed file:star4-m7.edges --m 0 --format csv",
          stdout_sha256="b4b262cbc6ab121d060770d486d57539ca75d6aa14b0238c7f5e007495ad4364"),
    # 1,562,500 nodes streamed from the index layout: no graph is built,
    # and the process holds one chunk of edges at any size
    Check("edge list", "generate --seed star:4 --m 8",
          stdout_sha256="3c6f38bdd614886f4a1f9e273a03194488e4e329101d5d52a4c55bcc103c8a6b",
          out_sha256="1adb4b9e0ab560f549f0e7ba493735a0600168534ffb14f3c19e2a416ebe549a",
          peak_mb=("<=", 48)),
    # 786,432 nodes and 1,572,861 edges
    Check("edge list at m=9", "generate --seed complete:3 --m 9",
          stdout_sha256="14313d73550073d9c578ee2f3deacee1ba9775da182eb2555c429651c1def28b",
          out_sha256="caca405ba7072c258a2c0f7afe79dc49b44855b1f5b5594796c3b7f799bbd23e",
          peak_mb=("<=", 48)),
    # 1,048,576 nodes over 21 levels of one-node blocks
    Check("edge list at m=20", "generate --seed complete:1 --m 20",
          stdout_sha256="b0d2109325e441cdcf3dd9e597db0766b638d751a7231f2bdb4f2fe818aa66e2",
          out_sha256="c6a7db13a12ac44cb384539fe7fcc0a0027857564237981ac37cb587f75c6c28",
          peak_mb=("<=", 48)),
    Check("deep spectrum", "spectrum --seed complete:3 --m 18 --kind adjacency",
          stdout_sha256="76460a31ea16d80bc67383c4f773660c7fa0dd74fb1ccc43f19a518ead71e46d",
          out_sha256="76460a31ea16d80bc67383c4f773660c7fa0dd74fb1ccc43f19a518ead71e46d",
          peak_mb=("<=", 160)),
    # the peak bounds of the two rows below are the % writer's own peak
    # (48.7-49.0 and 203.7-203.8 MB) plus 3 to 6 MB: the array writer may not raise it
    Check("star records", "spectrum --seed star:4 --m 9 --kind signless",
          stdout_sha256="6a95519522e17624a393631d05c55e0c84baa18d516441cfaf85267b7906333e",
          out_sha256="6a95519522e17624a393631d05c55e0c84baa18d516441cfaf85267b7906333e",
          lengths={"discrepancies": 34439, "spectrum.entries": 68890}, peak_mb=("<=", 52)),
    # 3,145,727 entries, pinned from the writer that took them through % and .tolist()
    Check("spectrum at the entry cap", "spectrum --seed complete:3 --m 20 --kind adjacency",
          stdout_sha256="e5a6e3cb771b02fca3a07714e76eee5b45ec2edee5555a85195cba16308c37f8",
          out_sha256="e5a6e3cb771b02fca3a07714e76eee5b45ec2edee5555a85195cba16308c37f8",
          peak_mb=("<=", 210)),
    # p = 3 main eigenvalues: 349,524 entries from stacks of 4x4 arrowheads
    Check("arrowhead spectrum", "spectrum --seed path:5 --m 8 --kind adjacency",
          stdout_sha256="54fd4d17b28acc95cdc52b0faefe1a5e7b78a4211619a3150f6ae3f54dfd906d",
          out_sha256="54fd4d17b28acc95cdc52b0faefe1a5e7b78a4211619a3150f6ae3f54dfd906d",
          fields={"closed_form": True, "notice": None}, peak_mb=("<=", 90)),
    # 1,000 main eigenvalues: refused on its eigensolve work before the first step
    Check("many main eigenvalues refused",
          f"spectrum --seed file:{RANDOM_SEED} --m 1 --kind adjacency",
          exit=4, stderr=ERROR, peak_mb=("<", 200), timeout=30),
    # refused on its k(k-1)/2 predicted edges before the seed is built
    Check("dense seed refused", "spectrum --seed complete:2000000 --m 0 --kind laplacian",
          exit=4, stdout_sha256=hashlib.sha256(b"").hexdigest(), peak_mb=("<", 100), timeout=30,
          stderr="error: the seed has 1999999000000 edges, over the cap of 2000000"),
    # refused from the exponent of m, before any big-integer power
    Check("huge m refused", "generate --seed complete:3 --m 100000000",
          exit=4, stderr=ERROR, peak_mb=("<", 60), timeout=30),
    # one 20,000-node block, refused on its size before any BFS
    Check("long cycle diameter refused", "stats --seed cycle:20000 --m 0",
          exit=4, stderr=ERROR, timeout=30),
    Check("missing seed file", "stats --seed file:missing.edges --m 1",
          exit=2, stderr=ERROR, timeout=30),
    Check("directory seed", "stats --seed file:seed-dir --m 1",
          exit=2, stderr=ERROR, timeout=30),
    Check("missing --out directory",
          "spectrum --seed complete:3 --m 1 --kind adjacency --out missing-dir/s.json",
          exit=2, stderr=ERROR, timeout=30),
    # the --out path is opened before the counts line: nothing on stdout
    Check("generate missing --out directory",
          "generate --seed complete:3 --m 1 --out missing-dir/g.edges",
          exit=2, stderr=ERROR, stdout_sha256=hashlib.sha256(b"").hexdigest(), timeout=30),
    # 4,970 nodes, under the 5,000-node oracle cap: the eigensolve, then the
    # residuals of 4,970 eigenpairs, one matrix product per column chunk
    Check("eigenpairs at the oracle cap", "verify --seed cycle:70 --m 1 --kind adjacency",
          fields={"passed": True}, timeout=60),
    Check("nan tolerance", "verify --seed complete:3 --m 1 --kind adjacency --tolerance nan",
          exit=2, stderr=ERROR, timeout=30),
]


def _random_seed_text(n: int = 1000, seed: int = 1000) -> str:
    """A random connected seed on n nodes: a random tree plus 2n more edges."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 3 * n - 1:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return f"# n={n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _odd_copy(level: Path) -> None:
    """Copy ``level`` (a ``# n=`` line, then ``0 1``) with ``0 1`` written ``+0 1``,
    in 1 MB blocks."""
    with open(level, "rb") as src, open(level.with_name(ODD + level.name), "wb") as dst:
        head = src.readline() + src.readline()
        if not head.endswith(b"\n0 1\n"):
            raise RuntimeError(f"{level.name} does not start with a header and 0 1")
        dst.write(head.replace(b"\n0 1\n", b"\n+0 1\n"))
        shutil.copyfileobj(src, dst, 1 << 20)


def _spawn(argv: list[str], stdout: Path, stderr: Path, cwd: Path, timeout: float):
    """The cli's exit code on argv (-9 if killed at the timeout) and its own peak in MB."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        child = subprocess.Popen([sys.executable, "-m", "coronagraphs.cli", *argv], stdout=out,
                                 stderr=err, cwd=cwd, env=dict(os.environ, PYTHONPATH=path))
    deadline = time.monotonic() + timeout
    while not (reaped := os.wait4(child.pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            child.kill()
        time.sleep(0.01)
    child.returncode = os.waitstatus_to_exitcode(reaped[1])
    return child.returncode, reaped[2].ru_maxrss / 1024


def _measure(i: int, row: Check, work: Path) -> tuple[list[str], float]:
    """Run the row's children; return what failed and their peak in MB."""
    problems, peak = [], 0.0
    stdout, stderr, out = work / f"{i}.stdout", work / f"{i}.stderr", work / f"{i}.out"
    forms = [("stdout", row.argv.split(), stdout, stdout, row.stdout_sha256)]
    if row.out_sha256:
        forms.append(("--out", [*row.argv.split(), "--out", out.name], Path(os.devnull),
                      out, row.out_sha256))
    for form, argv, sink, payload, pin in forms:
        code, mb = _spawn(argv, sink, stderr, work, row.timeout)
        peak = max(peak, mb)
        if code != row.exit:
            problems.append(f"{form} form exited {code}, not {row.exit}")
        lines = stderr.read_text(errors="replace").splitlines()
        if row.stderr == ERROR:
            lines = [line[:len(ERROR)] for line in lines]
        if lines != ([] if row.stderr is None else [row.stderr]):
            problems.append(f"{form} form wrote stderr {lines[:3]}, not {row.stderr!r}")
        if pin is not None and (digest := _digest(payload)) != pin:
            problems.append(f"{form} sha256 {digest}, not {pin}")
    out.unlink(missing_ok=True)
    if row.peak_mb and not BOUNDS[row.peak_mb[0]](peak, row.peak_mb[1]):
        problems.append(f"peak {peak:.0f} MB, not {row.peak_mb[0]} {row.peak_mb[1]} MB")
    return problems, peak


def _json_problems(row: Check, stdout: Path) -> list[str]:
    want = {**row.fields, **{f"len({key})": n for key, n in row.lengths.items()}}
    try:
        with open(stdout, encoding="utf-8") as fh:
            payload = json.load(fh)
        at = {key: reduce(operator.getitem, key.split("."), payload)
              for key in (*row.fields, *row.lengths)}
        got = {**at, **{f"len({key})": len(at[key]) for key in row.lengths}}
    except (ValueError, LookupError, TypeError) as exc:
        return [f"stdout json: {exc!r}"]
    return [f"{key} is {got[key]!r}, not {want[key]!r}" for key in want
            if got[key] != want[key]]


def main(rows=CHECKS) -> int:
    failed = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "seed-dir").mkdir()
        (work / RANDOM_SEED).write_text(_random_seed_text())
        for name, level in LEVEL_FILES.items():
            if any(name in row.argv for row in rows):
                code, _ = _spawn(["generate", "--seed", *level.split(), "--out", name],
                                 Path(os.devnull), work / "generate.stderr", work, 120.0)
                if code:
                    raise RuntimeError(f"generate --seed {level} --out {name} exited {code}")
            if any(f"file:{ODD}{name}" in row.argv for row in rows):
                _odd_copy(work / name)
        for i, row in enumerate(rows):
            start = time.monotonic()
            failed[row.name], peak = _measure(i, row, work)
            print(f"{row.name}: peak {peak:.0f} MB, {time.monotonic() - start:.1f} s", flush=True)
        # json only now: a parsed payload would raise every later child's peak
        for i, row in enumerate(rows):
            if row.fields or row.lengths:
                failed[row.name] += _json_problems(row, work / f"{i}.stdout")
    failed = {name: problems for name, problems in failed.items() if problems}
    for name, problems in failed.items():
        print(f"FAIL {name}: " + "; ".join(problems))
    print(f"{len(rows) - len(failed)} of {len(rows)} scale checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
