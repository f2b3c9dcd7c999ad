"""The coronagraphs benchmark: named CLI workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload spectrum-deep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each pass of a workload runs its ``coronagraphs.cli.main`` invocations in
one fresh process, one after another (a closed loop with one caller).
Passes repeat until ``--seconds`` have gone by, and at least one runs.
Before them, fresh processes that only set up and exit sample the set-up
time on its own.  Every invocation's outputs are checked once its pass has
ended, outside the timed interval.

``--trace 0`` reports the end-to-end metrics of untraced passes:
``wall_s`` (first call into cli.main to the return of the last, median over
passes), ``setup_s`` (spawn to the first call, median over every fresh
process), ``peak_rss_mb`` (ru_maxrss of the pass process, median).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spans.PER_LAYER`` from the traced ones, plus
``trace.wall_s`` and ``trace.overhead_s`` (traced minus untraced wall_s).

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The full record,
with payload sha256 sums, src line counts and the machine, goes to
``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from spans import PER_LAYER
from worker import clock
from workloads import WORKLOADS, Workload, check, file_seed_edges, payload_path, \
    sha256_file

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7
PASS_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_ONLY = {"trace.wall_s": "s", "trace.overhead_s": "s"}


class PassFailed(RuntimeError):
    """A pass process died or timed out; the run cannot report a result."""


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def pass_spec(root: Path, workload: Workload, seed: int, traced: bool,
              spans_out: Path | None = None, probe: bool = False) -> dict:
    return {
        "src": str(root / "src"),
        "workdir_base": str(root / ".bench_tmp"),
        "seed": seed,
        "invocations": [] if probe else [i.to_json() for i in workload.invocations],
        "trace": traced,
        "spans_out": str(spans_out) if spans_out else None,
    }


def spawn_pass(spec: dict) -> dict:
    """Run worker.py on spec in a fresh process; add its set-up time."""
    Path(spec["workdir_base"]).mkdir(exist_ok=True)
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py"))]
    spawned = clock()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=pinned_env(), text=True)
    try:
        out, _ = proc.communicate(json.dumps(spec), timeout=PASS_TIMEOUT_S)
    except BaseException as exc:
        proc.kill()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise PassFailed(f"pass did not finish within {PASS_TIMEOUT_S} s") from exc
        raise
    if proc.returncode != 0 or not out.strip():
        raise PassFailed(f"pass process exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["t_first"] - spawned
    return result


def finish_pass(result: dict, workload: Workload, seed: int) -> dict:
    """Check every invocation's outputs, hash its payload, drop the scratch dir."""
    workdir = result.pop("workdir")
    try:
        for i, (inv, rec) in enumerate(zip(workload.invocations, result["invocations"])):
            rec["label"] = inv.label
            rec["failures"] = check(inv, rec["exit"], workdir, i, seed)
            path = payload_path(workdir, i, inv)
            rec["sha256"] = sha256_file(path) if os.path.exists(path) else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["wall_s"] = result["t_last"] - result["t_first"]
    result["peak_rss_mb"] = result["max_rss_kb"] / 1024.0
    return result


def run_workload(root: Path, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    """All passes of one run; returns the samples and the checked records."""
    probes = []
    for _ in range(SETUP_PROBES):
        probe = spawn_pass(pass_spec(root, workload, seed, False, probe=True))
        shutil.rmtree(probe["workdir"], ignore_errors=True)
        probes.append(probe["setup_s"])
    results_dir = root / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    spans_out = results_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    untraced: list[dict] = []
    traced: list[dict] = []
    start = clock()
    while True:
        want_traced = trace and len(traced) < len(untraced)
        spec = pass_spec(root, workload, seed, want_traced,
                         spans_out if want_traced else None)
        done = finish_pass(spawn_pass(spec), workload, seed)
        (traced if want_traced else untraced).append(done)
        if clock() - start >= seconds and (traced or not trace):
            break
    return {"probes": probes, "untraced": untraced, "traced": traced}


def summarize(workload: Workload, run: dict, trace: bool) -> dict:
    """The contract object: correct, attempted, failed and the metrics."""
    passes = run["untraced"] + run["traced"]
    records = [rec for p in passes for rec in p["invocations"]]
    failed = sum(1 for rec in records if rec["failures"])
    if trace:
        metrics = {}
        for name, (unit, _) in PER_LAYER.items():
            metrics[name] = {"value": statistics.median(
                p["layers"][name] for p in run["traced"]), "unit": unit}
        traced_wall = statistics.median(p["wall_s"] for p in run["traced"])
        untraced_wall = statistics.median(p["wall_s"] for p in run["untraced"])
        for name, value in (("trace.wall_s", traced_wall),
                            ("trace.overhead_s", traced_wall - untraced_wall)):
            metrics[name] = {"value": value, "unit": TRACE_ONLY[name]}
    else:
        samples = samples_by_metric(run)
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def samples_by_metric(run: dict) -> dict[str, list[float]]:
    untraced = run["untraced"]
    return {
        "wall_s": [p["wall_s"] for p in untraced],
        "setup_s": run["probes"] + [p["setup_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
    }


def report_lines(workload: Workload, seed: int, run: dict, summary: dict,
                 trace: bool) -> list[str]:
    lines = [f"[{workload.name}] seed {seed}: {len(run['untraced'])} untraced and "
             f"{len(run['traced'])} traced passes, closed loop, 1 caller, "
             "one fresh process per pass"]
    samples = samples_by_metric(run)
    for name, unit in END_TO_END.items():
        xs = samples[name]
        spread = ""
        if len(xs) >= 2:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = f"  q1 {q1:.4f}  q3 {q3:.4f}"
        lines.append(f"  {name:<14} {statistics.median(xs):>12.4f} {unit:<6} "
                     f"median of {len(xs)}{spread}")
    attempted, failed = summary["attempted"], summary["failed"]
    lines.append(f"  {'error_rate':<14} {failed / attempted:>12.4f} {'ratio':<6} "
                 f"{failed} failed / {attempted} attempted")
    seen = set()
    for p in run["untraced"] + run["traced"]:
        for rec in p["invocations"]:
            if rec["failures"] and rec["label"] not in seen:
                seen.add(rec["label"])
                lines.append(f"  FAILED {rec['label']}: {'; '.join(rec['failures'])}")
    if trace:
        for name, m in summary["metrics"].items():
            lines.append(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
        layers = summary["metrics"]
        pairs_in = layers["spectral.pairs_in"]["value"]
        if pairs_in:
            ratio = layers["spectral.entries_out"]["value"] / pairs_in
            lines.append(f"  spectral coalesce ratio {ratio:.4f} "
                         f"(entries_out / pairs_in, base {pairs_in:.0f} pairs)")
    return lines


def facts(root: Path, workload: Workload, seed: int, run: dict) -> dict:
    """Ungated facts recorded next to the metrics."""
    passes = run["untraced"] + run["traced"]
    invocations = []
    for i, inv in enumerate(workload.invocations):
        recs = [p["invocations"][i] for p in passes]
        invocations.append({
            "argv": inv.argv,
            "sha256": recs[0]["sha256"],
            "same_bytes_every_pass": len({r["sha256"] for r in recs}) == 1,
            "seconds_median": statistics.median(
                p["invocations"][i]["seconds"] for p in run["untraced"]),
            "failures": recs[0]["failures"],
        })
    src = root / "src" / "coronagraphs"
    return {
        "workload": workload.name,
        "seed": seed,
        "file_seed_edges": file_seed_edges(seed),
        "invocations": invocations,
        "src_lines": {p.name: len(p.read_text(encoding="utf-8").splitlines())
                      for p in sorted(src.glob("*.py"))},
        "machine": machine(root),
        "samples": samples_by_metric(run),
        "pass_cpu_s": [p["cpu_s"] for p in run["untraced"]],
    }


def machine(root: Path) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: BLAS_THREADS for var in THREAD_VARS},
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str | None:
    git = shutil.which("git")
    if git is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    proc = subprocess.run([git, "rev-parse", "HEAD"], cwd=root, env=env,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coronagraphs" / "__init__.py").is_file():
        print(f"error: no coronagraphs package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = ROOT / ".bench_results"
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = WORKLOADS[name]
        try:
            run = run_workload(ROOT, workload, args.seed, args.seconds, bool(args.trace))
        except PassFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        summary = summarize(workload, run, bool(args.trace))
        print("\n".join(report_lines(workload, args.seed, run, summary, bool(args.trace))),
              flush=True)
        record = {"summary": summary, "facts": facts(ROOT, workload, args.seed, run)}
        out = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for metric, value in summary["metrics"].items():
            combined["metrics"][metric if len(names) == 1 else f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
