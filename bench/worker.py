"""One workload pass in a fresh process: set up, run the invocations, report.

Reads a JSON spec on stdin (see ``run.pass_spec``), and prints one JSON line
with the timings on stdout once every invocation has returned.  Set-up is
everything before the first invocation: interpreter start, importing
coronagraphs from the checkout's ``src``, making the scratch directory and
writing the generated file seed.  A spec with no invocations stops there,
which is how the set-up time is sampled on its own.

Times are CLOCK_MONOTONIC readings, which are comparable across processes,
so the parent can measure set-up from the moment it spawned this process.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback

from workloads import SEED_FILE, Invocation, stdout_name, write_seed_file


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_invocations(cli, invocations) -> dict:
    """Call cli.main for each invocation in turn, stdout to its own file.

    Runs in the current directory.  An exception escaping cli.main is
    recorded as that invocation's exit code, which its check then fails.
    """
    records = []
    t_first = None
    for i, inv in enumerate(invocations):
        with open(stdout_name(i), "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            start = clock()
            if t_first is None:
                t_first = start
            try:
                code = cli.main(inv.argv)
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                traceback.print_exc()
                code = f"raised {type(exc).__name__}: {exc}"
            end = clock()
        records.append({"exit": code, "seconds": end - start})
    t_last = end if records else t_first
    return {"t_first": t_first, "t_last": t_last, "invocations": records}


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    from coronagraphs import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"])):
        print(f"error: imported {cli.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix="pass-", dir=spec["workdir_base"])
    os.chdir(workdir)
    write_seed_file(SEED_FILE, spec["seed"])
    invocations = [Invocation.from_json(d) for d in spec["invocations"]]

    if not invocations:
        result = {"t_first": clock(), "t_last": None, "invocations": []}
    elif spec["trace"]:
        from spans import Tracer

        tracer = Tracer().install()
        result = run_invocations(cli, invocations)
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        if spec.get("spans_out"):
            tracer.write(spec["spans_out"])
    else:
        result = run_invocations(cli, invocations)
    result["workdir"] = workdir
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["max_rss_kb"] = usage.ru_maxrss
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
