"""Command-line surface: generate, stats, spectrum, verify, read as argparse read them.

Outputs are deterministic: rerunning an invocation produces byte-identical
files.  Exit codes: 0 success, 2 config error or bad path, 3 verification
failure, 4 resource cap or overflow, 141 stdout closed by its reader (what a
shell reports for a writer that SIGPIPE ended).
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterator
from itertools import chain
from types import SimpleNamespace

import numpy as np

from . import oracle, spectral, structural
from .distributions import cumulative_series, fit_power_law
from .floattext import rows
from .graph import (
    CapExceededError,
    CoronaPlan,
    CountOverflowError,
    DEFAULT_NODE_CAP,
    SeedDescriptor,
    corona_iterate,
    edge_list_chunks,
    stream_counts,
    write_edge_list,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_CAP = 4
EXIT_PIPE = 141

BETWEENNESS_CAP = 10_000
# on 2 CPUs the diameter of a 2,000-node cycle takes 1.0 s, of a 3,000-node one 2.4 s
DIAMETER_CAP = 2_000


def _emit(cfg: SimpleNamespace, text: str) -> None:
    """Write ``text`` to stdout, or to --out, which the command's first call
    opens and truncates; ``main`` closes it."""
    if cfg.out is None:
        sys.stdout.write(text)
        return
    if cfg.sink is None:
        cfg.sink = open(cfg.out, "w", encoding="utf-8")
    cfg.sink.write(text)


# json.dumps(..., indent=2) layout of a spectrum entry and a discrepancy record,
# whose kind and note json.dumps writes as they are: neither needs an escape
_ENTRY = '      {\n        "value": %r,\n        "multiplicity": %d\n      }'
_RECORD = ('    {\n      "kind": "%s",\n      "k": %d,\n      "level": %d,\n'
           '      "mu": %r,\n      "printed_roots": [\n        %r,\n        %r,\n'
           '        %r\n      ],\n      "secular_roots": [\n        %r,\n        %r,\n'
           '        %r\n      ],\n      "max_delta": %r,\n      "note": "%s"\n    }')
# and of a [value, probability] point of a stats series, at the report's top
# level and inside its betweenness object
_POINT = '    [\n      %r,\n      %r\n    ]'
_SERIES_POINT = '      [\n        %r,\n        %r\n      ]'
# where the lists sit in the indented outer text: a raw newline only ever
# separates json.dumps's own lines, so each marker occurs once
_ENTRIES_AT = '\n    "entries": '
_RECORDS_AT = '\n  "discrepancies": '
_DEGREES_AT = '\n  "degree_distribution": '
_CUMULATIVE_AT = '\n  "cumulative_degree_distribution": '
_SERIES_AT = '\n    "series": '


def _json_text(payload: dict, *lists) -> Iterator[str]:
    """``json.dumps(payload, indent=2)`` and a newline, in chunks, with each
    (marker, template, columns, indent) of ``lists``, in the text's order,
    writing its columns into the empty list after its marker.

    The outer fields go through json.dumps.  The lists, nearly all of the
    bytes, go through ``floattext.rows``, whose floats are byte for byte the
    ``float.__repr__`` text that json writes (no list holds a NaN or
    infinity), so the text is never held whole.
    """
    rest = json.dumps(payload, indent=2)
    for marker, template, columns, indent in lists:
        head, _, rest = rest.partition(marker + "[]")
        yield head + marker
        if not len(columns[0]):
            yield "[]"
            continue
        yield "[\n"
        yield from rows(template, columns, ",\n")
        yield "\n" + indent + "]"
    yield rest + "\n"


def _plan(cfg: SimpleNamespace) -> CoronaPlan:
    # the plan validates the seed, so an invalid one gets no warning first
    seed = SeedDescriptor.from_spec(cfg.seed, cfg.node_cap)
    plan = CoronaPlan(seed=seed, m=cfg.m, node_cap=cfg.node_cap)
    if not plan.seed.connected:
        print(f"warning: seed {cfg.seed} is disconnected; "
              "the corona graphs will be disconnected too", file=sys.stderr)
    return plan


def _guard(plan: CoronaPlan, nodes: int, cap: int, work: str, hint: str = "") -> None:
    """Refuse ``work`` on more than ``cap`` nodes, judged on a predicted count.

    Runs before anything is materialized, so a refusal costs no build or
    analysis time.  The node cap is checked first and wins when both apply.
    """
    plan.check_cap()
    if nodes > cap:
        raise CapExceededError(
            f"{work} on {nodes} nodes exceeds the guard of {cap}{hint}")


def cmd_generate(cfg: SimpleNamespace) -> int:
    plan = _plan(cfg)
    nodes, edges = stream_counts(plan)
    if cfg.out is not None:
        # a bad --out path fails here, before the counts line is printed
        open(cfg.out, "w").close()
    print(f"seed={cfg.seed} m={cfg.m} "
          f"predicted_nodes={plan.predicted_nodes} actual_nodes={nodes} "
          f"predicted_edges={plan.predicted_edges} actual_edges={edges}")
    if cfg.out is not None:
        write_edge_list(plan.seed.graph, plan.m, cfg.out)
    else:
        sys.stdout.writelines(edge_list_chunks(plan.seed.graph, plan.m))
    return EXIT_OK


def cmd_stats(cfg: SimpleNamespace) -> int:
    plan = _plan(cfg)
    # only the json report of a connected seed measures the diameter
    diameter = cfg.format == "json" and plan.seed.connected
    if (cfg.betweenness or diameter) and not cfg.force:
        # each cone of a corona step is K1 joined to the seed: a block of n+1
        work, nodes = "betweenness", plan.predicted_nodes
        if plan.seed.connected:
            work = "betweenness over a 2-connected block"
            nodes = structural.largest_block(plan.seed.graph)
            if cfg.m:
                nodes = max(nodes, plan.n + 1)
        if cfg.betweenness:
            _guard(plan, nodes, BETWEENNESS_CAP, work,
                   "; pass --force to run anyway (its time grows as the square "
                   "of the largest 2-connected block)")
        if diameter:
            _guard(plan, nodes, DIAMETER_CAP, "diameter over a 2-connected block",
                   "; pass --force to run anyway (its time grows as the nodes "
                   "times the edges times the depth of the largest 2-connected block)")
    # the plan stands for level m, measured from the seed and the layout of
    # graph.level_table: no level-m graph is built
    if cfg.format == "csv":
        # the payload is one table: no report, diameter or power-law fit;
        # betweenness runs before the first _emit, so a refusal writes no --out
        if cfg.betweenness:
            b = structural.betweenness_exact(plan)
            head, columns = "node,b\n", (np.arange(len(b)), b)
        else:
            d = structural.degree_histogram(plan)
            head = f"# cumulative=false population={d.population}\nvalue,probability\n"
            columns = d.values, d.probabilities
        for text in chain([head], rows("%d,%r\n", columns)):
            _emit(cfg, text)
        return EXIT_OK
    seed_g = plan.seed.graph

    degrees = structural.degree_histogram(plan)
    report = {
        "schema": 1,
        "command": "stats",
        "seed": cfg.seed,
        "m": cfg.m,
        "nodes": plan.node_count,
        "edges": plan.edge_count,
        "average_degree": {
            "measured": structural.average_degree(plan),
            "limit": structural.average_degree_limit(seed_g.node_count,
                                                     seed_g.edge_count),
        },
        "density": structural.density(plan) if plan.node_count >= 2 else None,
    }
    if plan.seed.connected:
        d0 = structural.diameter_measured(seed_g)
        report["diameter"] = {
            # at m=0, the level is the seed graph itself
            "measured": d0 if cfg.m == 0 else structural.diameter_measured(plan),
            "formula": structural.diameter_formula(d0, cfg.m),
        }
    else:
        report["diameter"] = {"measured": None, "formula": None,
                              "disconnected": True}
    report["degree_distribution"] = []
    report["cumulative_degree_distribution"] = []
    cumulative = cumulative_series(degrees)
    lists = [(_DEGREES_AT, _POINT, (degrees.values, degrees.probabilities), "  "),
             (_CUMULATIVE_AT, _POINT, (cumulative.values, cumulative.probabilities), "  ")]

    if cfg.betweenness:
        series = structural.betweenness_series(structural.betweenness_exact(plan))
        try:
            fit = fit_power_law(series)
            fitted = {"gamma": fit.gamma, "intercept": fit.intercept,
                      "r_squared": fit.r_squared, "fit_range": list(fit.fit_range)}
        except ValueError:
            # fewer than 3 distinct values: the series stands without a fit
            fitted = dict.fromkeys(("gamma", "intercept", "r_squared", "fit_range"))
        report["betweenness"] = {**fitted, "series": []}
        lists.append((_SERIES_AT, _SERIES_POINT, (series.values, series.probabilities),
                      "    "))

    for text in _json_text(report, *lists):
        _emit(cfg, text)
    return EXIT_OK


def cmd_spectrum(cfg: SimpleNamespace) -> int:
    plan = _plan(cfg)
    discrepancies = spectral.Discrepancies()
    spectrum = spectral.closed_form_spectrum(plan.seed.graph, cfg.kind, cfg.m,
                                             discrepancies)
    if cfg.format == "csv":
        chunks = chain(["value,multiplicity\n"],
                       rows("%r,%d\n", (spectrum.values, spectrum.multiplicities)))
    else:
        payload = {
            "schema": 1,
            "command": "spectrum",
            "seed": cfg.seed,
            "kind": cfg.kind,
            "m": cfg.m,
            "closed_form": True,
            "notice": None,
            # the wire form of spectral.spectrum_to_json, with its entries
            # written by _json_text
            "spectrum": {"kind": spectrum.kind, "m": spectrum.level, "n": plan.n,
                         "entries": [], "provenance": "closed_form"},
            "discrepancies": [],
        }
        entries = (spectrum.values, spectrum.multiplicities)
        chunks = _json_text(payload, (_ENTRIES_AT, _ENTRY, entries, "    "),
                            (_RECORDS_AT, _RECORD, discrepancies.columns(), "  "))
    for text in chunks:
        _emit(cfg, text)
    return EXIT_OK


def cmd_verify(cfg: SimpleNamespace) -> int:
    # a NaN or infinite tolerance would pass every input, a negative one fail it
    if not 0 <= cfg.tolerance < float("inf"):
        raise ValueError(f"--tolerance must be finite and >= 0, got {cfg.tolerance}")
    plan = _plan(cfg)
    _guard(plan, plan.predicted_nodes, oracle.DEFAULT_ORACLE_CAP, "verification")
    discrepancies = spectral.Discrepancies()
    closed = spectral.closed_form_spectrum(plan.seed.graph, cfg.kind, cfg.m,
                                           discrepancies)
    g = corona_iterate(plan)
    mat = oracle.build_matrix(g, cfg.kind)
    match = oracle.compare_spectra(closed, oracle.sym_eigenvalues(mat),
                                   tol=cfg.tolerance)

    residual_max = 0.0
    if (cfg.kind == spectral.ADJACENCY and cfg.m == 1 and plan.seed.connected
            and spectral.regular_degree(plan.seed.graph) is not None):
        # mat is A(seed∘seed), the matrix the eigenpairs must satisfy
        residual_max = spectral.eigenpair_residual_max(plan.seed.graph, mat)

    report = {
        "schema": 1,
        "command": "verify",
        "seed": cfg.seed,
        "kind": cfg.kind,
        "m": cfg.m,
        "tolerance": cfg.tolerance,
        "passed": bool(match.passed),
        "max_abs_delta": match.max_abs_delta,
        "mean_abs_delta": match.mean_abs_delta,
        "count_mismatched": match.count_mismatched,
        "residual_max": residual_max,
        "discrepancies": [],
    }
    for text in _json_text(report, (_RECORDS_AT, _RECORD, discrepancies.columns(), "  ")):
        _emit(cfg, text)
    return EXIT_OK if match.passed else EXIT_VERIFY


# command: (run, options, help); option: (type, default, choices, required, help), flag type None
_COMMON = {
    "--seed": (str, None, None, True, "seed spec kind:param, e.g. complete:3 or file:g.edges"),
    "--m": (int, None, None, True, "number of corona iterations"),
    "--out": (str, None, None, False, "output path (default stdout)"),
    "--node-cap": (int, DEFAULT_NODE_CAP, None, False, ""),
    "--format": (str, "json", ("json", "csv"), False, "")}
_KIND = (str, None, oracle.MATRIX_KINDS, True, "")
_COMMANDS = {
    "generate": (cmd_generate, {**_COMMON, "--format": (str, "edges", ("edges",), False, "")},
                 "materialize the edge list of G^(m)"),
    "stats": (cmd_stats, {**_COMMON, "--betweenness": (
        None, False, None, False, "include exact betweenness and its power-law fit"), "--force": (
        None, False, None, False, "override the betweenness and diameter size guards")},
        "structural report: counts, degrees, diameter"),
    "spectrum": (cmd_spectrum, {**_COMMON, "--kind": _KIND}, "closed-form spectrum"),
    "verify": (cmd_verify, {**_COMMON, "--kind": _KIND, "--tolerance": (
        float, 1e-8, None, False, ""), "--format": (str, "json", ("json",), False, "")},
        "closed form vs dense eigensolver")}


def _parse(argv) -> SimpleNamespace:
    """The fields of ``argv`` (``sys.argv[1:]`` if None) as argparse read them."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    run, options, _ = _COMMANDS.get(command, (None, {}, None))
    every = ("-h", "--help", *options)
    def told(arg):  # (arg, name, value after "="), name None for a value and "" if unknown
        head, eq, value = arg.partition("=")
        names = [head] if head in every else [
            name for name in every if head[:2] == "--" != head and name.startswith(head)]
        if len(names) > 1:
            _exit(command, f"ambiguous option: {arg} could match {', '.join(names)}")
        if names and not (eq and options.get(names[0], (None,))[0] is None):  # no flag takes "="
            return arg, names[0], value if eq else None
        number = arg[1:].replace(".", "", 1).isdecimal() and arg[-1] != "."
        return arg, None if arg[:1] != "-" or arg == "-" or number or " " in arg else "", None
    tokens = iter([told(arg) for arg in argv[bool(command):]])  # all told first, as argparse
    values, extras = {name: spec[1] for name, spec in options.items() if not spec[3]}, []
    for arg, name, value in tokens:
        if name in every[:2] or name is None and command is None:  # the top level's value
            _exit(command, None if name else f"argument command: invalid choice: {arg!r} "
                  f"(choose from {', '.join(map(repr, _COMMANDS))})")
        if not name:
            extras.append(arg)
            continue
        kind, _, choices, _, _ = options[name]
        if kind is not None and value is None:
            value, follower, _ = next(tokens, (None, "", None))
            if follower is not None:
                _exit(command, f"argument {name}: expected one argument")
        try:
            values[name] = True if kind is None else kind(value)
        except ValueError:
            _exit(command, f"argument {name}: invalid {kind.__name__} value: {value!r}")
        if choices and values[name] not in choices:
            _exit(command, f"argument {name}: invalid choice: {values[name]!r} "
                  f"(choose from {', '.join(map(repr, choices))})")
    missing = [name for name, spec in options.items() if spec[3] and name not in values]
    if missing or extras or command is None:
        _exit(command, f"unrecognized arguments: {' '.join(extras)}" if command and not missing
              else f"the following arguments are required: {', '.join(missing or ['command'])}")
    return SimpleNamespace(command=command, run=run, sink=None, **{
        name[2:].replace("-", "_"): value for name, value in values.items()})


def _exit(command: str | None, error: str | None = None):
    """Help of ``command`` (rows of help, else choices) and exit 0, or ``error`` and exit 2."""
    prog = f"coronagraphs {command}" if command else "coronagraphs"
    table = _COMMANDS[command][1] if command else _COMMANDS
    words = [("%s" if s[3] else "[%s]") % (f"{n} {n[2:].upper()}" if s[0] else n)
             for n, s in table.items()] if command else ["{%s} ..." % ",".join(_COMMANDS)]
    usage = " ".join([f"usage: {prog} [-h]", *words])
    lines = (f"  {n:16}{s[-1] or ','.join(s[2] or '')}".rstrip() for n, s in table.items())
    print(usage, *["", *lines] if error is None else [f"{prog}: error: {error}"], sep="\n",
          file=sys.stdout if error is None else sys.stderr)
    raise SystemExit(EXIT_OK if error is None else EXIT_CONFIG)


def main(argv=None) -> int:
    try:
        cfg = _parse(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        code = cfg.run(cfg)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit does not fail again (the recipe of Python's signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (CapExceededError, CountOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        # a bad seed file or --out path; BrokenPipeError is an OSError too,
        # so its clause must come first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        if cfg.sink is not None:
            cfg.sink.close()


if __name__ == "__main__":
    sys.exit(main())
