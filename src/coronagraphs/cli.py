"""Command-line surface: generate, stats, spectrum, verify.

Outputs are deterministic: rerunning an invocation produces byte-identical
files.  Exit codes: 0 success, 2 config error or bad path, 3 verification
failure, 4 resource cap or overflow, 141 stdout closed by its reader (what a
shell reports for a writer that SIGPIPE ended).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterator
from itertools import chain

import numpy as np

from . import oracle, spectral, structural
from .distributions import cumulative_series, fit_power_law
from .floattext import float_cells
from .graph import (
    CapExceededError,
    CoronaPlan,
    CountOverflowError,
    DEFAULT_NODE_CAP,
    SeedDescriptor,
    corona_iterate,
    cells_text,
    digit_groups,
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
# floats per chunk of a table written in array passes (rows, if it has no
# %r): 4,096 or 16,384 cost 5-15% more a float than 8,192 (2 CPUs, numpy 2.4)
CHUNK_FLOATS = 8192
# below this many floats, one % pass writes a table faster than the array
# passes, whose float_cells call alone costs about 0.11 ms: they break even
# at about 270 floats in rows of one (entries, csv), 300 in rows of two
# (points) and 360 in discrepancy records of eight
ARRAY_FLOATS = 256


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coronagraphs",
        description="Generate corona graphs and analyze their structure and spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run, sink=None)
        p.add_argument("--seed", required=True,
                       help="seed spec kind:param, e.g. complete:3 or file:g.edges")
        p.add_argument("--m", type=int, required=True,
                       help="number of corona iterations")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--node-cap", dest="node_cap", type=int,
                       default=DEFAULT_NODE_CAP)
        return p

    p = command("generate", cmd_generate, "materialize the edge list of G^(m)")
    p.add_argument("--format", choices=["edges"], default="edges")

    p = command("stats", cmd_stats, "structural report: counts, degrees, diameter")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--betweenness", action="store_true",
                   help="include exact betweenness and its power-law fit")
    p.add_argument("--force", action="store_true",
                   help="override the betweenness and diameter size guards")

    p = command("spectrum", cmd_spectrum, "closed-form spectrum")
    p.add_argument("--kind", choices=oracle.MATRIX_KINDS, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = command("verify", cmd_verify, "closed form vs dense eigensolver")
    p.add_argument("--kind", choices=oracle.MATRIX_KINDS, required=True)
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--tolerance", type=float, default=1e-8)

    return parser


def _emit(cfg: argparse.Namespace, text: str) -> None:
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


def _rows(template: str, columns, sep: str = "") -> Iterator[str]:
    """Rows of ``template`` over equal-length array columns, joined by ``sep``,
    in chunks of CHUNK_FLOATS floats (or rows, if it has no ``%r``).

    ``template`` holds ``%r`` (float64 columns, written as ``float.__repr__``
    writes them), ``%d`` (int columns, or float64 ones truncated as ``%d``
    truncates them) and ``%s`` (object columns of str).  A table of fewer
    than ARRAY_FLOATS floats (or rows, if it has no ``%r``) is one ``%`` over
    the ``.tolist()`` of its columns.
    Larger ones are written a chunk at a time, each one uint8 matrix with a
    row of NUL-padded cells per row of the table: ``sep`` and the template's
    literal pieces broadcast, every ``%r`` cell from one
    ``floattext.float_cells`` call over the chunk's float columns, and the
    ``%d`` cells in 4-digit groups as ``generate`` writes its edge list.
    Deleting the NULs gives the chunk's text.
    """
    count = len(columns[0])
    pieces = template.split("%")
    kinds = [piece[0] for piece in pieces[1:]]
    floats = max(1, kinds.count("r"))
    if count * floats < ARRAY_FLOATS:
        if count:
            yield sep.join([template] * count) % tuple(chain.from_iterable(
                zip(*[column.tolist() for column in columns])))
        return
    literals = [(sep + pieces[0]).encode()] + [piece[1:].encode() for piece in pieces[1:]]
    rows = CHUNK_FLOATS // floats
    # a chunk's temporaries reuse the heap (see graph.edge_list_chunks)
    np.empty(256 * CHUNK_FLOATS, dtype=np.uint8)
    for at in range(0, count, rows):
        yield _chunk_text(kinds, literals, [column[at:at + rows] for column in columns],
                          len(sep) * (at == 0))


def _chunk_text(kinds, literals, columns, blank: int) -> str:
    """The rows of one chunk of ``_rows``, less the first ``blank`` bytes of
    the first (the separator before a table's first row)."""
    floats = [column for kind, column in zip(kinds, columns) if kind == "r"]
    if floats:
        floats = iter(np.split(float_cells(np.concatenate(floats)), len(floats)))
    cells = [next(floats) if kind == "r" else _int_cells(column) if kind == "d"
             else _str_cells(column) for kind, column in zip(kinds, columns)]
    # one row of the literals with room for the cells, then the cells
    widths = [cell.shape[1] for cell in cells]
    row = b"".join(literal + bytes(width) for literal, width in zip(literals, widths + [0]))
    matrix = np.empty((len(columns[0]), len(row)), np.uint8)
    matrix[:] = np.frombuffer(row, np.uint8)
    at = 0
    for literal, cell, width in zip(literals, cells, widths):
        at += len(literal)
        matrix[:, at:at + width] = cell
        at += width
    matrix[0, :blank] = 0
    return cells_text(matrix)


def _int_cells(column: np.ndarray) -> np.ndarray:
    """``%d`` cells: 4-digit groups for a non-negative int64 or float64 column,
    ``str`` of each value for an object one (2**63 and above) or a negative."""
    if column.dtype != object:
        column = column.astype(np.int64, copy=False)
        if column.min() >= 0:
            groups = -(-len(str(int(column.max()))) // 4)
            return np.stack(digit_groups(column, groups), axis=1).view(np.uint8)
    return _str_cells(column)


def _str_cells(column: np.ndarray) -> np.ndarray:
    """NUL-padded UTF-8 cells of ``str`` of each value, each distinct value
    encoded once."""
    values = column.tolist()
    index = {value: i for i, value in enumerate(dict.fromkeys(values))}
    text = np.array([str(value).encode() for value in index])
    at = np.fromiter(map(index.__getitem__, values), np.intp, len(values))
    return text.view(np.uint8).reshape(len(index), -1).take(at, axis=0)


def _json_text(payload: dict, *lists) -> Iterator[str]:
    """``json.dumps(payload, indent=2)`` and a newline, in chunks, with each
    (marker, template, columns, indent) of ``lists``, in the text's order,
    writing its columns into the empty list after its marker.

    The outer fields go through json.dumps.  The lists, nearly all of the
    bytes, go through ``_rows``, whose floats are byte for byte the
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
        yield from _rows(template, columns, ",\n")
        yield "\n" + indent + "]"
    yield rest + "\n"


def _plan(cfg: argparse.Namespace) -> CoronaPlan:
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


def cmd_generate(cfg: argparse.Namespace) -> int:
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


def cmd_stats(cfg: argparse.Namespace) -> int:
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
        for text in chain([head], _rows("%d,%r\n", columns)):
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


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    plan = _plan(cfg)
    discrepancies = spectral.Discrepancies()
    spectrum = spectral.closed_form_spectrum(plan.seed.graph, cfg.kind, cfg.m,
                                             discrepancies)
    if cfg.format == "csv":
        chunks = chain(["value,multiplicity\n"],
                       _rows("%r,%d\n", (spectrum.values, spectrum.multiplicities)))
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


def cmd_verify(cfg: argparse.Namespace) -> int:
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


def main(argv=None) -> int:
    try:
        # one cached parser, a fresh Namespace (and sink) per call; each
        # command reads only the dests its own subparser defines
        cfg = _build_parser().parse_args(argv)
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
