"""Spans and counters recorded around the calls into each coronagraphs module.

The tracer wraps public functions of the six modules (graph, structural,
distributions, spectral, oracle, cli) by patching every module attribute
that holds the original function, so the wrapper runs whichever module a
caller resolves the name through (``coronagraphs.cli.corona_iterate`` and
``coronagraphs.graph.corona_iterate`` are both patched).  Nothing in the
package itself is changed; ``uninstall`` puts every original back.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1.  Spans are held in memory and written out at the end.
The layer of a span is the part of its name before the first dot, and a
layer's self time is the duration of its spans minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "graph", "structural", "distributions", "spectral", "oracle")

# (module, function) -> span name.  Besides the spans the metrics read, a
# function of one layer that another layer calls gets a span, so that its
# time counts towards its own layer's self time.
TARGETS = {
    ("graph", "connected_component_count"): "graph.connected_component_count",
    ("graph", "corona_iterate"): "graph.corona_iterate",
    ("graph", "corona_product"): "graph.corona_product",
    ("graph", "write_edge_list"): "graph.write_edge_list",
    ("graph", "bfs_distances"): "graph.bfs_distances",
    ("graph", "expand_frontier"): "graph.expand_frontier",
    ("structural", "degree_histogram"): "structural.degree_histogram",
    ("structural", "diameter_measured"): "structural.diameter",
    ("structural", "betweenness_exact"): "structural.betweenness",
    ("structural", "betweenness_series"): "structural.betweenness_series",
    ("distributions", "cumulative_series"): "distributions.cumulative_series",
    ("distributions", "fit_power_law"): "distributions.fit",
    ("distributions", "fit_exponential"): "distributions.fit",
    ("spectral", "closed_form_spectrum"): "spectral.closed_form",
    ("spectral", "seed_spectrum"): "spectral.seed_spectrum",
    ("spectral", "star_cubic_roots"): "spectral.star_cubic",
    ("spectral", "make_spectrum"): "spectral.make_spectrum",
    ("spectral", "spectrum_to_json"): "spectral.spectrum_to_json",
    ("spectral", "eigenpair_residual_max"): "spectral.eigenpair_residual",
    ("oracle", "build_matrix"): "oracle.build_matrix",
    ("oracle", "sym_eigenvalues"): "oracle.eigensolve",
    ("oracle", "sym_eigensystem"): "oracle.eigensolve",
    ("oracle", "compare_spectra"): "oracle.compare",
    ("cli", "main"): "cli.main",
    ("cli", "_emit"): "cli.emit",
}

# per-layer metric -> (unit, how it is derived): "span:X" sums the durations
# of span X, "calls:X" counts them, "self:L" is layer L's self time and
# "count:K" reads counter K.
PER_LAYER = {
    "graph.seed_parse_s": ("s", "span:graph.seed_parse"),
    "graph.corona_iterate_s": ("s", "span:graph.corona_iterate"),
    "graph.corona_product_calls": ("count", "calls:graph.corona_product"),
    "graph.nodes_built": ("count", "count:graph.nodes_built"),
    "graph.edges_built": ("count", "count:graph.edges_built"),
    "graph.write_edge_list_s": ("s", "span:graph.write_edge_list"),
    "graph.edge_file_bytes": ("bytes", "count:graph.edge_file_bytes"),
    "graph.bfs_calls": ("count", "calls:graph.bfs_distances"),
    "graph.expand_frontier_calls": ("count", "calls:graph.expand_frontier"),
    "graph.self_s": ("s", "self:graph"),
    "structural.diameter_s": ("s", "span:structural.diameter"),
    "structural.diameter_sources": ("count", "count:structural.diameter_sources"),
    "structural.betweenness_s": ("s", "span:structural.betweenness"),
    "structural.betweenness_sources": ("count", "count:structural.betweenness_sources"),
    "structural.degree_histogram_s": ("s", "span:structural.degree_histogram"),
    "structural.self_s": ("s", "self:structural"),
    "distributions.cumulative_series_s": ("s", "span:distributions.cumulative_series"),
    "distributions.fit_s": ("s", "span:distributions.fit"),
    "distributions.self_s": ("s", "self:distributions"),
    "spectral.closed_form_s": ("s", "span:spectral.closed_form"),
    "spectral.seed_spectrum_s": ("s", "span:spectral.seed_spectrum"),
    "spectral.step_calls": ("count", "count:spectral.step_calls"),
    "spectral.star_cubic_calls": ("count", "calls:spectral.star_cubic"),
    "spectral.pairs_in": ("count", "count:spectral.pairs_in"),
    "spectral.entries_out": ("count", "count:spectral.entries_out"),
    "spectral.discrepancy_records": ("count", "count:spectral.discrepancy_records"),
    "spectral.self_s": ("s", "self:spectral"),
    "oracle.build_matrix_s": ("s", "span:oracle.build_matrix"),
    "oracle.eigensolve_s": ("s", "span:oracle.eigensolve"),
    "oracle.compare_s": ("s", "span:oracle.compare"),
    "oracle.matrix_order": ("count", "count:oracle.matrix_order"),
    "oracle.matrix_bytes": ("bytes_computed", "count:oracle.matrix_bytes"),
    "oracle.self_s": ("s", "self:oracle"),
    "cli.serialize_s": ("s", "span:cli.serialize"),
    "cli.payload_bytes": ("bytes", "count:cli.payload_bytes"),
    "cli.emit_s": ("s", "span:cli.emit"),
    "cli.self_s": ("s", "self:cli"),
}


class Tracer:
    """In-memory span and counter store; install() wires it into the package."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span.

        ``after(result, arguments)`` runs once the span has closed, with the
        call's arguments by parameter name.
        """
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(result, signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> "Tracer":
        """Patch the package's modules; callers keep resolving names as before."""
        import coronagraphs
        from coronagraphs import cli, graph

        modules = [m for name, m in sys.modules.items()
                   if name == "coronagraphs" or name.startswith("coronagraphs.")]
        hooks = self._hooks()
        for (mod_name, attr), span in TARGETS.items():
            original = getattr(getattr(coronagraphs, mod_name), attr)
            wrapped = self.wrap(span, original, hooks.get(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

        from_spec = vars(graph.SeedDescriptor)["from_spec"]
        self._patch(graph.SeedDescriptor, "from_spec",
                    classmethod(self.wrap("graph.seed_parse", from_spec.__func__)))
        self._patch(cli, "json", _JsonProxy(self.wrap("cli.serialize", json.dumps)))
        return self

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _hooks(self) -> dict:
        c = self.counters

        def iterate(g, a):
            c["graph.nodes_built"] += g.node_count
            c["graph.edges_built"] += g.edge_count

        def write(_, a):
            c["graph.edge_file_bytes"] += os.path.getsize(a["path"])

        def diameter(_, a):
            c["structural.diameter_sources"] += a["g"].node_count

        def betweenness(_, a):
            c["structural.betweenness_sources"] += a["g"].node_count

        def make_spectrum(s, a):
            c["spectral.pairs_in"] += len(a["pairs"])
            c["spectral.entries_out"] += len(s.entries)
            if a["level"] >= 1:
                c["spectral.step_calls"] += 1

        def build_matrix(mat, a):
            order = mat.shape[0]
            if order > c["oracle.matrix_order"]:
                c["oracle.matrix_order"] = order
                c["oracle.matrix_bytes"] = 8 * order * order

        def emit(_, a):
            c["cli.payload_bytes"] += len(a["text"].encode("utf-8"))

        def closed_form(_, a):
            # cli passes a fresh list to its one call per command, so the
            # list's length afterwards is what this call recorded
            if a.get("discrepancies") is not None:
                c["spectral.discrepancy_records"] += len(a["discrepancies"])

        return {
            "corona_iterate": iterate,
            "write_edge_list": write,
            "diameter_measured": diameter,
            "betweenness_exact": betweenness,
            "make_spectrum": make_spectrum,
            "build_matrix": build_matrix,
            "_emit": emit,
            "closed_form_spectrum": closed_form,
        }

    # -- derived numbers -----------------------------------------------------

    def span_totals(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        return totals

    def call_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            counts[name] += 1
        return counts

    def self_times(self) -> dict[str, float]:
        """Per-layer duration minus the time each span's children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            layers[layer] += end - start - covered
        return layers

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except the trace.* ones, which need two runs."""
        totals, calls, selfs = self.span_totals(), self.call_counts(), self.self_times()
        out = {}
        for metric, (_, source) in PER_LAYER.items():
            kind, key = source.split(":", 1)
            if kind == "span":
                out[metric] = totals.get(key, 0.0)
            elif kind == "calls":
                out[metric] = calls.get(key, 0)
            elif kind == "self":
                out[metric] = selfs.get(key, 0.0)
            else:
                out[metric] = self.counters.get(key, 0)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


class _JsonProxy:
    """Stands in for the json module inside coronagraphs.cli, timing dumps."""

    def __init__(self, dumps) -> None:
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)
