"""Self-tests of the benchmark at small sizes.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import run
from spans import LAYERS, PER_LAYER, Tracer
from worker import run_invocations
from workloads import (SEED_FILE, WORKLOADS, Invocation, Workload, file_seed_edges,
                       seed_shape, write_seed_file)

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# every layer on a few hundred nodes at most
SMALL = Workload("small", "every layer at small sizes", (
    Invocation("generate", "complete:3", 2, out="g.edges"),
    Invocation("stats", "complete:3", 3, flags=("--betweenness",)),
    Invocation("stats", "cycle:4", 1, flags=("--betweenness",)),
    Invocation("spectrum", "complete:3", 4, kind="adjacency"),
    Invocation("spectrum", "star:4", 2, kind="signless"),
    Invocation("spectrum", f"file:{SEED_FILE}", 2, kind="laplacian"),
    Invocation("verify", "complete:3", 1, kind="adjacency"),
    Invocation("verify", f"file:{SEED_FILE}", 1, kind="laplacian"),
))

# self times may miss only the loop between invocations
SELF_TIME_REL_TOL = 0.02
SELF_TIME_ABS_TOL_S = 0.005


@pytest.fixture(scope="module")
def small_run():
    return run.run_workload(ROOT, SMALL, seed=7, seconds=0, trace=True)


@pytest.fixture
def traced_in_process(tmp_path, monkeypatch):
    """SMALL traced in this process: (tracer, run_invocations result)."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from coronagraphs import cli

    monkeypatch.chdir(tmp_path)
    write_seed_file(SEED_FILE, 7)
    tracer = Tracer().install()
    try:
        result = run_invocations(cli, SMALL.invocations)
    finally:
        tracer.uninstall()
    return tracer, result


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, (unit, _) in PER_LAYER.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        {**per_layer, **run.TRACE_ONLY}


def test_every_metric_is_emitted_with_its_unit(small_run):
    for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
        summary = run.summarize(SMALL, small_run, trace)
        assert {name: m["unit"] for name, m in summary["metrics"].items()} == \
            {m["name"]: m["unit"] for m in BENCHMARK[listed]}
        assert all(isinstance(m["value"], (int, float)) for m in summary["metrics"].values())
    summary = run.summarize(SMALL, small_run, False)
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == 2 * len(SMALL.invocations)
    text = "\n".join(run.report_lines(SMALL, 7, small_run, summary, False))
    for name, unit in (*run.END_TO_END.items(), ("error_rate", "ratio")):
        assert f"{name} " in text and f" {unit} " in text


def test_every_layer_is_touched(small_run):
    layers = run.summarize(SMALL, small_run, True)["metrics"]
    for layer in LAYERS:
        assert layers[f"{layer}.self_s"]["value"] > 0, layer
    assert layers["graph.edge_file_bytes"]["value"] > 0
    assert layers["oracle.matrix_bytes"]["value"] == \
        8 * layers["oracle.matrix_order"]["value"] ** 2


def test_a_forced_failure_raises_the_error_rate():
    # path:4 is neither regular nor a star, so verify has nothing to check: exit 2
    workload = Workload("forced", "one failing invocation", (
        Invocation("spectrum", "complete:3", 1, kind="adjacency"),
        Invocation("verify", "path:4", 1, kind="adjacency"),
    ))
    result = run.run_workload(ROOT, workload, seed=1, seconds=0, trace=False)
    summary = run.summarize(workload, result, False)
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (False, 2, 1)
    assert "0.5000 ratio  1 failed / 2 attempted" in \
        "\n".join(run.report_lines(workload, 1, result, summary, False))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the exact Laplacian 0 is "
                   "coalesced with a(G) at deep m, so spectrum-deep stops one step short")
def test_the_exact_laplacian_zero_survives_one_step_deeper():
    # path:8 has the smallest a(G) of any 8-node connected seed, so it is the
    # first file seed to lose the zero as m grows
    workload = Workload("deeper", "spectrum-deep's Laplacian invocations at m + 1", (
        Invocation("spectrum", "complete:5", 13, kind="laplacian"),
        Invocation("spectrum", "path:8", 9, kind="laplacian"),
    ))
    result = run.run_workload(ROOT, workload, seed=1, seconds=0, trace=False)
    assert run.summarize(workload, result, False)["failed"] == 0


def test_spectrum_deep_keeps_the_exact_laplacian_zero_for_any_file_seed():
    m, = [inv.m for inv in WORKLOADS["spectrum-deep"].invocations
          if inv.seed == f"file:{SEED_FILE}"]
    workload = Workload("worst-file-seed", "the file seed with the smallest a(G)", (
        Invocation("spectrum", "path:8", m, kind="laplacian"),
    ))
    result = run.run_workload(ROOT, workload, seed=1, seconds=0, trace=False)
    assert run.summarize(workload, result, False)["failed"] == 0


def test_traced_spans_nest_inside_their_parents(traced_in_process):
    tracer, _ = traced_in_process
    spans = tracer.spans
    assert spans and all(s is not None for s in spans)
    for i, (name, start, end, parent) in enumerate(spans):
        assert start <= end
        if parent < 0:
            assert name == "cli.main"
            continue
        assert parent < i
        _, p_start, p_end, _ = spans[parent]
        assert p_start <= start <= end <= p_end, (name, spans[parent][0])
    assert sum(1 for s in spans if s[3] < 0) == len(SMALL.invocations)


def test_layer_self_times_sum_to_the_traced_wall(traced_in_process):
    tracer, result = traced_in_process
    wall = result["t_last"] - result["t_first"]
    total = sum(tracer.self_times().values())
    assert abs(total - wall) <= SELF_TIME_REL_TOL * wall + SELF_TIME_ABS_TOL_S
    assert all(rec["exit"] == 0 for rec in result["invocations"])


def test_uninstall_restores_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from coronagraphs import cli, graph, structural

    before = (cli.corona_iterate, structural.expand_frontier, cli.json,
              vars(graph.SeedDescriptor)["from_spec"])
    tracer = Tracer().install()
    assert cli.corona_iterate is not before[0]
    assert structural.expand_frontier is graph.expand_frontier is not before[1]
    tracer.uninstall()
    assert (cli.corona_iterate, structural.expand_frontier, cli.json,
            vars(graph.SeedDescriptor)["from_spec"]) == before


def test_file_seed_is_fixed_by_the_seed():
    assert file_seed_edges(3) == file_seed_edges(3)
    assert file_seed_edges(3) != file_seed_edges(4)
    n, e, diameter = seed_shape(f"file:{SEED_FILE}", 3)
    assert n == 8 and e == len(file_seed_edges(3)) and 1 <= diameter <= 7


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "verify-oracle", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""
    assert not os.listdir(tmp_path)

