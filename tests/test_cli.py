"""End-to-end CLI behavior: outputs, determinism, exit codes."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coronagraphs import cli, graph, oracle, spectral, structural
from coronagraphs.cli import (
    ARRAY_FLOATS,
    CHUNK_FLOATS,
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_VERIFY,
    _DEGREES_AT,
    _ENTRIES_AT,
    _ENTRY,
    _POINT,
    _RECORD,
    _RECORDS_AT,
    _SERIES_AT,
    _SERIES_POINT,
    _build_parser,
    _json_text,
    _plan,
    _rows,
    main,
)
from coronagraphs.graph import SeedDescriptor, complete_graph, path_graph
from coronagraphs.spectral import (
    ADJACENCY,
    Discrepancies,
    Spectrum,
    closed_form_spectrum,
    make_spectrum,
    spectrum_to_json,
)
from coronagraphs.structural import betweenness_exact, degree_histogram

import reference
from conftest import random_connected_graph


# rows per chunk of spectrum entries and csv rows (one float), and of
# discrepancy records (eight)
ENTRY_ROWS, RECORD_ROWS = CHUNK_FLOATS, CHUNK_FLOATS // _RECORD.count("%r")


def chunk_counts(floats: int) -> tuple[int, ...]:
    """Row counts of a table of ``floats`` floats a row: around the array
    writer's threshold, at 255 and 256 rows, and around the chunk boundary of
    every table width the commands write (one, two and eight floats a row)."""
    rows = -(-ARRAY_FLOATS // floats)
    return tuple(sorted({0, 1, rows - 1, rows, 255, 256} |
                        {CHUNK_FLOATS // width + step for width in (1, 2, 8)
                         for step in (-1, 0, 1)}))


CHUNK_COUNTS, RECORD_COUNTS = chunk_counts(1), chunk_counts(8)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_env() -> dict:
    """The environment of a child process that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestGenerate:
    def test_counts_line_and_edges(self, capsys, tmp_path):
        out = tmp_path / "g.edges"
        code, stdout, _ = run(capsys, "generate", "--seed", "complete:3",
                              "--m", "1", "--out", str(out))
        assert code == EXIT_OK
        assert "predicted_nodes=12 actual_nodes=12" in stdout
        assert "predicted_edges=21 actual_edges=21" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "# n=12"
        assert len(lines) == 22

    def test_m0_passthrough(self, capsys, tmp_path):
        out = tmp_path / "p3.edges"
        code, _, _ = run(capsys, "generate", "--seed", "path:3", "--m", "0",
                         "--out", str(out))
        assert code == EXIT_OK
        assert out.read_text().splitlines() == ["# n=3", "0 1", "1 2"]

    def test_cap_refusal(self, capsys):
        code, _, err = run(capsys, "generate", "--seed", "complete:3", "--m", "40")
        assert code == EXIT_CAP
        assert "cap" in err

    @pytest.mark.parametrize("case", ["missing dir", "directory", "over the cap"])
    def test_a_refused_generate_prints_no_counts_line(self, case, capsys, tmp_path):
        # guards, then --out, then the counts line: a refusal writes no stdout
        out, m, expected = tmp_path / "missing" / "g.edges", "1", EXIT_CONFIG
        if case == "directory":
            out = tmp_path
        elif case == "over the cap":
            out, m, expected = tmp_path / "g.edges", "40", EXIT_CAP
        code, stdout, err = run(capsys, "generate", "--seed", "complete:3", "--m", m,
                                "--out", str(out))
        assert (code, stdout) == (expected, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.is_dir() or not out.exists()

    @pytest.mark.parametrize("m, nodes, expected, message", [
        ("3", 192, EXIT_CAP, "error: level 3 has 192 nodes, over the cap of 100\n"),
        ("2", 48, EXIT_OK, ""),
    ], ids=["over", "under"])
    def test_node_cap_flag(self, capsys, m, nodes, expected, message):
        argv = ["generate", "--seed", "complete:3", "--m", m, "--node-cap", "100"]
        plan = _plan(_build_parser().parse_args(argv))
        assert (plan.node_cap, plan.predicted_nodes) == (100, nodes)
        code, _, err = run(capsys, *argv)
        assert (code, err) == (expected, message)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        run(capsys, "generate", "--seed", "star:4", "--m", "2", "--out", str(a))
        run(capsys, "generate", "--seed", "star:4", "--m", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_file_seed(self, capsys, tmp_path):
        seed_file = tmp_path / "k3.edges"
        seed_file.write_text("# n=3\n0 1\n0 2\n1 2\n")
        code, stdout, _ = run(capsys, "generate", "--seed", f"file:{seed_file}",
                              "--m", "1")
        assert code == EXIT_OK
        assert "actual_nodes=12" in stdout


class TestGoldenGenerate:
    # sha256 of the --out payloads, pinned from the per-edge f-string writer
    # and the edge-list corona builder that the direct builder replaced
    GOLDEN = {
        "complete:3 5": "8eec636271a77627375784590b818133abf1f3b6f29e7579e092addb0b65b49c",
        "star:4 3": "10fa4d4e66b2e21d58ca4410c3e988b89d5f42e2fb744baa4581d19921ad9fb0",
        "isolated 2": "5e62744a20ae2e4c1d67d52aa02cb6611a8a5f18ce9af4478b03c7a6d0d70b0a",
    }

    @pytest.mark.parametrize("case", list(GOLDEN))
    def test_payload_sha256_and_stdout_form(self, case, capsys, tmp_path):
        seed, m = case.split()
        if seed == "isolated":
            seed_file = tmp_path / "iso.edges"
            seed_file.write_text("# n=5\n0 1\n1 2\n0 2\n2 3\n")
            seed = f"file:{seed_file}"
        out = tmp_path / "g.edges"
        code, counts, _ = run(capsys, "generate", "--seed", seed, "--m", m,
                              "--out", str(out))
        assert code == EXIT_OK
        payload = out.read_bytes()
        assert hashlib.sha256(payload).hexdigest() == self.GOLDEN[case]
        code, stdout, _ = run(capsys, "generate", "--seed", seed, "--m", m)
        assert code == EXIT_OK
        assert stdout.encode("utf-8") == counts.encode("utf-8") + payload


class TestStats:
    def test_json_report(self, capsys, tmp_path):
        out = tmp_path / "stats.json"
        code, _, _ = run(capsys, "stats", "--seed", "path:3", "--m", "2",
                         "--out", str(out))
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert report["nodes"] == 48
        assert report["edges"] == 77
        assert report["diameter"] == {"measured": 6, "formula": 6}
        assert report["average_degree"]["limit"] == pytest.approx(10 / 3)
        plain = dict(map(tuple, report["degree_distribution"]))
        assert sum(plain.values()) == pytest.approx(1.0)
        cum = report["cumulative_degree_distribution"]
        assert cum[0][1] == 1.0

    def test_betweenness_block(self, capsys, tmp_path):
        out = tmp_path / "stats.json"
        code, _, _ = run(capsys, "stats", "--seed", "complete:3", "--m", "3",
                         "--betweenness", "--out", str(out))
        assert code == EXIT_OK
        block = json.loads(out.read_text())["betweenness"]
        assert 1.5 < block["gamma"] < 2.5
        assert block["fit_range"][0] > 0

    def test_betweenness_guard_and_force(self, capsys, monkeypatch):
        # one 10,001-node block; the guard refuses before anything is built
        def refuse(plan):
            raise AssertionError("corona_iterate ran")

        monkeypatch.setattr(cli, "corona_iterate", refuse)
        code, _, err = run(capsys, "stats", "--seed", "cycle:10001", "--m", "0",
                           "--betweenness")
        assert code == EXIT_CAP
        assert "block on 10001 nodes" in err
        assert "--force" in err

    @pytest.mark.parametrize("m,block", [(0, 10), (2, 11)])
    def test_diameter_guard_and_force(self, m, block, capsys, monkeypatch):
        # the json report's diameter is guarded on the same largest block:
        # the seed's, and n+1 for the cones
        monkeypatch.setattr(cli, "DIAMETER_CAP", block - 1)
        iterate = cli.corona_iterate

        def refuse(plan):
            raise AssertionError("corona_iterate ran")

        monkeypatch.setattr(cli, "corona_iterate", refuse)
        argv = ["stats", "--seed", "cycle:10", "--m", str(m)]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (EXIT_CAP, "")
        assert err == (f"error: diameter over a 2-connected block on {block} nodes "
                       f"exceeds the guard of {block - 1}; pass --force to run anyway "
                       "(its time grows as the nodes times the edges times the depth "
                       "of the largest 2-connected block)\n")
        monkeypatch.setattr(cli, "corona_iterate", iterate)
        # the csv form measures no diameter
        assert run(capsys, *argv, "--format", "csv")[0] == EXIT_OK
        code, stdout, _ = run(capsys, *argv, "--force")
        assert code == EXIT_OK
        assert json.loads(stdout)["diameter"]["measured"] == 5 + 2 * m

    @pytest.mark.parametrize("m,calls", [(0, 1), (1, 2), (2, 2)])
    def test_diameter_measured_once_per_graph(self, m, calls, capsys, monkeypatch):
        # at m=0 the report's graph is the seed itself
        seen = []
        diameter = structural.diameter_measured

        def counted(g):
            seen.append(g)
            return diameter(g)

        monkeypatch.setattr(structural, "diameter_measured", counted)
        code, stdout, _ = run(capsys, "stats", "--seed", "cycle:5", "--m", str(m))
        assert code == EXIT_OK
        assert json.loads(stdout)["diameter"] == {"measured": 2 + 2 * m,
                                                  "formula": 2 + 2 * m}
        assert len(seen) == calls

    def test_betweenness_guard_judges_the_largest_block(self, capsys):
        # 49,152 nodes, but no block larger than a 4-node cone
        code, stdout, _ = run(capsys, "stats", "--seed", "complete:3", "--m", "7",
                              "--betweenness", "--format", "csv")
        assert code == EXIT_OK
        assert len(stdout.splitlines()) == 1 + 49_152

    def test_csv_format(self, capsys):
        # 9 copy vertices of degree 3 and 3 hosts of degree 5
        code, stdout, _ = run(capsys, "stats", "--seed", "complete:3", "--m", "1",
                              "--format", "csv")
        assert code == EXIT_OK
        lines = stdout.splitlines()
        assert lines[0] == "# cumulative=false population=12"
        assert lines[1] == "value,probability"
        assert lines[2] == "3,0.75"
        assert len(lines) == 4

    def test_betweenness_csv_emission(self, capsys, tmp_path):
        # the house: a triangle 0 1 2 on the square 1 3 4 2
        seed_file = tmp_path / "house.edges"
        seed_file.write_text("0 1\n0 2\n1 2\n1 3\n2 4\n3 4\n")
        code, stdout, _ = run(capsys, "stats", "--seed", f"file:{seed_file}",
                              "--m", "0", "--betweenness", "--format", "csv")
        assert code == EXIT_OK
        assert stdout.splitlines() == ["node,b", "0,0.0", "1,1.5", "2,1.5",
                                       "3,0.5", "4,0.5"]

    @pytest.mark.parametrize("k", [1, ENTRY_ROWS - 1, ENTRY_ROWS, ENTRY_ROWS + 1])
    def test_betweenness_csv_across_chunks(self, k, capsys, tmp_path):
        argv = ["stats", "--seed", f"path:{k}", "--m", "0", "--betweenness",
                "--format", "csv"]
        code, stdout, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert stdout == reference.betweenness_to_csv(betweenness_exact(path_graph(k)))
        out = tmp_path / "b.csv"
        assert run(capsys, *argv, "--out", str(out)) == (EXIT_OK, "", "")
        assert out.read_bytes() == stdout.encode("utf-8")

    def test_degree_csv_matches_the_per_line_writer(self, capsys, tmp_path):
        argv = ["stats", "--seed", "star:5", "--m", "2", "--format", "csv"]
        code, stdout, _ = run(capsys, *argv)
        assert code == EXIT_OK
        g = cli.corona_iterate(_plan(_build_parser().parse_args(argv)))
        assert stdout == reference.series_to_csv(degree_histogram(g))
        out = tmp_path / "d.csv"
        assert run(capsys, *argv, "--out", str(out)) == (EXIT_OK, "", "")
        assert out.read_bytes() == stdout.encode("utf-8")

    def test_many_rounded_probabilities_still_sum_to_one(self, capsys):
        # 80,000 plain-series terms c/N, each rounded, drifted past 1e-12
        # under a plain sum
        code, stdout, err = run(capsys, "stats", "--seed", "path:80000", "--m", "0",
                                "--betweenness")
        assert (code, err) == (EXIT_OK, "")
        block = json.loads(stdout)["betweenness"]
        assert block["gamma"] > 0
        assert len(block["series"]) > 3

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_disconnected_seed_betweenness_refused(self, fmt, capsys, tmp_path):
        seed_file = tmp_path / "two.edges"
        seed_file.write_text("# n=4\n0 1\n2 3\n")
        code, stdout, err = run(capsys, "stats", "--seed", f"file:{seed_file}",
                                "--m", "1", "--betweenness", "--format", fmt)
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err.endswith("error: betweenness needs a connected graph\n")
        out = tmp_path / "b.out"
        code, _, _ = run(capsys, "stats", "--seed", f"file:{seed_file}", "--m", "1",
                         "--betweenness", "--format", fmt, "--out", str(out))
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_betweenness_report_runs_one_dfs_per_graph(self, capsys, monkeypatch):
        # the seed's one decomposition serves its diameter and, through the
        # layout, the level-3 diameter and betweenness: no level is searched
        searched = []
        decompose = structural._decompose

        def counted(g):
            searched.append(g)
            return decompose(g)

        monkeypatch.setattr(structural, "_decompose", counted)
        code, stdout, _ = run(capsys, "stats", "--seed", "complete:3", "--m", "3",
                              "--betweenness")
        assert code == EXIT_OK
        assert json.loads(stdout)["diameter"] == {"measured": 7, "formula": 7}
        assert [g.node_count for g in searched] == [3]

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("flags", [[], ["--betweenness"], ["--format", "csv"],
                                       ["--betweenness", "--format", "csv"]])
    def test_a_level_is_read_from_the_layout(self, m, flags, capsys, monkeypatch):
        # no level is built, and only the seed is decomposed, once
        def refuse(plan):
            raise AssertionError("corona_iterate ran")

        searched = []
        decompose = structural._decompose

        def counted(g):
            searched.append(g)
            return decompose(g)

        monkeypatch.setattr(cli, "corona_iterate", refuse)
        monkeypatch.setattr(structural, "_decompose", counted)
        code, _, _ = run(capsys, "stats", "--seed", "star:4", "--m", str(m), *flags)
        assert code == EXIT_OK
        assert len(searched) <= 1
        assert all(g.node_count == 4 and isinstance(g, graph.Graph) for g in searched)

    @pytest.mark.parametrize("argv", [
        ["--seed", "complete:3", "--m", "3", "--betweenness"],
        ["--seed", "cycle:4", "--m", "1", "--betweenness"],
        ["--seed", "complete:1", "--m", "0", "--betweenness"],
        ["--seed", "path:40", "--m", "1"],
    ])
    def test_json_lists_are_laid_out_as_json_dumps(self, argv, capsys):
        # the series go through the row writer's templates, the rest through
        # json.dumps: the text is json.dumps(indent=2) of the whole report
        code, stdout, _ = run(capsys, "stats", *argv)
        assert code == EXIT_OK
        assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n"

    def test_disconnected_seed_diameter_null(self, capsys, tmp_path):
        seed_file = tmp_path / "two.edges"
        seed_file.write_text("# n=4\n0 1\n2 3\n")
        out = tmp_path / "s.json"
        code, _, err = run(capsys, "stats", "--seed", f"file:{seed_file}",
                           "--m", "1", "--out", str(out))
        assert code == EXIT_OK
        assert "disconnected" in err
        assert json.loads(out.read_text())["diameter"]["measured"] is None


class TestGoldenStats:
    # sha256 of stdout, pinned from the per-source BFS kernels; every pair
    # has one shortest path on a complete:k corona, so betweenness is whole
    # numbers whatever the summation order
    GOLDEN = {
        "json": "4714718b26c2da75092469846a41f61fe67c28da47cf02d5208cefb86cb21d62",
        "csv": "0a8e156188dde17437247c3f56dbef081b6fe0bd836436e1ca69c3a1bf3647d0",
    }

    @pytest.mark.parametrize("fmt", list(GOLDEN))
    def test_unique_path_payload_sha256(self, fmt, capsys):
        code, stdout, _ = run(capsys, "stats", "--seed", "complete:3", "--m", "4",
                              "--betweenness", "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == self.GOLDEN[fmt]

    # sha256 of stdout, pinned from the exact block-cut sums; cycle:4 ties
    # shortest paths, and float sums in another order split its 4 exact
    # values into 26 series bins
    GOLDEN_TIED = {
        "json": "b54f5c84a6110cefff5f2b6aec0611a03f379ff2272c5231cc91a8e2ddc25efc",
        "csv": "0390ca7838fdc10364f142c388dadfe602d40b89c32547dde70e1d679fce9a49",
    }

    @pytest.mark.parametrize("fmt", list(GOLDEN_TIED))
    def test_tied_path_payload_sha256(self, fmt, capsys):
        code, stdout, _ = run(capsys, "stats", "--seed", "cycle:4", "--m", "3",
                              "--betweenness", "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == self.GOLDEN_TIED[fmt]
        if fmt == "json":
            assert len(json.loads(stdout)["betweenness"]["series"]) == 4

    def test_two_exact_values_are_too_few_to_fit(self, capsys):
        # cycle:4 m=1 has the exact values 1/3 and 439/6; float noise once
        # made a third bin and a fit.  The report keeps the series, unfitted
        code, stdout, err = run(capsys, "stats", "--seed", "cycle:4", "--m", "1",
                                "--betweenness")
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(stdout)["betweenness"]
        assert list(report) == ["gamma", "intercept", "r_squared", "fit_range", "series"]
        assert report["gamma"] is report["intercept"] is None
        assert report["r_squared"] is report["fit_range"] is None
        assert len(report["series"]) == 2
        code, stdout, _ = run(capsys, "stats", "--seed", "cycle:4", "--m", "1",
                              "--betweenness", "--format", "csv")
        assert code == EXIT_OK
        values = [line.split(",")[1] for line in stdout.splitlines()[1:]]
        assert sorted(set(values)) == ["0.3333333333333333", "73.16666666666667"]

    # sha256 of stdout, pinned while csv output still built the whole json
    # report; the m=7 diameter alone took over 10 s
    GOLDEN_CSV = {
        "stats --seed complete:3 --m 7 --format csv":
            "2127df57f9b3736a75772a40c77da1e2f446517711a0e9bb163e691c4828205e",
        "stats --seed complete:3 --m 4 --betweenness --format csv":
            "0a8e156188dde17437247c3f56dbef081b6fe0bd836436e1ca69c3a1bf3647d0",
        # pinned from the per-line writers that the chunked row writer
        # replaced: 49,152 rows over many chunks, and tied shortest paths
        "stats --seed complete:3 --m 7 --betweenness --format csv":
            "24c5fd4aef563d5e06b3249e8123faa31d878a2cc931234c317f75985f26f28f",
        "stats --seed cycle:4 --m 5 --betweenness --format csv":
            "ef08f8caf1e30659ee3929d494c01b27360bd010ff8c83a209deff764649c878",
    }

    @pytest.mark.parametrize("argv", list(GOLDEN_CSV))
    def test_csv_computes_only_its_series(self, argv, capsys, monkeypatch):
        def refuse(g):
            raise AssertionError("csv output measured the diameter")

        monkeypatch.setattr(structural, "diameter_measured", refuse)
        code, stdout, _ = run(capsys, *argv.split())
        assert code == EXIT_OK
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == \
            self.GOLDEN_CSV[argv]

    def test_csv_needs_no_fit(self, capsys):
        # every betweenness value of K3 is 0, one value, too few for the
        # json report's power-law fit; the csv payload is the values alone
        code, stdout, err = run(capsys, "stats", "--seed", "complete:3", "--m", "0",
                                "--betweenness")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(stdout)["betweenness"]["gamma"] is None
        code, stdout, _ = run(capsys, "stats", "--seed", "complete:3", "--m", "0",
                              "--betweenness", "--format", "csv")
        assert code == EXIT_OK
        assert stdout.splitlines() == ["node,b", "0,0.0", "1,0.0", "2,0.0"]


class TestSpectrum:
    def test_closed_form_laplacian(self, capsys, tmp_path):
        out = tmp_path / "spec.json"
        code, _, _ = run(capsys, "spectrum", "--seed", "complete:3", "--m", "1",
                         "--kind", "laplacian", "--out", str(out))
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["closed_form"] is True
        entries = {e["value"]: e["multiplicity"]
                   for e in payload["spectrum"]["entries"]}
        assert entries[4.0] == 7

    @pytest.mark.parametrize("kind", ["adjacency", "laplacian", "signless"])
    @pytest.mark.parametrize("spec", ["path:2", "path:3", "path:6", "file"])
    def test_level_zero_reads_no_main_weights(self, spec, kind, capsys, monkeypatch,
                                              tmp_path):
        # level 0 is the seed's spectrum: no step, so no eigenvectors
        if spec == "file":
            seed_file = tmp_path / "house.edges"
            seed_file.write_text("0 1\n0 2\n1 2\n1 3\n2 4\n3 4\n")
            spec = f"file:{seed_file}"
        want = spectral.step_rule(SeedDescriptor.from_spec(spec).graph, kind)[0]

        def refuse(mat):
            raise AssertionError("an eigenvector solve ran")

        monkeypatch.setattr(oracle, "sym_eigensystem", refuse)
        code, stdout, _ = run(capsys, "spectrum", "--seed", spec, "--m", "0",
                              "--kind", kind)
        assert code == EXIT_OK
        entries = json.loads(stdout)["spectrum"]["entries"]
        assert [(e["value"], e["multiplicity"]) for e in entries] == list(want.entries)

    def test_every_seed_takes_the_closed_form(self, capsys, tmp_path):
        out = tmp_path / "spec.json"
        for kind in ("adjacency", "laplacian", "signless"):
            code, _, _ = run(capsys, "spectrum", "--seed", "path:4", "--m", "1",
                             "--kind", kind, "--out", str(out))
            assert code == EXIT_OK
            payload = json.loads(out.read_text())
            assert (payload["closed_form"], payload["notice"]) == (True, None)
            assert payload["spectrum"]["provenance"] == "closed_form"
            total = sum(e["multiplicity"] for e in payload["spectrum"]["entries"])
            assert total == 20

    def test_path5_at_m8_takes_the_closed_form(self, capsys):
        # 6,480 nodes at m=4 once went to the refused dense fallback
        code, stdout, err = run(capsys, "spectrum", "--seed", "path:5", "--m", "8",
                                "--kind", "adjacency", "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        total = sum(int(line.split(",")[1]) for line in stdout.splitlines()[1:])
        assert total == 5 * 6 ** 8

    def test_a_closed_form_error_exits_2_with_its_message(self, capsys, monkeypatch,
                                                         tmp_path):
        def fail(*args):
            raise ValueError("no closed form here")

        monkeypatch.setattr(spectral, "closed_form_spectrum", fail)
        out = tmp_path / "spec.json"
        code, stdout, err = run(capsys, "spectrum", "--seed", "path:3", "--m", "1",
                                "--kind", "laplacian", "--out", str(out))
        assert (code, stdout, err) == (EXIT_CONFIG, "", "error: no closed form here\n")
        assert not out.exists()

    def test_disconnected_laplacian_takes_the_closed_form(self, capsys, tmp_path):
        # L·1 = 0 on every seed: exactly one 0 per component
        seed = tmp_path / "d.edges"
        seed.write_text("0 1\n1 2\n3 4\n")
        code, stdout, _ = run(capsys, "spectrum", "--seed", f"file:{seed}", "--m", "1",
                              "--kind", "laplacian")
        assert code == EXIT_OK
        payload = json.loads(stdout)
        assert payload["closed_form"] is True
        assert payload["notice"] is None
        assert payload["spectrum"]["provenance"] == "closed_form"
        entries = payload["spectrum"]["entries"]
        assert entries[0] == {"value": 0.0, "multiplicity": 2}
        assert sum(e["multiplicity"] for e in entries) == 30

    def test_csv_format(self, capsys):
        code, stdout, _ = run(capsys, "spectrum", "--seed", "complete:3",
                              "--m", "1", "--kind", "laplacian", "--format", "csv")
        assert code == EXIT_OK
        assert stdout.splitlines()[0] == "value,multiplicity"

    @pytest.mark.parametrize("kind,line", [("adjacency", "2.0,6"), ("signless", "5.0,6")])
    def test_disconnected_regular_seed_keeps_its_exact_anchor(self, kind, line, capsys,
                                                              tmp_path):
        # two disjoint triangles: r = 2 (A) and 2r = 4 (Q) once per
        # component, so each grows into one value of multiplicity 6 at m=1
        seed = tmp_path / "two_triangles.edges"
        seed.write_text("# n=6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
        code, stdout, _ = run(capsys, "spectrum", "--seed", f"file:{seed}", "--m", "1",
                              "--kind", kind, "--format", "csv")
        assert code == EXIT_OK
        assert line in stdout.splitlines()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_multi_chunk_out_file_equals_stdout(self, capsys, tmp_path, fmt):
        # 24,575 entries: three chunks, so an --out reopened per chunk
        # would keep only the last
        argv = ["spectrum", "--seed", "complete:3", "--m", "13", "--kind", "adjacency",
                "--format", fmt]
        out = tmp_path / "spec.out"
        code, stdout, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert stdout.count("\n") > 2 * ENTRY_ROWS
        assert run(capsys, *argv, "--out", str(out)) == (EXIT_OK, "", "")
        assert out.read_bytes() == stdout.encode("utf-8")

    def test_entry_guard_refuses_before_any_step(self, capsys, tmp_path, monkeypatch):
        def step(*args):
            raise AssertionError("a corona step ran")

        monkeypatch.setattr(spectral, "corona_step", step)
        out = tmp_path / "spec.json"
        code, stdout, err = run(capsys, "spectrum", "--seed", "complete:3", "--m", "21",
                                "--kind", "adjacency", "--out", str(out))
        assert (code, stdout) == (EXIT_CAP, "")
        assert err == ("error: the closed form may hold 6291455 entries by level 21, "
                       "reaching the entry cap of 4194304\n")
        assert not out.exists()

    def test_entry_guard_judges_the_closed_form_not_the_node_cap(self, capsys):
        # complete:3 at m=8 has 196,608 nodes, over --node-cap, and 767 entries
        code, stdout, _ = run(capsys, "spectrum", "--seed", "complete:3", "--m", "8",
                              "--kind", "laplacian", "--node-cap", "100")
        assert code == EXIT_OK
        assert json.loads(stdout)["closed_form"] is True

    def test_star_discrepancies_reported(self, capsys, tmp_path):
        out = tmp_path / "spec.json"
        code, _, _ = run(capsys, "spectrum", "--seed", "star:3", "--m", "1",
                         "--kind", "signless", "--out", str(out))
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["discrepancies"]) == 3
        assert payload["discrepancies"][0]["max_delta"] > 1e-3


class TestGoldenSpectrum:
    # sha256 of stdout, pinned from the separate star driver and quadratic
    # spectrum wrappers that the one corona step replaced, and the star's
    # from the arrowhead eigensolve that replaced its cubic; the verify case
    # covers the eigenpair residual path, pinned from its chunked matrix
    # products (its residual_max moved from 5.66e-16 to 5.87e-16)
    GOLDEN = {
        "spectrum star:4 3 signless":
            "d505889c5ba480d833acc3615c6171795ea8179ba6aa6885cf0a333bead45b66",
        "spectrum star:5 2 adjacency":
            "7651d547ef565b8e37735061fcede6e1512d8dc3a3f2d5facd50550d3caa6c7f",
        "spectrum complete:3 6 laplacian":
            "f43ee725d3477dc4a6ee6bf2bab11b0f205719fb4d92e70e9982eb697c3cd55a",
        "verify complete:3 1 adjacency":
            "31831d58d9c94b31a21bba69e078492d06f35c5aa04c44bc68245bdd683cde42",
    }

    @pytest.mark.parametrize("case", list(GOLDEN))
    def test_payload_sha256(self, case, capsys):
        command, seed, m, kind = case.split()
        code, stdout, err = run(capsys, command, "--seed", seed, "--m", m,
                                "--kind", kind)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == self.GOLDEN[case]

    # sha256 of stdout at deeper m, pinned from the per-entry recursion and
    # the indented json.dumps that the array step and template writer
    # replaced, and the star's from the arrowhead step
    GOLDEN_DEEP = {
        "spectrum star:4 6 signless":
            "259000c99acf66da10d2c9803ce2b1c3d707defbe9e9be3c0d15e01c72642b0a",
        "spectrum complete:3 10 adjacency":
            "9c4cac03971c16f691ab3df118ed21aa7f64c3a7866239756c4b3e7ffeb67839",
        "spectrum cycle:5 9 laplacian":
            "dfd286b45adf80fbace13e9678ceafe60fead9620f33144e805265bbe905737d",
        # per-entry multiplicities above 2**63: an int64-only step would wrap
        "spectrum complete:50 11 adjacency":
            "c61aa07d32bd3898c252dc6ed146c1ef781d95c12d535816be1c72314728f037",
    }

    @pytest.mark.parametrize("case", list(GOLDEN_DEEP))
    def test_deep_payload_sha256(self, case, capsys):
        command, seed, m, kind = case.split()
        code, stdout, err = run(capsys, command, "--seed", seed, "--m", m,
                                "--kind", kind)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == \
            self.GOLDEN_DEEP[case]

    # sha256 of stdout for csv output, pinned while the json payload was
    # still built for csv too, and path:4's from the arrowhead step
    GOLDEN_CSV = {
        "spectrum --seed star:4 --m 3 --kind signless --format csv":
            "081e1eeee0abfb53e5b96873e6ed0eed50560b863ce0cc6512054e6d904be3fb",
        "spectrum --seed path:4 --m 1 --kind adjacency --format csv":
            "a43a0cb70915cab48a2fa312625c6293dd186a3fa80853a38f30e7dbcce3c00e",
        "stats --seed complete:3 --m 3 --format csv":
            "30b6da421d35f0aa066267a8e421d33f6fd903ca67d47796dcbfb9a81d818d60",
    }

    @pytest.mark.parametrize("argv", list(GOLDEN_CSV))
    def test_csv_payload_sha256(self, argv, capsys):
        code, stdout, _ = run(capsys, *argv.split())
        assert code == EXIT_OK
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == \
            self.GOLDEN_CSV[argv]

    # sha256 of stdout, pinned from the one object per record and the
    # json.dumps'd verify report that the record table replaced, then from
    # the arrowhead step's secular roots
    GOLDEN_RECORDS = {
        "verify star:4 2 signless":  # 13 records
            "981f11ea4502628165f863b6e9eed985dbc595011781b6cb307511bdfac130a2",
        "verify star:3 2 signless":  # 12 records
            "6a4ed863a1e9c7d74de4715827b3d7bd2912e27512c36bf639ebaf421dea13d3",
        "spectrum star:4 7 signless":
            "0b5b5c5fa1fca1e237101879b2e343a5bb051042a19fe6a38ef47d852667fc73",
    }

    @pytest.mark.parametrize("case", list(GOLDEN_RECORDS))
    def test_record_payload_sha256(self, case, capsys):
        command, seed, m, kind = case.split()
        code, stdout, err = run(capsys, command, "--seed", seed, "--m", m,
                                "--kind", kind)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == \
            self.GOLDEN_RECORDS[case]

    def test_star_discrepancy_records_in_the_pinned_payload(self, capsys):
        _, stdout, _ = run(capsys, "spectrum", "--seed", "star:4", "--m", "3",
                           "--kind", "signless")
        assert len(json.loads(stdout)["discrepancies"]) == 44


# dtypes of the 12 record columns of ``Discrepancies.columns()``
RECORD_DTYPES = (object, np.int64, np.int64) + (np.float64,) * 8 + (object,)


def record_table(*blocks):
    """(the record columns, the records as json.dumps would be given them).

    Each block is (kind, k, level, rows), the records of one star cubic
    call; each row is (mu, printed roots, secular roots, max_delta, note).
    """
    rows = [(kind, k, level, mu, *printed, *secular, delta, note)
            for kind, k, level, block in blocks
            for mu, printed, secular, delta, note in block]
    columns = tuple(np.array(column, dtype=dtype) for column, dtype
                    in zip(list(zip(*rows)) or [()] * 12, RECORD_DTYPES))
    records = [{"kind": row[0], "k": row[1], "level": row[2], "mu": row[3],
                "printed_roots": list(row[4:7]), "secular_roots": list(row[7:10]),
                "max_delta": row[10], "note": row[11]} for row in rows]
    return columns, records


def writer_case(pairs, blocks=(), seed="complete:3", notice=None):
    """(the writer's arguments, the payload json.dumps would be given), for
    (value, multiplicity) pairs or a Spectrum."""
    spectrum = pairs if isinstance(pairs, Spectrum) else make_spectrum("adjacency", pairs,
                                                                         level=2)
    table, records = record_table(*blocks)
    payload = {
        "schema": 1,
        "command": "spectrum",
        "seed": seed,
        "kind": "adjacency",
        "m": 2,
        "closed_form": notice is None,
        "notice": notice,
        "spectrum": spectrum_to_json(spectrum, 3),
        "discrepancies": records,
    }
    head = {**payload, "spectrum": {**payload["spectrum"], "entries": []},
            "discrepancies": []}
    return (head, spectrum, table), payload


def spectrum_text(payload, spectrum, table):
    """``_json_text`` with the two lists of a spectrum payload, as
    ``cmd_spectrum`` gives them."""
    return _json_text(payload, (_ENTRIES_AT, _ENTRY,
                                (spectrum.values, spectrum.multiplicities), "    "),
                      (_RECORDS_AT, _RECORD, table, "  "))


def records_text(payload, table):
    """``_json_text`` with the record list of a verify report."""
    return _json_text(payload, (_RECORDS_AT, _RECORD, table, "  "))


def distinct_pairs(count):
    """``count`` entries that make_spectrum keeps apart."""
    return [(i + 0.1 * (i % 7), i + 1) for i in range(count)]


# the exponent-form switches of repr, 17-digit values and a subnormal
AWKWARD = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 0.1 + 0.2, 1 / 3,
           -2 / 3, 5e-324, 2.0 ** 53 + 2, -1.7976931348623157e308]


def awkward_values(count):
    """``count`` distinct ascending floats: AWKWARD, then seeded ones of 1e-8
    to 1e20 in size, of either sign."""
    rng = np.random.default_rng(count)
    values = rng.standard_normal(count) * 10.0 ** rng.integers(-8, 21, count)
    return np.unique(np.concatenate([AWKWARD, values]))[:count]


def awkward_spectrum(count, object_multiplicities=False):
    """``count`` awkward values with int64 multiplicities, or with Python
    ints of 2**63 and above, which the closed form holds as object."""
    mults = np.arange(1, count + 1)
    if object_multiplicities:
        mults = np.array([2 ** 63 + int(w) for w in mults], dtype=object)
    return Spectrum("adjacency", awkward_values(count), mults, level=2)


# a signless record with awkward floats, and a wide adjacency one
RECORD = (-0.0, (0.1 + 0.2, 1e16, 5e-324), (-1.5, 2.0, 3.25), 1e-09, "")
WIDE = (2.0, (1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 0.0,
        "printed-form arccos argument 1.0000001 outside [-1, 1]")


def level_blocks(*counts):
    """One signless star:4 block per level 1, 2, ... holding ``counts`` records."""
    return [("signless", 4, level, [RECORD] * count)
            for level, count in enumerate(counts, start=1)]


class TestSpectrumWriter:
    """The chunked template writer against json.dumps(payload, indent=2)."""

    CASES = {
        "empty": writer_case([]),
        "note": writer_case([(1.0, 2)], [("signless", 4, 3, [RECORD]),
                                         ("adjacency", 5, 1, [WIDE])]),
        # make_spectrum would merge -0.0 and 5e-324, so they sit apart
        "awkward floats": writer_case([(-0.0, 1), (1e16, 3), (0.1 + 0.2, 2 ** 70)]),
        "subnormal": writer_case([(5e-324, 2)]),
        "notice and non-ascii seed": writer_case(
            [(-1.0, 2), (2.0, 1)], level_blocks(1),
            seed='file:gr\u00e4ph "\u03bc".edges',
            notice="no closed form for kind=adjacency with seed \u00e9; \\ falling back"),
        **{f"{count} entries": writer_case(distinct_pairs(count))
           for count in CHUNK_COUNTS},
        **{f"{count} records": writer_case([(1.0, 2)], level_blocks(count))
           for count in RECORD_COUNTS},
        **{f"{count} awkward entries": writer_case(awkward_spectrum(count))
           for count in CHUNK_COUNTS},
        **{f"{count} entries of 2**63 and above": writer_case(awkward_spectrum(count, True))
           for count in CHUNK_COUNTS},
        **{f"{count} records with notes": writer_case(
            [(1.0, 2)], [("adjacency", 5, 1, [WIDE] * count)]) for count in RECORD_COUNTS},
        # one chunk holds all of levels 1 and 2, the empty level 3 and the
        # start of level 4; the next chunk holds the rest of level 4
        "levels across chunks": writer_case(
            [(1.0, 2)], level_blocks(3, 5, 0, RECORD_ROWS) + [
                ("adjacency", 5, 5, [WIDE, RECORD, WIDE])]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_json_dumps(self, case):
        args, payload = self.CASES[case]
        assert "".join(spectrum_text(*args)) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("case", list(CASES))
    def test_verify_report_matches_json_dumps(self, case):
        # verify writes its records through the same chunks as spectrum
        (_, _, table), payload = self.CASES[case]
        report = {"schema": 1, "command": "verify", "seed": payload["seed"],
                  "kind": "signless", "m": 2, "tolerance": 1e-08, "passed": True,
                  "max_abs_delta": 5e-324, "mean_abs_delta": -0.0,
                  "count_mismatched": 0, "residual_max": 0.0,
                  "discrepancies": payload["discrepancies"]}
        head = {**report, "discrepancies": []}
        assert "".join(records_text(head, table)) == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("case", list(CASES))
    def test_no_chunk_holds_more_than_chunk_rows(self, case):
        args, _ = self.CASES[case]
        for chunk in spectrum_text(*args):
            assert chunk.count('"value"') <= ENTRY_ROWS
            assert chunk.count('"note"') <= RECORD_ROWS

    def test_one_chunk_spans_level_blocks(self):
        (_, _, table), _ = self.CASES["levels across chunks"]
        levels = [{level for level in range(1, 6) if f'"level": {level},' in chunk}
                  for chunk in records_text({"discrepancies": []}, table)
                  if '"kind"' in chunk]
        assert levels == [{1, 2, 4}, {4, 5}]

    @pytest.mark.parametrize("count", CHUNK_COUNTS)
    def test_csv_matches_one_line_per_entry(self, count):
        # entries with int64 multiplicities, awkward values, and multiplicities
        # of 2**63 and above (object)
        for spectrum in (make_spectrum("adjacency", distinct_pairs(count), level=2),
                         awkward_spectrum(count), awkward_spectrum(count, True)):
            lines = ["value,multiplicity"] + [f"{v!r},{w}" for v, w in spectrum.entries]
            text = "".join(_rows("%r,%d\n", (spectrum.values, spectrum.multiplicities)))
            assert "value,multiplicity\n" + text == "\n".join(lines) + "\n"
        # stats --format csv: %d over float64 values, truncated as %d truncates
        values, probabilities = np.arange(count) * 1.5, awkward_values(count)
        lines = ["value,probability"] + [f"{int(v)},{p!r}" for v, p in
                                         zip(values.tolist(), probabilities.tolist())]
        text = "".join(_rows("%d,%r\n", (values, probabilities)))
        assert "value,probability\n" + text == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("count", chunk_counts(2))
    def test_stats_points_match_json_dumps(self, count):
        # the [value, probability] lists of a stats report, at its top level
        # and in its betweenness object
        values, probabilities = awkward_values(count), awkward_values(count)[::-1].copy()
        points = [list(point) for point in zip(values.tolist(), probabilities.tolist())]
        report = {"schema": 1, "degree_distribution": points,
                  "betweenness": {"gamma": None, "series": points}}
        head = {"schema": 1, "degree_distribution": [],
                "betweenness": {"gamma": None, "series": []}}
        columns = (values, probabilities)
        text = "".join(_json_text(head, (_DEGREES_AT, _POINT, columns, "  "),
                                  (_SERIES_AT, _SERIES_POINT, columns, "    ")))
        assert text == json.dumps(report, indent=2) + "\n"

    def test_peak_allocation_does_not_grow_with_the_payload(self):
        # a whole-text writer's peak grows 4x from m=14 to m=16, with the
        # entries; a chunked one allocates the same few chunks at both
        payload = {"spectrum": {"entries": []}, "discrepancies": []}
        peaks, chunk_bytes = [], []
        for m in (14, 16):
            spectrum = closed_form_spectrum(complete_graph(3), ADJACENCY, m)
            tracemalloc.start()
            try:
                size = sum(map(len, spectrum_text(payload, spectrum,
                                                  Discrepancies().columns())))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            chunk_bytes.append(ENTRY_ROWS * size / len(spectrum.values))
        assert abs(peaks[1] - peaks[0]) < 2 * min(chunk_bytes)


class TestVerify:
    @pytest.mark.parametrize("seed,m,kind", [
        ("star:3", 1, "adjacency"),
        ("complete:3", 2, "signless"),
        ("complete:3", 1, "laplacian"),
        ("cycle:4", 3, "laplacian"),  # 500 nodes
    ])
    def test_passes(self, capsys, tmp_path, seed, m, kind):
        out = tmp_path / "v.json"
        code, _, _ = run(capsys, "verify", "--seed", seed, "--m", str(m),
                         "--kind", kind, "--out", str(out))
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["max_abs_delta"] <= 1e-8

    def test_eigenpair_residuals_on_regular_m1(self, capsys, tmp_path):
        out = tmp_path / "v.json"
        run(capsys, "verify", "--seed", "complete:3", "--m", "1",
            "--kind", "adjacency", "--out", str(out))
        report = json.loads(out.read_text())
        assert 0.0 < report["residual_max"] < 1e-8

    def test_laplacian_passes_on_a_disconnected_seed(self, capsys, tmp_path):
        seed = tmp_path / "t.edges"
        seed.write_text("# n=6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
        code, stdout, _ = run(capsys, "verify", "--seed", f"file:{seed}", "--m", "1",
                              "--kind", "laplacian")
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["passed"] is True
        assert report["max_abs_delta"] <= 1e-8

    def test_no_residual_on_disconnected_regular_seed(self, capsys, tmp_path):
        # two triangles: r = 2 is a double eigenvalue, so the one-step
        # eigenpair construction does not apply
        seed = tmp_path / "t.edges"
        seed.write_text("# n=6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
        code, stdout, _ = run(capsys, "verify", "--seed", f"file:{seed}", "--m", "1",
                              "--kind", "adjacency")
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["passed"] is True
        assert report["residual_max"] == 0.0

    def test_impossible_tolerance_fails_with_exit_3(self, capsys, tmp_path):
        out = tmp_path / "v.json"
        code, _, _ = run(capsys, "verify", "--seed", "complete:3", "--m", "2",
                         "--kind", "adjacency", "--tolerance", "1e-18",
                         "--out", str(out))
        assert code == EXIT_VERIFY
        assert json.loads(out.read_text())["passed"] is False

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_a_tolerance_that_decides_nothing_is_refused(self, tolerance, capsys,
                                                         monkeypatch):
        # NaN and infinity pass every input and a negative tolerance fails it
        def plan(cfg):
            raise AssertionError("verify started its work")

        monkeypatch.setattr(cli, "_plan", plan)
        code, stdout, err = run(capsys, "verify", "--seed", "complete:3", "--m", "1",
                                "--kind", "adjacency", "--tolerance", tolerance)
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err == (f"error: --tolerance must be finite and >= 0, "
                       f"got {float(tolerance)}\n")

    def test_a_zero_tolerance_still_runs(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--seed", "complete:2", "--m", "1",
                              "--kind", "laplacian", "--tolerance", "0")
        report = json.loads(stdout)
        assert report["tolerance"] == 0.0
        assert code == (EXIT_OK if report["passed"] else EXIT_VERIFY)

    def test_a_path_seed_verifies(self, capsys):
        for kind in ("adjacency", "signless"):
            code, stdout, err = run(capsys, "verify", "--seed", "path:4", "--m", "1",
                                    "--kind", kind)
            assert (code, err) == (EXIT_OK, "")
            assert json.loads(stdout)["passed"] is True

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "verify", "--seed", "star:4", "--m", "1", "--kind", "signless",
            "--out", str(a))
        run(capsys, "verify", "--seed", "star:4", "--m", "1", "--kind", "signless",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestConfig:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--seed", "complete:3", "--m", "1", "--kind", "adjacency",
         "--force"],
        ["generate", "--seed", "complete:3", "--m", "1", "--tolerance", "1e-9"],
    ])
    def test_flags_belong_to_their_one_command(self, capsys, argv):
        # --force only overrides stats' size guards, --tolerance only verify
        assert main(argv) == EXIT_CONFIG

    def test_unknown_flag_rejected(self, capsys):
        assert main(["stats", "--seed", "path:3", "--m", "1", "--bogus"]) == EXIT_CONFIG

    def test_bad_seed_spec(self, capsys):
        code, _, err = run(capsys, "stats", "--seed", "heptagon:7", "--m", "1")
        assert code == EXIT_CONFIG
        assert "seed" in err

    def test_missing_required(self, capsys):
        assert main(["stats", "--m", "1"]) == EXIT_CONFIG

    def test_empty_seed_gets_only_the_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.edges"
        empty.write_text("# n=0\n")
        code, stdout, err = run(capsys, "stats", "--seed", f"file:{empty}", "--m", "1")
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err == "error: seed must be nonempty\n"

    def test_negative_m(self, capsys):
        code, _, err = run(capsys, "generate", "--seed", "complete:3", "--m", "-1")
        assert (code, err) == (EXIT_CONFIG, "error: m must be nonnegative\n")

    def test_bad_node_count_header(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("# n=abc\n0 1\n")
        code, _, err = run(capsys, "generate", "--seed", f"file:{bad}", "--m", "1")
        assert (code, err) == (EXIT_CONFIG, "error: line 1: bad node count 'n=abc'\n")

    @pytest.mark.parametrize("endpoint", ["9999999999", "99999999999999999999",
                                          "-99999999999999999999"])
    def test_an_endpoint_past_the_node_count(self, capsys, tmp_path, endpoint):
        # the last two do not fit in int64
        bad = tmp_path / "bad.edges"
        bad.write_text(f"# n=5\n{endpoint} 1\n")
        code, stdout, err = run(capsys, "spectrum", "--seed", f"file:{bad}", "--m", "0",
                                "--kind", "adjacency")
        assert (code, stdout, err) == (EXIT_CONFIG, "", "error: edge endpoint out of range\n")

    def test_bad_edge_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 0\n")
        code, _, _ = run(capsys, "stats", "--seed", f"file:{bad}", "--m", "1")
        assert code == EXIT_CONFIG


class TestSeedCap:
    """A seed over --node-cap is refused before anything of it is allocated."""

    COMMANDS = {
        "generate": [],
        "stats": ["--betweenness"],
        "spectrum": ["--kind", "adjacency"],
        "verify": ["--kind", "laplacian"],
    }
    # seed text (a file seed) or spec, and the node count it is judged by
    SEEDS = {
        "builtin": ("complete:100000000000", 100_000_000_000),
        "header": ("# n=1000000000000\n0 1\n", 1_000_000_000_000),
        "endpoint": ("0 1\n1 999999999999\n", 1_000_000_000_000),
    }

    @pytest.fixture(autouse=True)
    def nothing_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the seed graph was built")

        monkeypatch.setattr(graph.Graph, "from_edges", classmethod(refuse))

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("seed", list(SEEDS))
    def test_oversized_seed_exits_4(self, command, seed, capsys, tmp_path):
        spec, nodes = self.SEEDS[seed]
        if seed != "builtin":
            (tmp_path / "big.edges").write_text(spec)
            spec = f"file:{tmp_path / 'big.edges'}"
        out = tmp_path / "out"
        code, stdout, err = run(capsys, command, "--seed", spec, "--m", "0",
                                "--out", str(out), *self.COMMANDS[command])
        assert (code, stdout) == (EXIT_CAP, "")
        assert err == (f"error: the seed has {nodes} nodes, over the cap of "
                       f"{graph.DEFAULT_NODE_CAP}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("k,cap", [(2_000_000, graph.DEFAULT_NODE_CAP),
                                       (3_000_000, 3_000_000)])
    def test_dense_seed_refused_by_its_edges(self, command, k, cap, capsys, tmp_path):
        # within the node cap, but k(k-1)/2 edges would take terabytes
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, command, "--seed", f"complete:{k}",
                                    "--m", "0", "--node-cap", str(cap),
                                    "--out", str(out), *self.COMMANDS[command])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, stdout) == (EXIT_CAP, "")
        assert err == f"error: the seed has {k * (k - 1) // 2} edges, over the cap of {cap}\n"
        assert peak < 2 ** 20
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        # counted before any line is parsed: the bad last line is never read
        ("# n=3\n" + "0 1\n" * 6 + "x y\n", "the seed has 7 edges, over the cap of 5"),
        # a header over the cap is refused as soon as it is read
        ("# n=6\n0 1\nx y\n", "the seed has 6 nodes, over the cap of 5"),
    ])
    def test_file_seed_refused_before_its_edges_are_parsed(self, text, message, capsys,
                                                           tmp_path):
        seed = tmp_path / "big.edges"
        seed.write_text(text)
        code, stdout, err = run(capsys, "stats", "--seed", f"file:{seed}", "--m", "0",
                                "--node-cap", "5")
        assert (code, stdout, err) == (EXIT_CAP, "", f"error: {message}\n")

    def test_the_node_cap_flag_sets_the_bound(self, capsys):
        code, _, err = run(capsys, "spectrum", "--seed", "cycle:6", "--m", "3",
                           "--kind", "laplacian", "--node-cap", "5")
        assert (code, err) == (EXIT_CAP,
                               "error: the seed has 6 nodes, over the cap of 5\n")


class TestNodeIdWidth:
    """Node ids are int32: a graph of 2**31 nodes or more is refused from its
    predicted count, under any --node-cap, before anything is allocated."""

    @pytest.fixture(autouse=True)
    def nothing_built(self, monkeypatch):
        # a missing refusal fails here instead of allocating gigabytes: every
        # level-m array, streamed edges, degrees or blocks, is read off the layout
        def refuse(*args):
            raise AssertionError("the level's layout was read")

        monkeypatch.setattr(graph, "level_table", refuse)
        monkeypatch.setattr(structural, "level_table", refuse)

    @pytest.mark.parametrize("command", ["generate", "stats"])
    def test_a_deep_level_exits_4(self, command, capsys, tmp_path):
        out = tmp_path / "out"
        code, stdout, err = run(capsys, command, "--seed", "complete:3", "--m", "16",
                                "--node-cap", str(10 ** 11), "--out", str(out))
        assert (code, stdout) == (EXIT_CAP, "")
        assert err == (f"error: level 16 has {3 * 4 ** 16} nodes, but node ids are "
                       f"32-bit: at most {graph.MAX_NODES} fit\n")
        assert not out.exists()

    def test_a_file_seed_past_the_ids_exits_4(self, capsys, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("the seed graph was built")

        monkeypatch.setattr(graph.Graph, "from_edges", classmethod(refuse))
        seed = tmp_path / "big.edges"
        seed.write_text("# n=3000000000\n0 1\n")
        code, stdout, err = run(capsys, "generate", "--seed", f"file:{seed}", "--m", "0",
                                "--node-cap", str(10 ** 11))
        assert (code, stdout) == (EXIT_CAP, "")
        assert err == ("error: the seed has 3000000000 nodes, but node ids are "
                       f"32-bit: at most {graph.MAX_NODES} fit\n")

    def test_the_closed_form_builds_no_graph_and_is_not_refused(self, capsys):
        assert graph.node_count_formula(50, 5) > graph.MAX_NODES
        code, stdout, err = run(capsys, "spectrum", "--seed", "complete:50", "--m", "5",
                                "--kind", "adjacency")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(stdout)["closed_form"] is True


class TestBadPath:
    """A seed file or --out path that cannot be opened is a config error:
    one stderr line, no traceback and no --out file."""

    COMMANDS = TestSeedCap.COMMANDS

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("case", ["missing seed", "directory seed", "missing dir"])
    def test_one_line_and_exit_2(self, command, case, capsys, tmp_path):
        seed, out = "complete:3", tmp_path / "out.json"
        if case == "missing seed":
            seed = f"file:{tmp_path / 'missing.edges'}"
        elif case == "directory seed":
            seed = f"file:{tmp_path}"
        else:
            out = tmp_path / "missing" / "out.json"
        code, _, err = run(capsys, command, "--seed", seed, "--m", "1",
                           "--out", str(out), *self.COMMANDS[command])
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()


class TestHugeM:
    @pytest.mark.parametrize("command", ["generate", "stats"])
    def test_refused_from_the_exponent_of_m(self, command, capsys):
        # computing the counts' powers would allocate about 93 MB and take a second
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, command, "--seed", "complete:3",
                                    "--m", str(10 ** 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, stdout) == (EXIT_CAP, "")
        assert err == "error: node count outside checked 128-bit range\n"
        assert peak < 2 ** 20


class TestSeedEigensolveCap:
    @pytest.mark.parametrize("m,kind", [("0", "adjacency"), ("1", "laplacian")])
    def test_a_seed_over_the_oracle_cap_is_refused_by_name(self, capsys, m, kind):
        # refused before the 288 MB seed matrix is built
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, "spectrum", "--seed", "cycle:6000", "--m", m,
                                    "--kind", kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, stdout) == (EXIT_CAP, "")
        assert err == "error: seed eigensolve on 6000 nodes exceeds the oracle cap of 5000\n"
        assert peak < 2 ** 23


class TestEigensolveWorkCap:
    def test_a_seed_of_many_main_eigenvalues_is_refused_before_any_step(
            self, capsys, monkeypatch, tmp_path):
        def step(*args):
            raise AssertionError("a corona step ran")

        monkeypatch.setattr(spectral, "corona_step", step)
        seed = tmp_path / "random.edges"
        seed.write_text(reference.edge_list_text(
            random_connected_graph(1000, random.Random(1000))))
        out = tmp_path / "spec.json"
        start = time.perf_counter()
        code, stdout, err = run(capsys, "spectrum", "--seed", f"file:{seed}", "--m", "1",
                                "--kind", "adjacency", "--out", str(out))
        assert time.perf_counter() - start < 2.0
        assert (code, stdout) == (EXIT_CAP, "")
        assert re.fullmatch(r"error: the closed form's (\d+)x\1 eigensolves may cost \d+ "
                            r"\(entries times \1\^3\) by level 1, reaching the work cap "
                            f"of {spectral.WORK_CAP}\n", err)
        assert not out.exists()


class TestClosedPipe:
    """A reader that stops early, as ``| head`` does, ends the command with
    EXIT_PIPE and no traceback."""

    @pytest.mark.parametrize("argv", [
        # each writes far more than a pipe buffer holds
        ["spectrum", "--seed", "complete:3", "--m", "12", "--kind", "adjacency"],
        ["generate", "--seed", "complete:3", "--m", "7"],
    ])
    def test_exits_with_the_pipe_code(self, argv):
        with subprocess.Popen([sys.executable, "-m", "coronagraphs.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=package_env()) as child:
            assert len(child.stdout.read(100)) == 100
            child.stdout.close()
            code = child.wait(timeout=60)
            err = child.stderr.read().decode()
        assert (code, err) == (EXIT_PIPE, "")


class TestImportCost:
    """A command loads no module it does not need: under numpy >= 2.3 a plain
    ``np.unique`` imports ``numpy.ma`` on its first call."""

    SCRIPT = ("import json, sys\n"
              "import coronagraphs.cli\n"
              "before = set(sys.modules)\n"
              "code = coronagraphs.cli.main(sys.argv[1:])\n"
              "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n")

    @pytest.mark.parametrize("argv", [
        ["generate", "--seed", "complete:3", "--m", "2"],
        ["stats", "--seed", "complete:3", "--m", "3", "--betweenness"],
        ["spectrum", "--seed", "cycle:5", "--m", "2", "--kind", "laplacian"],
        ["verify", "--seed", "complete:3", "--m", "1", "--kind", "adjacency"],
    ])
    def test_a_command_does_not_import_numpy_ma(self, argv, tmp_path):
        child = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=package_env(), timeout=120, check=True)
        code, added = json.loads(child.stdout.splitlines()[-1])
        assert code == EXIT_OK
        assert "numpy.ma" not in added


class TestParserReuse:
    """One parser serves every ``main`` call of a process; each call still
    parses into its own Namespace, with its own --out sink."""

    SPECTRUM = ["spectrum", "--seed", "complete:3", "--m", "3", "--kind", "adjacency"]

    def test_each_call_gets_its_own_sink(self, capsys, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        p, q = tmp_path / "p", tmp_path / "q"
        assert run(capsys, *self.SPECTRUM, "--out", str(p)) == (EXIT_OK, "", "")
        first = p.read_text()
        # the next call, without --out, writes to stdout
        assert run(capsys, *self.SPECTRUM) == (EXIT_OK, first, "")
        assert p.read_text() == first
        assert len(opened) == 1 and opened[0].closed
        # and a call after it opens its own --out
        assert run(capsys, *self.SPECTRUM, "--out", str(q)) == (EXIT_OK, "", "")
        assert (p.read_text(), q.read_text()) == (first, first)
        assert len(opened) == 2 and all(fh.closed for fh in opened)

    def test_a_usage_error_between_calls_changes_nothing(self, capsys, tmp_path):
        code, want, _ = run(capsys, *self.SPECTRUM)
        assert code == EXIT_OK
        bad = tmp_path / "bad"
        code, _, err = run(capsys, "spectrum", "--seed", "complete:3", "--m", "3",
                           "--kind", "bogus", "--out", str(bad), "--format", "csv")
        assert code == EXIT_CONFIG and "invalid choice" in err
        assert not bad.exists()
        assert run(capsys, *self.SPECTRUM) == (EXIT_OK, want, "")
