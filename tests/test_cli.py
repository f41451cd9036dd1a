import gzip
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagnoscope.cli import UsageError, _json_text, build_parser, load_graph, main
from diagnoscope.families import (
    complete,
    generate_standard,
    hypercube,
    make_gamma,
    petersen,
    random_t_connected,
)
from diagnoscope.formats import emit_edge_list, emit_graph6, parse_gamma_spec, parse_graph6
from diagnoscope.families import GammaSpec
from oracles import gamma_spec_to_json


SRC = Path(__file__).resolve().parent.parent / "src"
GOLDENS = SRC.parent / "bench" / "goldens"
# ``syndrome --faults 0,5`` stdout per graph, model and policy
SYNDROME_GOLDEN = Path(__file__).resolve().parent / "goldens" / "syndrome-faults-0-5.json"
SYNDROME_POLICIES = {"zero": ["--policy", "zero"], "one": ["--policy", "one"],
                     "random-7": ["--policy", "random", "--seed", "7"]}
# the same on Q6, the vertex cap, at two faults and at six with --t 6
SYNDROME_Q6_GOLDEN = SYNDROME_GOLDEN.with_name("syndrome-q6.json")
SYNDROME_Q6_FAULTS = {"faults-0-5": ["--faults", "0,5"],
                      "faults-1-2-4-8-16-32-t6": ["--faults", "1,2,4,8,16,32", "--t", "6"]}
FAMILY_3 = {"family": 3, "delta": 3, "l": 4, "assign_left": [0, 1, 0, 1], "assign_right": [0, 1, 0, 1]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_hypercube_graph6(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "hypercube", "3")
        assert code == 0
        assert parse_graph6(out.strip()) == hypercube(3)

    def test_edge_list_output(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "complete", "4", "--format", "edge-list")
        assert code == 0
        assert out.splitlines()[0] == "4 6"

    def test_circulant(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "circulant", "8", "1", "2")
        assert code == 0
        assert parse_graph6(out.strip()).min_degree == 4

    def test_gamma_from_spec_file(self, capsys, tmp_path):
        spec = GammaSpec(1, 3, 4, core_edges=((0, 1), (0, 2), (1, 2)))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(gamma_spec_to_json(spec)))
        code, out, _ = run_cli(capsys, "gen", "gamma", str(path))
        assert code == 0
        assert parse_graph6(out.strip()).n == 7

    @pytest.mark.parametrize("spec", [
        {"family": 1, "delta": 3, "l": 4, "core_edges": [[0, 1, 2]]},
        {"family": 2, "delta": 3, "l": 4, "core_pair_edges": [[0]]},
        {"family": 4, "delta": 3, "l": 4, "bridge": [0]},
        {"family": 1, "delta": 3, "l": 4, "core_edges": [["a", "b"]]},
        {"family": 5, "delta": 3, "l": 5, "attach": ["x"]},
        {"family": 1, "delta": 3, "l": 4.7},
        {"family": 1, "delta": 3},
        # well-formed, but make_gamma rejects them
        {"family": 1, "delta": 3, "l": 4, "core_edges": [[0, 5]]},
        {"family": 1, "delta": 2, "l": 4},
        # content the construction would silently ignore
        {"family": 1, "delta": 3, "l": 4, "bogus": 1},
        {"family": 1, "delta": 3, "l": 4, "bridge": [0, 2]},
        {"family": 1, "delta": 3, "l": 4, "assign": [0, 1, 0, 1]},
        {"family": 2, "delta": 3, "l": 4, "core_pair_edges": [[0, 0], [0, 0]], "assign": [0, 1, 0, 1]},
        {**FAMILY_3, "core_left_edges": [[0, 1], [0, 1]]},
        {**FAMILY_3, "core_right_edges": [[0, 0], [0, 0]]},
        {**FAMILY_3, "left_right_edges": [[1, 0], [1, 0]]},
        {"family": 1, "delta": 3, "l": 4, "bridge": [0, 1]},  # the default bridge
        {"family": 1, "delta": 3, "l": 4, "attach": []},  # a default, on a family without it
        {"family": 9, "delta": 3, "l": 4, "attach": []},  # make_gamma rejects the index
    ])
    def test_malformed_gamma_spec_exit_2(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "gen", "gamma", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("input error: bad family spec: ")
        assert "Traceback" not in err

    def test_gamma_over_cap_exit_3(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"family": 1, "delta": 3, "l": 80}))
        code, out, err = run_cli(capsys, "gen", "gamma", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("cap exceeded: ")

    @pytest.mark.parametrize("argv", [
        ("hypercube", "40"),
        ("cycle", "1000000000000"),
        ("complete-bipartite", "1000000", "1000000"),
        ("wheel", "1000000000"),
        ("random-t-connected", "100000", "3"),
        ("gamma", '{"family": 1, "delta": 3, "l": 1000000000000}'),
    ], ids=["hypercube", "cycle", "bipartite", "wheel", "random-t-connected", "gamma"])
    def test_huge_size_exit_3_at_once(self, capsys, monkeypatch, argv):
        # each of these once built its edges before the cap check
        monkeypatch.delenv("DIAGNOSCOPE_CAP", raising=False)
        if argv[0] == "gamma":
            monkeypatch.setattr("sys.stdin", io.StringIO(argv[1]))
            argv = ("gamma", "-")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gen", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("cap exceeded: ")
        assert time.perf_counter() - start < 1.0

    def test_huge_gamma_with_bad_family_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"family": 9, "delta": 3, "l": 1000000000000}'))
        code, out, err = run_cli(capsys, "gen", "gamma", "-")
        assert (code, out) == (2, "")
        assert err == "input error: bad family spec: family index must be 1..5, got 9\n"

    def test_unknown_kind(self, capsys):
        code, _, err = run_cli(capsys, "gen", "dodecahedron")
        assert code == 1
        assert "unknown graph kind" in err

    def test_unsatisfiable_random(self, capsys):
        code, _, err = run_cli(capsys, "gen", "random-t-connected", "4", "9")
        assert code == 1

    def test_closed_pipe_exits_1_quietly(self, capsys, monkeypatch, tmp_path):
        class ClosedPipe:  # a stdout whose reader has gone away
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr("sys.stdout", ClosedPipe(fd))
            code = main(["gen", "hypercube", "3"])
            # the flush at exit goes to devnull, not to the closed pipe
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert code == 1
        assert capsys.readouterr().err == ""


class TestAnalyze:
    def test_pipeline_hypercube_pmc(self, capsys, tmp_path):
        path = tmp_path / "q3.g6"
        path.write_text(emit_graph6(hypercube(3)) + "\n")
        code, out, _ = run_cli(
            capsys, "analyze", str(path), "--model", "pmc", "--h-max", "1",
            "--method", "brute",
        )
        assert code == 0
        report = json.loads(out)
        assert report["graph"]["n"] == 8
        assert report["kappa"] == 3
        assert report["maximally_connected"] is True
        values = {(r["model"], r["h"]): r["value"] for r in report["results"]}
        assert values == {("pmc", 0): 3, ("pmc", 1): 2}
        for r in report["results"]:
            assert r["method"] == "brute_force"
            assert "worst_scenario" in r

    def test_auto_uses_theorems_on_petersen(self, capsys, tmp_path):
        path = tmp_path / "pet.g6"
        path.write_text(emit_graph6(petersen()) + "\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--h-max", "1")
        assert code == 0
        report = json.loads(out)
        values = {(r["model"], r["h"]): r["value"] for r in report["results"]}
        assert values == {
            ("pmc", 0): 3, ("pmc", 1): 2, ("mm", 0): 3, ("mm", 1): 2,
        }
        assert all(r["method"] == "theorem" for r in report["results"])
        assert report["exceptional_family"]["member"] is False

    def test_auto_equals_brute_where_both_produce(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(emit_graph6(hypercube(3)) + "\n")
        _, auto_out, _ = run_cli(capsys, "analyze", str(path), "--h-max", "1")
        _, brute_out, _ = run_cli(
            capsys, "analyze", str(path), "--h-max", "1", "--method", "brute"
        )
        auto = json.loads(auto_out)
        brute = json.loads(brute_out)
        for a, b in zip(auto["results"], brute["results"]):
            assert a["value"] == b["value"]

    def test_bounds_only_omits_value_when_no_theorem(self, capsys, tmp_path):
        path = tmp_path / "c5.el"
        from diagnoscope.families import cycle

        path.write_text(emit_edge_list(cycle(5)))
        code, out, _ = run_cli(
            capsys, "analyze", str(path), "--method", "bounds", "--model", "mm", "--h-max", "0"
        )
        assert code == 0
        report = json.loads(out)
        entry = report["results"][0]
        # delta = 2 < 3: the comparison-model rules cannot apply
        assert "value" not in entry
        assert entry["bounds"]["upper"] == 2

    def test_mm_exact_value_above_twenty_vertices(self, capsys, tmp_path):
        from diagnoscope.families import wheel

        path = tmp_path / "wheel30.el"
        path.write_text(emit_edge_list(wheel(30)))
        code, out, _ = run_cli(
            capsys, "analyze", str(path), "--method", "bounds", "--model", "mm", "--h-max", "1"
        )
        assert code == 0
        report = json.loads(out)
        # wheel(30) is irregular with C(G) = 2, so only the template search
        # shows it outside the family
        assert report["exceptional_family"] == {"member": False, "status": "decided"}
        assert [r.get("value") for r in report["results"]] == [3, 2]
        exclusion = [c for c in report["results"][0]["bounds"]["conditions"] if c["rule"] == "family_exclusion"]
        assert exclusion == [
            {"rule": "family_exclusion", "condition": "graph is outside the exceptional family", "holds": True}
        ]

    def test_h_max_above_edge_count_exit_1_at_once(self, capsys, tmp_path):
        path = tmp_path / "pet.g6"
        path.write_text(emit_graph6(petersen()) + "\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", str(path), "--h-max", "3000000", "--model", "pmc")
        assert (code, out) == (1, "")
        assert err == "error: --h-max 3000000 exceeds the edge count m = 15\n"
        assert time.perf_counter() - start < 1.0

    def test_h_max_equal_to_edge_count(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(emit_edge_list(complete(4))))
        code, out, _ = run_cli(capsys, "analyze", "-", "--h-max", "6")
        assert code == 0
        rows = json.loads(out)["results"]
        assert [(r["model"], r["h"]) for r in rows] == [(m, h) for m in ("pmc", "mm") for h in range(7)]
        monkeypatch.setattr("sys.stdin", io.StringIO(emit_edge_list(complete(4))))
        assert run_cli(capsys, "analyze", "-", "--h-max", "7")[0] == 1

    def test_edgeless_graph_takes_budget_one(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 0\n"))
        code, out, _ = run_cli(capsys, "analyze", "-", "--model", "pmc")
        assert code == 0
        assert [r["h"] for r in json.loads(out)["results"]] == [0, 1]
        monkeypatch.setattr("sys.stdin", io.StringIO("3 0\n"))
        assert run_cli(capsys, "analyze", "-", "--h-max", "2")[0] == 1

    def test_edge_list_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(emit_edge_list(complete(4))))
        code, out, _ = run_cli(capsys, "analyze", "-", "--h-max", "0", "--model", "pmc")
        assert code == 0
        assert json.loads(out)["graph"]["format_echo"] == "edge-list"

    def test_duplicate_edge_warns_in_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n0 1\n1 0\n"))
        code, out, err = run_cli(capsys, "analyze", "-", "--method", "bounds")
        assert code == 0
        assert err == "warning: duplicate edge (1, 0) on line 3; deduplicated\n"
        assert json.loads(out)["graph"]["m"] == 1

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("3 1\n0 0\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("argv", [("analyze",), ("paths",), ("paths", "--pair", "0", "1")])
    def test_empty_graph_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "empty.el"
        path.write_text("0 0\n")
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("input error:")

    @pytest.mark.parametrize("command", ["recognize", "syndrome"])
    def test_empty_graph_other_commands_exit_0(self, capsys, tmp_path, command):
        path = tmp_path / "empty.el"
        path.write_text("0 0\n")
        code, out, _ = run_cli(capsys, command, str(path))
        assert code == 0
        json.loads(out)

    def test_cap_exit_3(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "k5.g6"
        path.write_text(emit_graph6(complete(5)) + "\n")
        monkeypatch.setenv("DIAGNOSCOPE_CAP", "4")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 3
        assert "cap" in err.lower()

    def test_large_over_cap_edge_list_exit_3(self, capsys, tmp_path):
        # 15,000 edges: a quadratic duplicate check took seconds to reach the cap
        edges = list(islice(combinations(range(200), 2), 15000))
        path = tmp_path / "big.txt"
        path.write_text("200 15000\n" + "".join(f"{u} {v}\n" for u, v in edges))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 3
        assert "200 vertices" in err
        assert time.perf_counter() - start < 2.0

    def test_large_over_cap_graph6_exit_3(self, capsys, tmp_path):
        # 4,000 vertices, 1.3 MB: decoding every bit took seconds to reach the cap
        n = 4000
        line = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
        path = tmp_path / "big.g6"
        path.write_text(line + "?" * ((n * (n - 1) // 2 + 5) // 6) + "\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (3, "")
        assert err == "cap exceeded: graph on 4000 vertices exceeds the cap of 64\n"
        assert time.perf_counter() - start < 1.0

    def test_byte_stable(self, capsys, tmp_path):
        path = tmp_path / "pet.g6"
        path.write_text(emit_graph6(petersen()) + "\n")
        _, first, _ = run_cli(capsys, "analyze", str(path), "--h-max", "1")
        _, second, _ = run_cli(capsys, "analyze", str(path), "--h-max", "1")
        assert first == second


# every gen kind at a small size; gamma reads FAMILY_3 from a spec file
GEN_ARGV = [
    ("hypercube", "3"), ("complete", "0"), ("complete", "1"), ("complete", "4"),
    ("complete-bipartite", "2", "3"), ("cycle", "5"), ("path", "4"), ("petersen",),
    ("prism", "4"), ("wheel", "5"), ("circulant", "8", "1", "2"),
    ("random-t-connected", "8", "3", "1"), ("gamma",),
]
COMMENTS = "# a comment\n\n   # an indented comment\n\n"


class TestLoadGraph:
    """The first line neither blank nor a comment picks the format."""

    @pytest.mark.parametrize("argv", GEN_ARGV, ids="-".join)
    @pytest.mark.parametrize("comments", ["", COMMENTS], ids=["plain", "commented"])
    def test_both_formats_read_the_same_graph(self, capsys, tmp_path, argv, comments):
        if argv == ("gamma",):
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(FAMILY_3))
            argv = ("gamma", str(spec))
            expected = make_gamma(parse_gamma_spec(json.dumps(FAMILY_3)))
        else:
            expected = generate_standard(argv[0], *map(int, argv[1:]))
        for fmt in ("graph6", "edge-list"):
            code, out, _ = run_cli(capsys, "gen", *argv, "--format", fmt)
            assert code == 0
            path = tmp_path / f"graph.{fmt}"
            path.write_text(comments + out)
            assert load_graph(str(path)) == (expected, fmt)

    def test_graph6_after_comment_lines(self, capsys, tmp_path):
        path = tmp_path / "q3.g6"
        path.write_text(COMMENTS + emit_graph6(hypercube(3)) + "\n")
        code, out, err = run_cli(capsys, "paths", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["kappa"] == 3

    @pytest.mark.parametrize("header", ["3 x", "3", " 3 x y"])
    def test_bad_edge_list_header_exit_2(self, capsys, tmp_path, header):
        path = tmp_path / "bad.el"
        path.write_text(f"# a comment\n\n{header}\n0 1\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("input error: header") and "(line 3)" in err

    @pytest.mark.parametrize("command", ["analyze", "recognize", "syndrome", "paths"])
    @pytest.mark.parametrize("option", [("--format", "graph6"), ("--cap", "100")])
    def test_no_input_options(self, capsys, command, option):
        # the format is read off the input and the cap is DIAGNOSCOPE_CAP
        code, out, err = run_cli(capsys, command, "-", *option)
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {' '.join(option)}" in err
        assert "Traceback" not in err


class TestOtherCommands:
    def test_usage_error_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--model", "bogus")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("analyze", "--h-max", "-1"),
        ("analyze", "--jobs", "0"),
        ("analyze", "--jobs", "-3"),
        ("analyze", "--jobs", "two"),
        ("verify", "--h-max", "-1"),
        ("verify", "--max-n", "-1"),
        ("verify", "--max-scenarios", "-1"),
        ("verify", "--trials", "-2"),
        ("verify", "--jobs", "0"),
        ("syndrome", "--faults", "1,x"),
        ("syndrome", "--faults", "1,1"),
        ("syndrome", "--t", "-1"),
    ])
    def test_out_of_range_count_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"argument {argv[1]}" in err

    @pytest.mark.parametrize("argv", [
        ("gen", "hypercube", "abc"),
        ("gen", "circulant", "8", "1", "two"),
    ])
    def test_non_integer_gen_parameter_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: gen {argv[1]} takes integer parameters")
        assert len(err.splitlines()) == 1

    def test_recognize_has_no_recognizer_cap_option(self, capsys):
        # the recognizer decides every graph under the vertex cap, so the
        # option that once bounded it is an unknown option like any other
        code, out, err = run_cli(capsys, "recognize", "-", "--recognizer-cap", "5")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --recognizer-cap" in err

    def test_analyze_has_no_seed_option(self, capsys):
        # analysis is deterministic, so --seed is an unknown option like any other
        code, out, err = run_cli(capsys, "analyze", "-", "--seed", "1")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --seed" in err

    def test_no_command_prints_help(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_recognize(self, capsys, tmp_path):
        spec = GammaSpec(1, 3, 4, core_edges=((0, 1), (0, 2), (1, 2)))
        from diagnoscope.families import make_gamma

        path = tmp_path / "gamma.g6"
        path.write_text(emit_graph6(make_gamma(spec)) + "\n")
        code, out, _ = run_cli(capsys, "recognize", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is True
        assert payload["index"] == 1
        assert payload["status"] == "decided"

    def test_syndrome_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "q3.g6"
        path.write_text(emit_graph6(hypercube(3)) + "\n")
        code, out, _ = run_cli(
            capsys, "syndrome", str(path), "--faults", "2", "--model", "pmc",
            "--policy", "random", "--seed", "7", "--t", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["faults"] == [2]
        assert payload["candidates"] == [[2]]
        assert payload["unique"] is True
        assert len(payload["syndrome"]) == 24

    def test_syndrome_lines_list_entry_then_bit(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n0 1\n1 2\n"))
        code, out, _ = run_cli(capsys, "syndrome", "-", "--faults", "1", "--model", "pmc", "--policy", "zero")
        assert code == 0
        lines = json.loads(out)["syndrome"]
        assert lines == sorted(lines) == ["0 1 1", "1 0 0", "1 2 0", "2 1 1"]

    def test_paths_pair(self, capsys, tmp_path):
        path = tmp_path / "q3.g6"
        path.write_text(emit_graph6(hypercube(3)) + "\n")
        code, out, _ = run_cli(capsys, "paths", str(path), "--pair", "0", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 3
        assert len(payload["paths"]) == 3

    def test_paths_kappa(self, capsys, tmp_path):
        path = tmp_path / "pet.g6"
        path.write_text(emit_graph6(petersen()) + "\n")
        code, out, _ = run_cli(capsys, "paths", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa"] == 3
        assert payload["maximally_connected"] is True

    def test_verify_json_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claims", "connectivity_under_edge_deletion",
            "--format", "json", "--trials", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0

    def test_verify_default_json_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        assert out.encode() == gzip.decompress((GOLDENS / "verify-default-h3.json.gz").read_bytes())

    @pytest.mark.parametrize("model", ["pmc", "mm"])
    @pytest.mark.parametrize("name, h_max", [("hypercube-4", 2), ("petersen", 1)])
    def test_analyze_brute_json_matches_golden(self, capsys, monkeypatch, name, h_max, model):
        # the engine, the folded PMC table and the MM* sweep, worst scenarios included
        graph = hypercube(4) if name == "hypercube-4" else petersen()
        monkeypatch.setattr("sys.stdin", io.StringIO(emit_edge_list(graph)))
        code, out, _ = run_cli(
            capsys, "analyze", "-", "--method", "brute", "--h-max", str(h_max),
            "--model", model, "--name", name,
        )
        assert code == 0
        assert out.encode() == (GOLDENS / f"analyze-{name}-{model}-h{h_max}.json").read_bytes()

    def test_verify_unknown_claim(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--claims", "nope")
        assert code == 1
        assert "unknown claims" in err

    def test_verify_repeated_claim_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--claims", "family_irregularity, family_irregularity")
        assert (code, out) == (1, "")
        assert err == "error: repeated claim in 'family_irregularity, family_irregularity'\n"

    @pytest.mark.parametrize(
        "argv, limit", [(["--trials", "3000000"], 8192), (["--trials", "9", "--max-scenarios", "8"], 8)]
    )
    def test_verify_trials_above_scenario_budget_exit_1_at_once(self, capsys, argv, limit):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: --trials {argv[1]} exceeds --max-scenarios {limit}\n"
        assert time.perf_counter() - start < 1.0

    def test_verify_trials_equal_to_scenario_budget(self, capsys):
        argv = ("verify", "--claims", "connectivity_under_edge_deletion", "--format", "json", "--trials", "2")
        assert run_cli(capsys, *argv, "--max-scenarios", "2")[:2] == run_cli(capsys, *argv)[:2]

    @pytest.mark.parametrize("claims", [",", " , ", ""])
    def test_verify_claims_naming_no_claim_exit_1(self, capsys, claims):
        code, out, err = run_cli(capsys, "verify", "--claims", claims)
        assert (code, out) == (1, "")
        assert err.startswith("error: --claims names no claim; available: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("policy", list(SYNDROME_POLICIES))
    @pytest.mark.parametrize("model", ["pmc", "mm"])
    @pytest.mark.parametrize("name", ["q3", "petersen", "random-9-3-1"])
    def test_syndrome_json_matches_golden(self, capsys, monkeypatch, name, model, policy):
        graph = {"q3": hypercube(3), "petersen": petersen(), "random-9-3-1": random_t_connected(9, 3, 1)}[name]
        monkeypatch.setattr("sys.stdin", io.StringIO(emit_edge_list(graph)))
        code, out, _ = run_cli(capsys, "syndrome", "-", "--faults", "0,5", "--model", model,
                               *SYNDROME_POLICIES[policy])
        assert code == 0
        assert out == json.loads(SYNDROME_GOLDEN.read_text())[f"{name}-{model}-{policy}"]

    @pytest.mark.parametrize("faults", list(SYNDROME_Q6_FAULTS))
    @pytest.mark.parametrize("policy", list(SYNDROME_POLICIES))
    @pytest.mark.parametrize("model", ["pmc", "mm"])
    def test_syndrome_q6_json_matches_golden(self, capsys, monkeypatch, model, policy, faults):
        monkeypatch.setattr("sys.stdin", io.StringIO(emit_edge_list(hypercube(6))))
        code, out, _ = run_cli(capsys, "syndrome", "-", *SYNDROME_Q6_FAULTS[faults], "--model", model,
                               *SYNDROME_POLICIES[policy])
        assert code == 0
        assert out == json.loads(SYNDROME_Q6_GOLDEN.read_text())[f"q6-{model}-{policy}-{faults}"]


COMMANDS = ("gen", "analyze", "recognize", "syndrome", "verify", "paths")
# bad values for the commands' options; recognize takes no option with a value
BAD_VALUES = [("gen", "--format", "x"), ("gen", "--seed", "x"), ("analyze", "--model", "x"),
              ("analyze", "--h-max", "-1"), ("analyze", "--jobs", "0"), ("syndrome", "--t", "-1"),
              ("syndrome", "--faults", "1,1"), ("verify", "--trials", "x"), ("verify", "--format", "x"),
              ("verify", "--jobs", "0"), ("paths", "--pair", "1", "x"), ("paths", "--pair", "1")]


def parse_error(command, argv):
    with pytest.raises(UsageError) as caught:
        build_parser(command).parse_args(argv)
    return str(caught.value)


class TestParser:
    """``main`` builds the parser of the subcommand its first argument
    names and no other; what a user sees must not tell the two apart."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_equals_the_full_parser_help(self, capsys, command):
        texts = []
        for parser in (build_parser(command), build_parser()):
            with pytest.raises(SystemExit) as caught:
                parser.parse_args([command, "--help"])
            assert caught.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith(f"usage: diagnoscope {command} [-h]")

    @pytest.mark.parametrize("argv", BAD_VALUES)
    def test_bad_value_error_equals_the_full_parser_error(self, argv):
        message = parse_error(argv[0], list(argv))
        assert message == parse_error(None, list(argv))
        assert message.startswith(f"argument {argv[1]}")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unrecognized_argument_error_equals_the_full_parser_error(self, command):
        argv = [command, "--bogus"]
        assert parse_error(command, argv) == parse_error(None, argv) == "unrecognized arguments: --bogus"

    @pytest.mark.parametrize("argv, exit_code", [([], 1), (["-h"], 0), (["--help"], 0), (["bogus"], 1)])
    def test_no_command_help_or_unknown_command_names_all_six(self, capsys, argv, exit_code):
        try:
            code = main(argv)
        except SystemExit as exc:  # help exits 0
            code = exc.code
        assert code == exit_code
        text = "".join(capsys.readouterr())
        if "choose from " in text:  # an unknown command: the error lists the choices
            listing = text.split("choose from ")[1].split(")")[0]
            assert listing.replace("'", "").split(", ") == list(COMMANDS)
        else:
            assert "{" + ",".join(COMMANDS) + "}" in text

    def test_leading_double_dash_before_a_command_is_dropped(self, capsys):
        outputs = []
        for argv in (["--", "gen", "petersen"], ["gen", "petersen"]):
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out and not outputs[0].err

    def test_one_subparser_per_call_and_none_at_import(self):
        # count ArgumentParser constructions in a fresh interpreter
        code = textwrap.dedent("""
            import argparse, contextlib, io
            count = 0
            init = argparse.ArgumentParser.__init__
            def counted(self, *args, **kwargs):
                global count
                count += 1
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counted
            from diagnoscope.cli import main
            counts = [count]
            for argv in (["syndrome", "-", "--faults", "1"], []):
                before = count
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    main(argv)
                counts.append(count - before)
            print(counts)
        """)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, input=emit_graph6(hypercube(3)) + "\n",
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "[0, 2, 7]\n"



# strings json escapes: quotes, backslashes, control characters, non-ASCII
# and astral text, which ensure_ascii writes as a surrogate pair
_TRICKY = st.sampled_from(['', '"', '\\', '\x00\x1f\x7f', '\n\t\r\b\f', 'caf\u00e9', '\u2028', '\U0001f600', '\ud800'])
_JSON_SCALARS = (st.text() | _TRICKY | st.integers() | st.integers(min_value=-2**200, max_value=2**200)
                 | st.booleans() | st.none())
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text() | _TRICKY, inner, max_size=4),
    max_leaves=40,
)


class TestJsonText:
    """``_json_text`` must write exactly ``json.dumps(value, indent=2)``."""

    @given(_JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps_indent_2(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{}, [], (), {"": {}}, [[], ()], {"a": [{}]}])
    def test_empty_containers(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, [0.0], {"x": float("nan")}, {1: 2}, {None: 0}, {True: 0},
                                       {(1, 2): 0}, {1, 2}, [b"x"]])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _json_text(value)


def _graph_file(tmp_path, g):
    path = tmp_path / "g.g6"
    path.write_text(emit_graph6(g) + "\n")
    return str(path)


@pytest.mark.parametrize("graph", [petersen(), hypercube(4)], ids=["petersen", "q4"])
@pytest.mark.parametrize("argv", [
    ("analyze", "{}", "--model", "pmc", "--h-max", "2"),
    ("analyze", "{}", "--model", "mm", "--method", "brute"),
    ("recognize", "{}"),
    ("syndrome", "{}", "--faults", "0,5", "--model", "mm", "--policy", "random", "--seed", "3"),
    ("paths", "{}"),
    ("paths", "{}", "--pair", "0", "7"),
])
def test_json_output_equals_json_dumps_indent_2(capsys, tmp_path, graph, argv):
    path = _graph_file(tmp_path, graph)
    code, out, _ = run_cli(capsys, *(arg.format(path) for arg in argv))
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_verify_json_output_equals_json_dumps_indent_2(capsys):
    code, out, _ = run_cli(capsys, "verify", "--format", "json", "--h-max", "1", "--max-n", "10")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "diagnoscope", "gen", "petersen"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert parse_graph6(proc.stdout.strip()) == petersen()
