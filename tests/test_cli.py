import gzip
import io
import json
import os
import subprocess
import sys
import time
from itertools import combinations, islice
from pathlib import Path

import pytest

from diagnoscope.cli import main
from diagnoscope.families import complete, hypercube, petersen
from diagnoscope.formats import emit_edge_list, emit_graph6, gamma_spec_to_json, parse_graph6
from diagnoscope.families import GammaSpec


GOLDENS = Path(__file__).resolve().parent.parent / "bench" / "goldens"
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

    def test_edge_list_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(emit_edge_list(complete(4))))
        code, out, _ = run_cli(capsys, "analyze", "-", "--h-max", "0", "--model", "pmc")
        assert code == 0
        assert json.loads(out)["graph"]["format_echo"] == "edge-list"

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

    def test_cap_exit_3(self, capsys, tmp_path):
        path = tmp_path / "k5.g6"
        path.write_text(emit_graph6(complete(5)) + "\n")
        code, _, err = run_cli(capsys, "analyze", str(path), "--cap", "4")
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

    def test_byte_stable(self, capsys, tmp_path):
        path = tmp_path / "pet.g6"
        path.write_text(emit_graph6(petersen()) + "\n")
        _, first, _ = run_cli(capsys, "analyze", str(path), "--h-max", "1")
        _, second, _ = run_cli(capsys, "analyze", str(path), "--h-max", "1")
        assert first == second


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
        ("analyze", "--cap", "-1"),
        ("recognize", "--cap", "-5"),
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


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "diagnoscope", "gen", "petersen"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert parse_graph6(proc.stdout.strip()) == petersen()
