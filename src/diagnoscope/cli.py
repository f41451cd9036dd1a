"""Command-line interface.

Subcommands: gen, analyze, recognize, syndrome, verify, paths.
JSON results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 usage error, 2 input format error, 3 budget or cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional, Tuple

from .connectivity import internally_disjoint_paths, vertex_connectivity
from .diagnosis import DiagModel
from .families import generate_standard, make_gamma, recognize_exceptional
from .formats import (
    FormatError,
    bounds_to_json,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_gamma_spec,
    parse_graph6,
)
from .graphs import CapExceededError, Graph, GraphError
from .syndrome import (
    ALL_ONE,
    ALL_ZERO,
    decode,
    generate_syndrome,
    seeded_random,
)
from .tolerance import Facts, edge_tolerable_diagnosability, theoretical_bounds
from .verification import ALL_CLAIMS, Budget, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _int_at_least(minimum: int):
    """argparse type for an integer count no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


_nonnegative = _int_at_least(0)
_positive = _int_at_least(1)


def _vertex_list(text: str) -> List[int]:
    """argparse type for a comma-separated list of distinct vertices, returned sorted."""
    try:
        vertices = sorted(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid vertex list {text!r}")
    if len(set(vertices)) < len(vertices):
        raise argparse.ArgumentTypeError(f"repeated vertex in {text!r}")
    return vertices


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


_EDGE_LIST_HEADER = re.compile(r"^\s*\d+\s+\d+\s*$")


def load_graph(path: str, fmt: str = "auto", cap: Optional[int] = None) -> Tuple[Graph, str]:
    """Read a graph file (or stdin for '-'), auto-detecting the format.

    graph6 files may hold one graph per line; the first line is used.
    """
    text = _read_input(path)
    if fmt == "auto":
        first = next(
            (line for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")),
            "",
        )
        fmt = "edge-list" if _EDGE_LIST_HEADER.match(first) else "graph6"
    if fmt == "edge-list":
        return parse_edge_list(text, cap=cap), "edge-list"
    first = next((line for line in text.splitlines() if line.strip()), "")
    return parse_graph6(first, cap=cap), "graph6"


def _load_nonempty(args) -> Tuple[Graph, str]:
    """``load_graph`` for commands that are undefined on zero vertices."""
    g, fmt = load_graph(args.input, args.format, args.cap)
    if g.n == 0:
        raise FormatError("graph has no vertices")
    return g, fmt


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _model_list(name: str) -> List[DiagModel]:
    if name == "pmc":
        return [DiagModel.PMC]
    if name == "mm":
        return [DiagModel.MMSTAR]
    return [DiagModel.PMC, DiagModel.MMSTAR]


def _cmd_gen(args) -> int:
    if not args.kind:
        raise UsageError("gen requires a graph kind")
    kind = args.kind[0]
    params = args.kind[1:]
    if kind == "gamma":
        if len(params) != 1:
            raise UsageError("gen gamma requires a spec file (JSON) or '-'")
        spec = parse_gamma_spec(_read_input(params[0]))
        try:
            g = make_gamma(spec)
        except CapExceededError:
            raise
        except GraphError as exc:  # a well-formed spec that describes no family member
            raise FormatError(f"bad family spec: {exc}")
    else:
        try:
            numbers = [int(p) for p in params]
        except ValueError:
            raise UsageError(f"gen {kind} takes integer parameters, got {' '.join(params)!r}")
        g = generate_standard(kind, *numbers, seed=args.seed)
    if args.format == "edge-list":
        sys.stdout.write(emit_edge_list(g))
    else:
        sys.stdout.write(emit_graph6(g) + "\n")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    g, fmt = _load_nonempty(args)
    name = args.name or (args.input if args.input != "-" else "stdin")
    facts = Facts(g)
    recognition = facts.recognition
    family_json = {"member": recognition.member}
    if recognition.index is not None:
        family_json["index"] = recognition.index
    family_json["status"] = "decided"
    h_max = args.h_max if args.h_max is not None else 1
    results = []
    for model in _model_list(args.model):
        for h in range(0, h_max + 1):
            bounds = theoretical_bounds(g, h, model, facts=facts)
            entry = {"model": model.value, "h": h}
            if args.method == "bounds":
                if bounds.exact is not None:
                    entry["value"] = bounds.exact
                    entry["method"] = "theorem"
            elif args.method == "auto" and bounds.exact is not None:
                entry["value"] = bounds.exact
                entry["method"] = "theorem"
            else:  # brute, or auto with no applicable theorem
                tol = edge_tolerable_diagnosability(g, h, model)
                entry["value"] = tol.value
                entry["method"] = tol.method
                if tol.worst_scenario is not None:
                    entry["worst_scenario"] = [list(e) for e in tol.worst_scenario]
            entry["bounds"] = bounds_to_json(bounds)
            results.append(entry)
    report = {
        "graph": {"name": name, "n": g.n, "m": g.m, "format_echo": fmt},
        "kappa": facts.kappa,
        "delta": facts.delta,
        "max_common_neighbors": max(facts.common, 0),
        "regular": facts.regular,
        "maximally_connected": facts.kappa == facts.delta,
        "exceptional_family": family_json,
        "results": results,
    }
    _print_json(report)
    return EXIT_OK


def _cmd_recognize(args) -> int:
    g, _ = load_graph(args.input, args.format, args.cap)
    result = recognize_exceptional(g)
    payload = {"member": result.member}
    if result.index is not None:
        payload["index"] = result.index
    payload["status"] = "decided"
    if result.witness is not None:
        payload["blocks"] = {
            "vertex_map": list(result.witness.vertex_map),
            "family": result.witness.spec.family,
            "delta": result.witness.spec.delta,
            "l": result.witness.spec.l,
        }
    _print_json(payload)
    return EXIT_OK


def _cmd_syndrome(args) -> int:
    g, _ = load_graph(args.input, args.format, args.cap)
    faults = args.faults
    model = DiagModel.PMC if args.model == "pmc" else DiagModel.MMSTAR
    if args.policy == "zero":
        policy = ALL_ZERO
    elif args.policy == "one":
        policy = ALL_ONE
    else:
        policy = seeded_random(args.seed)
    syndrome = generate_syndrome(g, faults, model, policy)
    budget = args.t if args.t is not None else len(faults)
    candidates = decode(g, syndrome, budget, model)
    payload = {
        "model": model.value,
        "faults": faults,
        "policy": args.policy,
        "t": budget,
        "syndrome": syndrome.to_lines(),
        "candidates": [sorted(c) for c in candidates],
        "unique": len(candidates) == 1,
    }
    _print_json(payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    claims = None
    if args.claims:
        claims = [c.strip() for c in args.claims.split(",") if c.strip()]
        unknown = [c for c in claims if c not in ALL_CLAIMS]
        if unknown:
            raise UsageError(
                f"unknown claims: {', '.join(unknown)}; available: {', '.join(ALL_CLAIMS)}"
            )
    budget = Budget(
        max_n=args.max_n,
        max_scenarios=args.max_scenarios,
        connectivity_trials_per_graph=args.trials,
        seed=args.seed,
    )
    report = run_suite(claims=claims, budget=budget, h_max=args.h_max)
    if args.report_format == "json":
        _print_json(report.to_json_dict())
    else:
        sys.stdout.write(report.to_table())
    return EXIT_OK


def _cmd_paths(args) -> int:
    g, _ = _load_nonempty(args)
    if args.pair:
        u, v = args.pair
        family = internally_disjoint_paths(g, u, v)
        payload = {
            "source": u,
            "target": v,
            "count": family.count,
            "paths": [list(p) for p in family.paths],
        }
    else:
        report = vertex_connectivity(g)
        payload = {
            "kappa": report.kappa,
            "delta": report.delta,
            "maximally_connected": report.maximally_connected,
            "witness_cut": sorted(report.witness_cut),
        }
    _print_json(payload)
    return EXIT_OK


def _add_input_options(sub) -> None:
    sub.add_argument("input", nargs="?", default="-", help="graph file, or - for stdin")
    sub.add_argument(
        "--format", choices=("auto", "graph6", "edge-list"), default="auto",
        help="input format (default: auto-detect)",
    )
    sub.add_argument("--cap", type=_nonnegative, default=None, help="vertex-count cap override")


def build_parser() -> _Parser:
    parser = _Parser(prog="diagnoscope", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_gen = sub.add_parser("gen", help="generate standard graphs and family instances")
    p_gen.add_argument("kind", nargs="*", help="gamma and a spec file, or a standard kind and its integers")
    p_gen.add_argument(
        "--format", choices=("graph6", "edge-list"), default="graph6",
        help="output format (default graph6)",
    )
    p_gen.add_argument("--seed", type=int, default=0, help="seed for randomized kinds")
    p_gen.set_defaults(func=_cmd_gen)

    p_an = sub.add_parser("analyze", help="full diagnosability report as JSON")
    _add_input_options(p_an)
    p_an.add_argument("--model", choices=("pmc", "mm", "both"), default="both")
    p_an.add_argument("--h-max", type=_nonnegative, default=None, dest="h_max",
                      help="edge budgets 0..K (default 1)")
    p_an.add_argument("--method", choices=("brute", "bounds", "auto"), default="auto")
    p_an.add_argument("--jobs", type=_positive, default=1, help="ignored (the sweep runs in one process)")
    p_an.add_argument("--name", default=None, help="graph name echoed in the report")
    p_an.set_defaults(func=_cmd_analyze)

    p_rec = sub.add_parser("recognize", help="exceptional-family membership, decided at every size")
    _add_input_options(p_rec)
    p_rec.set_defaults(func=_cmd_recognize)

    p_syn = sub.add_parser("syndrome", help="inject faults, emit a syndrome, decode it back")
    _add_input_options(p_syn)
    p_syn.add_argument("--faults", type=_vertex_list, default="", help="comma-separated fault vertices")
    p_syn.add_argument("--model", choices=("pmc", "mm"), default="pmc")
    p_syn.add_argument("--policy", choices=("zero", "one", "random"), default="zero",
                       help="adversary completion for faulty-controlled outcomes")
    p_syn.add_argument("--seed", type=int, default=0, help="seed for --policy random")
    p_syn.add_argument("--t", type=_nonnegative, default=None, help="decoding budget (default |faults|)")
    p_syn.set_defaults(func=_cmd_syndrome)

    p_ver = sub.add_parser("verify", help="run the theorem-checking suite")
    p_ver.add_argument("--claims", default=None, help="comma-separated claim ids (default all)")
    p_ver.add_argument("--format", dest="report_format", choices=("table", "json"),
                       default="table")
    p_ver.add_argument("--h-max", type=_nonnegative, default=3, dest="h_max")
    p_ver.add_argument("--max-n", type=_nonnegative, default=16)
    p_ver.add_argument("--max-scenarios", type=_nonnegative, default=8192)
    p_ver.add_argument("--trials", type=_nonnegative, default=8,
                       help="edge-deletion connectivity trials per graph")
    p_ver.add_argument("--seed", type=int, default=20250810)
    p_ver.add_argument("--jobs", type=_positive, default=1, help="ignored (the sweep runs in one process)")
    p_ver.set_defaults(func=_cmd_verify)

    p_path = sub.add_parser("paths", help="connectivity and internally disjoint paths")
    _add_input_options(p_path)
    p_path.add_argument("--pair", type=int, nargs=2, metavar=("U", "V"),
                        help="report a maximum disjoint-path family between U and V")
    p_path.set_defaults(func=_cmd_paths)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away: stop quietly, and send the flush at exit to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
