"""Command-line interface.

Subcommands: gen, analyze, recognize, syndrome, verify, paths.
JSON results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 usage error, 2 input format error, 3 budget or cap exceeded.  Graph input
takes no options: ``load_graph`` reads the format off the first content
line, and ``DIAGNOSCOPE_CAP`` is the one vertex-cap setting.

A call whose first argument names a command builds that command's parser
alone, one parser and no top-level one; help, usage and error text are
the same as those of its subparser with all six built.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from json.encoder import encode_basestring_ascii
from typing import List, Optional, Tuple

from .connectivity import internally_disjoint_paths, vertex_connectivity
from .diagnosis import DiagModel
from .families import RecognitionResult, generate_standard, make_gamma, recognize_exceptional
from .formats import (
    FormatError,
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
from .tolerance import BoundReport, Facts, edge_tolerable_diagnosability, theoretical_bounds
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
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot decode {path}: {exc}")


def load_graph(path: str) -> Tuple[Graph, str]:
    """Read a graph file (or stdin for '-') and the name of its format.

    The first line that is neither blank nor a ``#`` comment decides: an
    edge list opens with its ``n m`` header, so with a digit, and no graph6
    line does (graph6 bytes are 63-126).  Only that line is read as graph6.
    """
    text = _read_input(path)
    lines = (line.strip() for line in text.splitlines())
    first = next((line for line in lines if line and not line.startswith("#")), "")
    if first[:1].isdecimal():
        return parse_edge_list(text), "edge-list"
    return parse_graph6(first), "graph6"


def _load_nonempty(args) -> Tuple[Graph, str]:
    """``load_graph`` for commands that are undefined on zero vertices."""
    g, fmt = load_graph(args.input)
    if g.n == 0:
        raise FormatError("graph has no vertices")
    return g, fmt


_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for dicts with ``str`` keys, lists,
    tuples, ``str``, ``int``, ``bool`` and ``None``, each of exactly that
    type; any other type, a float or a non-``str`` key included, raises
    ``TypeError``.  A container is one join of per-item f-strings, and a
    scalar item is formatted by the C function its exact type maps to in
    ``_SCALAR_TEXT``, so only containers cost a Python call.
    """
    scalar = _SCALAR_TEXT.get
    text = scalar(type(value))
    if text is not None:
        return text(value)
    inner = indent + "  "
    if type(value) is dict:
        items = [
            f"{encode_basestring_ascii(k)}: {t(v) if (t := scalar(type(v))) else _json_text(v, inner)}"
            for k, v in value.items()
        ]
        opening, closing = "{", "}"
    elif type(value) is list or type(value) is tuple:
        items = [t(v) if (t := scalar(type(v))) else _json_text(v, inner) for v in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return opening + closing
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


def _print_json(payload) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2)`` and a newline.

    ``json.dumps`` skips its C encoder whenever ``indent`` is set, and its
    pure-Python encoder costs a generator step per value; ``_json_text``
    writes the same text in about half the time.  The output must stay
    byte-equal to ``json.dumps(payload, indent=2)``: the goldens pin it,
    and the tests compare the two.
    """
    sys.stdout.write(_json_text(payload) + "\n")


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


def _family_json(result: RecognitionResult) -> dict:
    """The family fragment of ``analyze`` and ``recognize``."""
    payload = {"member": result.member}
    if result.index is not None:
        payload["index"] = result.index
    payload["status"] = "decided"
    return payload


def _bounds_json(report: BoundReport) -> dict:
    """The bounds fragment of each ``analyze`` result; absent values are
    omitted keys."""
    out: dict = {}
    if report.lower is not None:
        out["lower"] = report.lower
        out["lower_rule"] = report.lower_rule
    if report.upper is not None:
        out["upper"] = report.upper
        out["upper_rule"] = report.upper_rule
    if report.exact is not None:
        out["exact"] = report.exact
    out["conditions"] = [
        {"rule": c.rule, "condition": c.description, "holds": c.holds}
        for c in report.conditions
    ]
    return out


def _cmd_analyze(args) -> int:
    g, fmt = _load_nonempty(args)
    if args.h_max > max(g.m, 1):  # one row per budget, and no budget deletes more than m edges
        raise UsageError(f"--h-max {args.h_max} exceeds the edge count m = {g.m}")
    name = args.name or (args.input if args.input != "-" else "stdin")
    facts = Facts(g)
    results = []
    for model in list(DiagModel) if args.model == "both" else [DiagModel(args.model)]:
        for h in range(0, args.h_max + 1):
            bounds = theoretical_bounds(g, h, model, facts=facts)
            entry = {"model": model.value, "h": h}
            if args.method != "brute" and bounds.exact is not None:
                entry["value"] = bounds.exact
                entry["method"] = "theorem"
            elif args.method != "bounds":  # brute, or auto with no applicable theorem
                tol = edge_tolerable_diagnosability(g, h, model)
                entry["value"] = tol.value
                entry["method"] = tol.method
                if tol.worst_scenario is not None:
                    entry["worst_scenario"] = [list(e) for e in tol.worst_scenario]
            entry["bounds"] = _bounds_json(bounds)
            results.append(entry)
    report = {
        "graph": {"name": name, "n": g.n, "m": g.m, "format_echo": fmt},
        "kappa": facts.kappa,
        "delta": facts.delta,
        "max_common_neighbors": max(facts.common, 0),
        "regular": facts.regular,
        "maximally_connected": facts.kappa == facts.delta,
        "exceptional_family": _family_json(facts.recognition),
        "results": results,
    }
    _print_json(report)
    return EXIT_OK


def _cmd_recognize(args) -> int:
    g, _ = load_graph(args.input)
    result = recognize_exceptional(g)
    payload = _family_json(result)
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
    g, _ = load_graph(args.input)
    faults = args.faults
    model = DiagModel(args.model)
    policy = ALL_ZERO if args.policy == "zero" else ALL_ONE if args.policy == "one" else seeded_random(args.seed)
    syndrome = generate_syndrome(g, faults, model, policy)
    budget = args.t if args.t is not None else len(faults)
    candidates = decode(g, syndrome, budget, model)
    ids = list(map(str, range(g.n)))  # an entry's vertex ids, then its bit, an int 0 or 1
    if model is DiagModel.PMC:
        lines = [f"{ids[w]} {ids[v]} {'01'[bit]}" for (w, v), bit in syndrome.items()]
    else:
        lines = [f"{ids[w]} {ids[u]} {ids[v]} {'01'[bit]}" for (w, u, v), bit in syndrome.items()]
    payload = {
        "model": model.value,
        "faults": faults,
        "policy": args.policy,
        "t": budget,
        "syndrome": lines,
        "candidates": [sorted(c) for c in candidates],
        "unique": len(candidates) == 1,
    }
    _print_json(payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    claims = None
    if args.claims is not None:
        claims = [c.strip() for c in args.claims.split(",") if c.strip()]
        if not claims:
            raise UsageError(f"--claims names no claim; available: {', '.join(ALL_CLAIMS)}")
        unknown = [c for c in claims if c not in ALL_CLAIMS]
        if unknown:
            raise UsageError(
                f"unknown claims: {', '.join(unknown)}; available: {', '.join(ALL_CLAIMS)}"
            )
        if len(set(claims)) < len(claims):
            raise UsageError(f"repeated claim in {args.claims!r}")
    if args.trials > args.max_scenarios:  # each trial is one edge-deletion scenario per graph
        raise UsageError(f"--trials {args.trials} exceeds --max-scenarios {args.max_scenarios}")
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


_INPUT = ("input", dict(nargs="?", default="-", help="graph file, or - for stdin"))
_JOBS = ("--jobs", dict(type=_positive, default=1, help="ignored (the sweep runs in one process)"))

# name -> (help, handler, arguments as (flag, add_argument options)), in help order
_COMMANDS = {
    "gen": ("generate standard graphs and family instances", _cmd_gen, [
        ("kind", dict(nargs="*", help="gamma and a spec file, or a standard kind and its integers")),
        ("--format", dict(choices=("graph6", "edge-list"), default="graph6", help="output format (default graph6)")),
        ("--seed", dict(type=int, default=0, help="seed for randomized kinds"))]),
    "analyze": ("full diagnosability report as JSON", _cmd_analyze, [
        _INPUT,
        ("--model", dict(choices=("pmc", "mm", "both"), default="both")),
        ("--h-max", dict(type=_nonnegative, default=1, dest="h_max", help="edge budgets 0..K (default 1)")),
        ("--method", dict(choices=("brute", "bounds", "auto"), default="auto")),
        _JOBS,
        ("--name", dict(default=None, help="graph name echoed in the report"))]),
    "recognize": ("exceptional-family membership, decided at every size", _cmd_recognize, [_INPUT]),
    "syndrome": ("inject faults, emit a syndrome, decode it back", _cmd_syndrome, [
        _INPUT,
        ("--faults", dict(type=_vertex_list, default="", help="comma-separated fault vertices")),
        ("--model", dict(choices=("pmc", "mm"), default="pmc")),
        ("--policy", dict(choices=("zero", "one", "random"), default="zero",
                          help="adversary completion for faulty-controlled outcomes")),
        ("--seed", dict(type=int, default=0, help="seed for --policy random")),
        ("--t", dict(type=_nonnegative, default=None, help="decoding budget (default |faults|)"))]),
    "verify": ("run the theorem-checking suite", _cmd_verify, [
        ("--claims", dict(default=None, help="comma-separated claim ids (default all)")),
        ("--format", dict(dest="report_format", choices=("table", "json"), default="table")),
        ("--h-max", dict(type=_nonnegative, default=3, dest="h_max")),
        ("--max-n", dict(type=_nonnegative, default=16)),
        ("--max-scenarios", dict(type=_nonnegative, default=8192)),
        ("--trials", dict(type=_nonnegative, default=8, help="edge-deletion connectivity trials per graph")),
        ("--seed", dict(type=int, default=20250810)),
        _JOBS]),
    "paths": ("connectivity and internally disjoint paths", _cmd_paths, [
        _INPUT,
        ("--pair", dict(type=int, nargs=2, metavar=("U", "V"),
                        help="report a maximum disjoint-path family between U and V"))]),
}


def _add_arguments(parser: _Parser, command: str) -> _Parser:
    _, func, arguments = _COMMANDS[command]
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> _Parser:
    """The parser with all six subparsers, for a call that names no command."""
    # the module docstring less its last paragraph, which is about parser building
    parser = _Parser(prog="diagnoscope", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _command_parser(command: str) -> _Parser:
    """The parser of one command alone.  It is built as ``build_parser``
    builds that command's subparser, with the same prog, so its help,
    usage and error text are the same."""
    return _add_arguments(_Parser(prog=f"diagnoscope {command}"), command)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--"] and argv[1:2] and argv[1] in _COMMANDS:  # argparse takes '--' for the command
        argv = argv[1:]
    try:
        if argv and argv[0] in _COMMANDS:
            args = _command_parser(argv[0]).parse_args(argv[1:])
        else:
            parser = build_parser()
            args = parser.parse_args(argv)
            if not args.command:
                parser.print_help(sys.stderr)
                return EXIT_USAGE
        with warnings.catch_warnings():
            # a repaired input (a duplicate edge) warns: show the message, not the source line
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
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
