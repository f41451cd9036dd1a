"""Graph file formats and JSON serialization helpers.

Two graph formats are supported: a line-oriented edge list (header
``n m`` then one ``u v`` line per edge, ``#`` comments allowed) and the
community-standard graph6 one-liner (size header, then the upper
triangle packed into 6-bit printable bytes offset by 63).
"""

from __future__ import annotations

import json
import warnings
from typing import Optional

from .families import GammaSpec
from .graphs import Graph, GraphError, build_graph
from .tolerance import BoundReport


class FormatError(ValueError):
    """Malformed input file; carries a 1-based line or byte position."""

    def __init__(self, message: str, *, line: Optional[int] = None, offset: Optional[int] = None):
        place = ""
        if line is not None:
            place = f" (line {line})"
        elif offset is not None:
            place = f" (byte {offset})"
        super().__init__(message + place)
        self.line = line
        self.offset = offset


# ---------------------------------------------------------------------------
# edge list


def parse_edge_list(text: str, *, strict: bool = False, cap: int | None = None) -> Graph:
    """Parse the ``n m`` edge-list format.

    Duplicate edges warn and deduplicate by default; ``strict`` turns them
    into errors.  Self-loops and out-of-range ids are always errors, with
    the offending line number.
    """
    header = None
    edges = set()
    listed = 0
    declared = 0
    n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise FormatError("header must be 'n m'", line=lineno)
            try:
                n, declared = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError("header must contain two integers", line=lineno)
            if n < 0 or declared < 0:
                raise FormatError("header counts must be nonnegative", line=lineno)
            header = lineno
            continue
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"edge endpoints must be integers, got {line!r}", line=lineno)
        if u == v:
            raise FormatError(f"self-loop at vertex {u}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u}, {v}) out of range 0..{n - 1}", line=lineno)
        listed += 1
        key = (min(u, v), max(u, v))
        if key in edges:
            if strict:
                raise FormatError(f"duplicate edge ({u}, {v})", line=lineno)
            warnings.warn(f"duplicate edge ({u}, {v}) on line {lineno}; deduplicated")
            continue
        edges.add(key)
    if header is None:
        raise FormatError("empty input: expected an 'n m' header", line=1)
    if listed != declared:
        raise FormatError(
            f"header declared {declared} edges but {listed} were listed", line=header
        )
    return build_graph(n, edges, cap=cap)


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6

_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str, *, cap: int | None = None) -> Graph:
    """Decode one graph6 line (optional ``>>graph6<<`` header allowed)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise FormatError("empty graph6 string", offset=0)
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise FormatError("graph6 data must be ASCII", offset=0)
    pos = 0
    first = data[0]
    if first == 126:
        if len(data) >= 2 and data[1] == 126:
            raise FormatError("graphs beyond 258047 vertices are not supported", offset=1)
        if len(data) < 4:
            raise FormatError("truncated size header", offset=len(data))
        vals = []
        for i in (1, 2, 3):
            b = data[i]
            if not 63 <= b <= 126:
                raise FormatError(f"byte {b} outside graph6 range", offset=i)
            vals.append(b - 63)
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        pos = 4
    else:
        if not 63 <= first <= 125:
            raise FormatError(f"byte {first} outside graph6 range", offset=0)
        n = first - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise FormatError("truncated adjacency bits", offset=len(data))
    if len(data) - pos > nbytes:
        raise FormatError("trailing bytes after adjacency bits", offset=pos + nbytes)
    bits = []
    for i in range(nbytes):
        b = data[pos + i]
        if not 63 <= b <= 126:
            raise FormatError(f"byte {b} outside graph6 range", offset=pos + i)
        val = b - 63
        for shift in range(5, -1, -1):
            bits.append((val >> shift) & 1)
    for extra in bits[nbits:]:
        if extra:
            raise FormatError("nonzero padding bits", offset=pos + nbytes - 1)
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return build_graph(n, edges, cap=cap)


def parse_graph6_lines(text: str, *, cap: int | None = None):
    """Parse a multi-graph file: one graph6 string per line."""
    return [
        parse_graph6(line, cap=cap)
        for line in text.splitlines()
        if line.strip()
    ]


def emit_graph6(g: Graph) -> str:
    """Encode as a graph6 line (no trailing newline)."""
    n = g.n
    if n <= 62:
        header = chr(63 + n)
    elif n <= 258047:
        header = "~" + "".join(
            chr(63 + ((n >> shift) & 63)) for shift in (12, 6, 0)
        )
    else:
        raise GraphError("graph6 encoding supports at most 258047 vertices here")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in g.edge_set else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        chars.append(chr(63 + val))
    return header + "".join(chars)


# ---------------------------------------------------------------------------
# GammaSpec JSON


def gamma_spec_to_json(spec: GammaSpec) -> dict:
    out = {
        "family": spec.family,
        "delta": spec.delta,
        "l": spec.l,
        "core_edges": [list(e) for e in spec.core_edges],
    }
    optional = {
        "left_pair_edges": spec.left_pair_edges,
        "right_pair_edges": spec.right_pair_edges,
        "core_pair_edges": spec.core_pair_edges,
        "core_left_edges": spec.core_left_edges,
        "core_right_edges": spec.core_right_edges,
        "left_right_edges": spec.left_right_edges,
        "assign": spec.assign,
        "assign_left": spec.assign_left,
        "assign_right": spec.assign_right,
        "removed": spec.removed,
        "attach": spec.attach,
    }
    for key, value in optional.items():
        if value:
            out[key] = [list(e) if isinstance(e, tuple) else e for e in value]
    if spec.family == 4:
        out["bridge"] = list(spec.bridge)
    return out


def gamma_spec_from_json(payload: dict) -> GammaSpec:
    def pairs(key):
        return tuple(tuple(e) for e in payload.get(key, []))

    try:
        return GammaSpec(
            family=int(payload["family"]),
            delta=int(payload["delta"]),
            l=int(payload["l"]),
            core_edges=pairs("core_edges"),
            left_pair_edges=pairs("left_pair_edges"),
            right_pair_edges=pairs("right_pair_edges"),
            core_pair_edges=pairs("core_pair_edges"),
            core_left_edges=pairs("core_left_edges"),
            core_right_edges=pairs("core_right_edges"),
            left_right_edges=pairs("left_right_edges"),
            assign=tuple(payload.get("assign", [])),
            assign_left=tuple(payload.get("assign_left", [])),
            assign_right=tuple(payload.get("assign_right", [])),
            bridge=tuple(payload.get("bridge", (0, 1))),
            removed=pairs("removed"),
            attach=tuple(tuple(a) for a in payload.get("attach", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad family spec: {exc}")


def parse_gamma_spec(text: str) -> GammaSpec:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"family spec must be JSON: {exc}")
    if not isinstance(payload, dict):
        raise FormatError("family spec must be a JSON object")
    return gamma_spec_from_json(payload)


# ---------------------------------------------------------------------------
# report fragments (JSON numbers only; absent values are omitted keys)


def bounds_to_json(report: BoundReport) -> dict:
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

