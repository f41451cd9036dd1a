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

from .families import _FAMILY_FIELDS, GammaSpec
from .graphs import Graph, GraphError, check_vertex_count


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


def parse_edge_list(text: str) -> Graph:
    """Parse the ``n m`` edge-list format.

    Duplicate edges warn and deduplicate.  Self-loops and out-of-range ids
    are errors, with the offending line number.
    """
    header = None
    edges = set()
    listed = 0
    declared = 0
    n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()  # strip() and split() agree on whitespace
        if not parts or parts[0][0] == "#":
            continue
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
            raise FormatError(f"expected 'u v', got {raw.strip()!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"edge endpoints must be integers, got {raw.strip()!r}", line=lineno)
        if u == v:
            raise FormatError(f"self-loop at vertex {u}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u}, {v}) out of range 0..{n - 1}", line=lineno)
        listed += 1
        key = (u, v) if u < v else (v, u)
        if key in edges:
            warnings.warn(f"duplicate edge ({u}, {v}) on line {lineno}; deduplicated")
            continue
        edges.add(key)
    if header is None:
        raise FormatError("empty input: expected an 'n m' header", line=1)
    if listed != declared:
        raise FormatError(
            f"header declared {declared} edges but {listed} were listed", line=header
        )
    check_vertex_count(n)
    return Graph(n, edges)


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6

_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
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
    check_vertex_count(n)  # before decoding n(n-1)/2 bits
    bits = []
    for i in range(nbytes):
        b = data[pos + i]
        if not 63 <= b <= 126:
            raise FormatError(f"byte {b} outside graph6 range", offset=pos + i)
        val = b - 63
        for shift in range(5, -1, -1):
            bits.append((val >> shift) & 1)
    if any(bits[nbits:]):
        raise FormatError("nonzero padding bits", offset=pos + nbytes - 1)
    pairs = ((i, j) for j in range(1, n) for i in range(j))  # the upper triangle, column by column
    return Graph(n, [e for e, bit in zip(pairs, bits) if bit])


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
    for j, mask in enumerate(g.adj_masks):
        for i in range(j):
            bits.append(mask >> i & 1)
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


# The JSON shape of each GammaSpec annotation: list nesting depth, and the
# length of the innermost lists (None for any length).
_SHAPES = {
    "int": (0, None),
    "Tuple[int, ...]": (1, None),
    "Tuple[int, int]": (1, 2),
    "Tuple[Edge, ...]": (2, 2),
    "Tuple[Tuple[int, int], ...]": (2, 2),
    "Tuple[Tuple[int, ...], ...]": (2, None),
}


def _read_field(name: str, value, depth: int, width: Optional[int]):
    """A JSON value as nested int tuples ``depth`` lists deep."""
    if depth == 0 and type(value) is int:
        return value
    if depth and isinstance(value, list) and (depth > 1 or width in (None, len(value))):
        return tuple(_read_field(name, v, depth - 1, width) for v in value)
    expect = "an integer" if depth == 0 else f"a list of {width} integers" if depth == 1 and width else "a list"
    raise FormatError(f"bad family spec: {name} needs {expect}, got {json.dumps(value)}")


def gamma_spec_from_json(payload: dict) -> GammaSpec:
    values = {}
    unknown = sorted(set(payload) - set(GammaSpec._fields))
    if unknown:
        raise FormatError(f"bad family spec: unknown key {unknown[0]!r}")
    for name, kind in GammaSpec.__annotations__.items():  # a string annotation reads as a ForwardRef
        if name in payload:
            values[name] = _read_field(name, payload[name], *_SHAPES[getattr(kind, "__forward_arg__", kind)])
        elif name not in GammaSpec._field_defaults:
            raise FormatError(f"bad family spec: missing {name!r}")
    # a key, not a value: GammaSpec cannot tell a default field from an omitted one
    used = _FAMILY_FIELDS.get(values["family"])  # a bad index is make_gamma's error
    for name in GammaSpec._fields[4:]:
        if used is not None and name in values and name not in used:
            raise FormatError(f"bad family spec: family {values['family']} does not use {name}")
    return GammaSpec(**values)


def parse_gamma_spec(text: str) -> GammaSpec:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"family spec must be JSON: {exc}")
    if not isinstance(payload, dict):
        raise FormatError("family spec must be a JSON object")
    return gamma_spec_from_json(payload)
