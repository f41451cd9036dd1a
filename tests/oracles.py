"""Reference oracles the tests check the library against.

Each one states a question by its definition, with no shortcut the
library's engines take: the distinguishability predicates pair by pair,
the tolerable diagnosability by its defining quantifier over every
scenario size, and the syndrome-level link (consistency, compatibility,
every adversary completion), plus the syndrome layer's one-pass
generation and option reading and the edge-list parser's per-line loop,
frozen as references.  None of them runs in a command or the benchmark,
so they live here rather than in the package.
"""

import random
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, Optional, Tuple

from diagnoscope.diagnosis import DiagModel, diagnosability_cap, is_t_diagnosable
from diagnoscope.families import GammaSpec, RecognizedDecomposition, make_gamma
from diagnoscope.formats import FormatError
from diagnoscope.graphs import Graph, GraphError, bits_of, check_vertex_count, delete_edges, normalize_edge, relabel
from diagnoscope.syndrome import ALL_ZERO, _validate_shape, entries, generate_syndrome


# ---------------------------------------------------------------------------
# distinguishability, pair by pair


@dataclass(frozen=True)
class MmCheck:
    distinguishable: bool
    condition: Optional[int]  # 1, 2 or 3; None when indistinguishable


def _pair_masks(g: Graph, f1: Iterable[int], f2: Iterable[int]) -> Tuple[int, int]:
    m1 = g.vertex_mask(f1)
    m2 = g.vertex_mask(f2)
    if m1 == m2:
        raise GraphError("distinguishability is undefined for identical fault sets")
    return m1, m2


def distinguishable_pmc(g: Graph, f1: Iterable[int], f2: Iterable[int]) -> bool:
    """PMC distinguishability of two distinct candidate fault sets."""
    m1, m2 = _pair_masks(g, f1, f2)
    outside = g.full_mask & ~(m1 | m2)
    diff = m1 ^ m2
    for v in bits_of(diff):
        if g.adj_masks[v] & outside:
            return True
    return False


def distinguishable_mm(g: Graph, f1: Iterable[int], f2: Iterable[int]) -> MmCheck:
    """MM* distinguishability, reporting which condition fired (1, 2 or 3)."""
    m1, m2 = _pair_masks(g, f1, f2)
    adj = g.adj_masks
    outside = g.full_mask & ~(m1 | m2)
    diff = m1 ^ m2
    for u in bits_of(outside):
        if adj[u] & outside and adj[u] & diff:
            return MmCheck(True, 1)
    for only, tag in ((m1 & ~m2, 2), (m2 & ~m1, 3)):
        verts = list(bits_of(only))
        for i, x in enumerate(verts):
            for y in verts[i + 1:]:
                if adj[x] & adj[y] & outside:
                    return MmCheck(True, tag)
    return MmCheck(False, None)


# ---------------------------------------------------------------------------
# tolerable diagnosability by definition


def edge_tolerable_by_definition(g: Graph, h: int, model) -> int:
    """Largest t such that every deletion of at most h edges stays t-diagnosable.

    Direct realization of the defining quantifier, enumerating all
    scenario sizes 0..h.  Exponential; used to cross-check the
    minimum-over-scenarios computation on small graphs.
    """
    if h < 0:
        raise GraphError(f"edge budget must be nonnegative, got {h}")
    cap = diagnosability_cap(g)
    value = 0
    for t in range(1, cap + 1):
        ok = True
        for size in range(0, min(h, g.m) + 1):
            for scenario in combinations(g.edges, size):
                if not is_t_diagnosable(delete_edges(g, scenario), t, model).diagnosable:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
        value = t
    return value


# ---------------------------------------------------------------------------
# the edge-list parser


def reference_parse_edge_list(text: str) -> Graph:
    """``formats.parse_edge_list`` as a loop that strips each line, then
    splits it, and normalizes each edge by ``normalize_edge``, frozen as
    the reference: the same graph, errors and warnings."""
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
        key = normalize_edge(u, v)
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


# ---------------------------------------------------------------------------
# the syndrome-level link


def every_syndrome(g: Graph, faults: Iterable[int], model):
    """Every syndrome the fault set can produce: one per adversary
    completion of the entries its members control (2^k of them)."""
    faults = set(faults)
    base = generate_syndrome(g, faults, model, ALL_ZERO)
    controlled = [entry for entry in sorted(base) if entry[0] in faults]
    for pattern in range(1 << len(controlled)):
        outcomes = dict(base)
        for i, entry in enumerate(controlled):
            outcomes[entry] = (pattern >> i) & 1
        yield outcomes


def reference_generate(g: Graph, faults: Iterable[int], model, policy):
    """``generate_syndrome`` as one pass over every entry, frozen as the
    reference: a faulty w's entries take the policy's bits in entry order,
    every other entry the fault-free bit."""
    fault_mask = g.vertex_mask(faults)
    rng = random.Random(policy.seed) if policy.kind == "seeded_random" else None
    fixed = int(policy.kind == "all_one")
    outcomes = {}
    for e in entries(g, model):
        if fault_mask >> e[0] & 1:
            outcomes[e] = rng.getrandbits(1) if rng else fixed
        else:  # e[1] is e[-1] under PMC
            outcomes[e] = (fault_mask >> e[1] | fault_mask >> e[-1]) & 1
    return outcomes


def reference_options(g: Graph, syndrome, t: int, mm: bool):
    """``syndrome._options`` as one pass over every entry, frozen as the
    reference: a PMC tester's ones give X; an MM* comparator's zeros are
    counted with the neighbors they touch (see ``_options``)."""
    adj = g.adj_masks
    if not mm:
        ones = [0] * g.n
        for (u, v), bit in syndrome.items():
            ones[u] |= bit << v
        return [[x] if x.bit_count() <= t else [] for x in ones]
    count = [0] * g.n
    touched = [0] * g.n
    for (w, u, v), bit in syndrome.items():
        if not bit:
            count[w] += 1
            touched[w] |= 1 << u | 1 << v
    opts = []
    for nbrs, c, r in zip(adj, count, touched):
        if c:
            k = r.bit_count()
            cands = [nbrs ^ r] if 2 * c == k * (k - 1) else []
        else:
            cands = [nbrs] + [nbrs ^ 1 << y for y in bits_of(nbrs)]
        opts.append([x for x in cands if x.bit_count() <= t])
    return opts


def fault_free_report(entry, model, faults) -> int:
    """The bit a fault-free tester or comparator reports for the entry.

    PMC: the tester reports the status of the vertex it tests (1 =
    faulty).  MM*: the comparator reports 1 exactly when at least one of
    the two vertices it compares is faulty.
    """
    if model is DiagModel.PMC:
        _tester, tested = entry
        return int(tested in faults)
    _comparator, u, v = entry
    return int(u in faults or v in faults)


def consistent_with(g: Graph, syndrome, faults: Iterable[int], model) -> bool:
    """Could this fault set have produced the syndrome under some adversary?

    Exactly the entries whose tester or comparator is outside the fault
    set are forced; controlled entries can always be matched.
    """
    _validate_shape(g, syndrome, model)
    faults = set(faults)
    for entry, bit in syndrome.items():
        if entry[0] not in faults and bit != fault_free_report(entry, model, faults):
            return False
    return True


def syndromes_compatible(g: Graph, f1: Iterable[int], f2: Iterable[int], model) -> bool:
    """True when some single syndrome is consistent with both fault sets.

    Entries whose tester or comparator lies outside both sets are forced
    by each set; the sets share a syndrome exactly when all those forced
    bits agree.  This is the operational counterpart of the
    distinguishability predicates and is kept deliberately independent of
    them.
    """
    f1, f2 = set(f1), set(f2)
    both = f1 | f2
    return all(
        fault_free_report(entry, model, f1) == fault_free_report(entry, model, f2)
        for entry in entries(g, model)
        if entry[0] not in both
    )


def confusing_syndrome(g: Graph, f1: Iterable[int], f2: Iterable[int], model):
    """A syndrome consistent with both fault sets of an indistinguishable pair.

    Entries outside f1 follow f1's semantics, remaining entries outside f2
    follow f2's, and entries controlled by both are zero.  When the pair
    is indistinguishable the doubly-forced entries agree, so the result is
    consistent with both sets (decode confirms).
    """
    f1, f2 = set(f1), set(f2)
    outcomes = {}
    for entry in entries(g, model):
        head = entry[0]
        if head not in f1:
            outcomes[entry] = fault_free_report(entry, model, f1)
        elif head not in f2:
            outcomes[entry] = fault_free_report(entry, model, f2)
        else:
            outcomes[entry] = 0
    return outcomes


def unique_decoding_everywhere(g, t, model):
    """Whether every syndrome from every fault set of size at most t decodes
    to a single candidate, under every adversary completion.

    Equivalent to: no two distinct candidate sets within the budget share
    a syndrome.  Checked pairwise via syndromes_compatible, with no budget:
    the oracle ``is_t_diagnosable`` is compared against.
    """
    sets = [
        frozenset(combo)
        for size in range(0, min(t, g.n) + 1)
        for combo in combinations(range(g.n), size)
    ]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if syndromes_compatible(g, sets[i], sets[j], model):
                return False
    return True


# ---------------------------------------------------------------------------
# graph and family helpers


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Tuple[Graph, Dict[int, int]]:
    """Induced subgraph on ``keep``; also returns the old-to-new id map.

    Kept vertices are renumbered in ascending order of their old ids.
    """
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range for graph on {g.n} vertices")
    remap = {old: new for new, old in enumerate(kept)}
    edges = [
        (remap[u], remap[v])
        for u, v in g.edges
        if u in remap and v in remap
    ]
    return Graph(len(kept), edges), remap


def delete_vertices(g: Graph, drop: Iterable[int]) -> Graph:
    """Vertex deletion realized as the induced subgraph on the complement set."""
    drop_set = set(drop)
    sub, _ = induced_subgraph(g, (v for v in range(g.n) if v not in drop_set))
    return sub


def rebuild_from_witness(witness: RecognizedDecomposition) -> Graph:
    """Reassemble the graph a recognition witness describes, in the
    original vertex labeling."""
    template = make_gamma(witness.spec)
    perm = list(witness.vertex_map)
    return relabel(template, perm)


def _plain(value):
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def gamma_spec_to_json(spec: GammaSpec) -> dict:
    """One key per field: the integers and ``core_edges`` always, other
    fields when nonempty, and ``bridge`` last, for family 4 only."""
    out = {}
    for name, value in zip(GammaSpec._fields, spec):
        if name != "bridge" and (value or name not in GammaSpec._field_defaults or name == "core_edges"):
            out[name] = _plain(value)
    if spec.family == 4:
        out["bridge"] = list(spec.bridge)
    return out
