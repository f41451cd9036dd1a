"""Exceptional-family constructors, the structural recognizer, and the
standard network generators used by the verification corpus.

The exceptional family collects, for a minimum degree ``delta >= 3``,
five graph shapes built from a small "core" side and a large independent
block, wired so that an adversarial pair of fault-set candidates becomes
indistinguishable under the comparison model.  Family index by shape:

1. a core on delta vertices fully joined to an independent block,
2. a core on delta-1 vertices fully joined to the block, plus an
   adjacent pair; each block vertex attaches to exactly one pair vertex,
3. a core on delta-2 vertices fully joined to the block, plus two
   two-vertex side blocks; each block vertex attaches to exactly one
   vertex of each side block,
4. shape 1 with one edge added inside the independent block and at most
   one core edge removed at each endpoint of that edge,
5. a core on delta+1 vertices; each block vertex attaches to all or all
   but one of the core.

Core blocks are arbitrary spanning subgraphs of the complete graph of
their size, so a ``GammaSpec`` carries explicit edge lists.  Membership
is always judged against the minimum degree of the graph itself.

The block layout is stated once, in the table ``_LAYOUT``: each family's
blocks before the independent block, in build order, ids ascending
within a block.  The role tables ``_INNER``, ``_CROSS`` and ``_SLOT`` say
which blocks each ``GammaSpec`` field joins, and ``make_gamma``'s edge
assembly, the seeded draw and the recognizer's read-back all loop over
them.  The shapes are stated once, in ``make_gamma``.

``recognize_exceptional`` decides membership for every graph under the
vertex cap: cheap necessary filters first, then, family by family in
index order, proposers yield vertex layouts in the construction layout,
and ``_fit`` reads a spec off each and accepts it exactly when
``make_gamma``'s edge assembly rebuilds the graph; the proposers apply
only necessary filters.  The side-pair scan for families 1-3 prunes each
pair with one mask intersection, so it costs at most O(n^4) mask
operations.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain, combinations
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .connectivity import _kappa_value, max_common_neighbors
from .graphs import (
    CapExceededError,
    Edge,
    Graph,
    GraphError,
    bits_of,
    build_graph,
    check_vertex_count,
    normalize_edge,
    relabel,
    vertex_cap,
)

FAMILY_MIN_DELTA = 3
SAMPLE_ATTEMPTS = 200  # draws before a seeded random generator gives up


def common_neighbor_shortcut(delta: int, common: int) -> bool:
    """True when C(G) = ``common`` alone proves G outside the family.

    Members are all irregular with max common neighbors at least
    delta - 1 (at least delta when delta >= 4), so a graph below that
    floor is surely not a member.
    """
    return (delta >= 3 and common <= delta - 2) or (delta >= 4 and common <= delta - 1)


class GammaSpec(NamedTuple):
    """Parameters fully determining one exceptional-family instance.

    Edge and slot fields hold block-local ids; the role tables ``_INNER``,
    ``_CROSS`` and ``_SLOT`` say which blocks each one joins.  Only the
    fields the family reads may differ from their defaults.
    """

    family: int
    delta: int
    l: int
    core_edges: Tuple[Edge, ...] = ()
    left_pair_edges: Tuple[Edge, ...] = ()
    right_pair_edges: Tuple[Edge, ...] = ()
    core_pair_edges: Tuple[Edge, ...] = ()
    core_left_edges: Tuple[Edge, ...] = ()
    core_right_edges: Tuple[Edge, ...] = ()
    left_right_edges: Tuple[Edge, ...] = ()
    assign: Tuple[int, ...] = ()
    assign_left: Tuple[int, ...] = ()
    assign_right: Tuple[int, ...] = ()
    bridge: Tuple[int, int] = (0, 1)         # family 4: block-local edge endpoints
    removed: Tuple[Tuple[int, int], ...] = ()  # family 4: (core id, bridge slot)
    attach: Tuple[Tuple[int, ...], ...] = () # family 5: core ids per block vertex


class RecognizedDecomposition(NamedTuple):
    """Block structure proving membership: a spec plus the vertex relabeling.

    ``vertex_map[i]`` is the input-graph vertex playing layout id ``i`` of
    ``make_gamma(spec)``.
    """

    spec: GammaSpec
    vertex_map: Tuple[int, ...]


class RecognitionResult(NamedTuple):
    member: bool
    index: Optional[int]
    witness: Optional[RecognizedDecomposition]


# Per family: the core size minus delta, the blocks before the independent
# block in build order (pair, left and right have two vertices), and the
# GammaSpec fields the family reads that no block role covers.
_LAYOUT = {
    1: (0, ("core",), ()),
    2: (-1, ("core", "pair"), ()),
    3: (-2, ("left", "core", "right"), ()),
    4: (0, ("core",), ("bridge", "removed")),
    5: (1, ("core",), ("attach",)),
}

# The block roles of the GammaSpec fields, in field order, which is also
# the order a seeded draw takes them: the edges inside a block, the edges
# between two blocks, and the slot in a two-vertex block that each
# independent vertex takes.
_INNER = {"core_edges": ("core",), "left_pair_edges": ("left",), "right_pair_edges": ("right",)}
_CROSS = {
    "core_pair_edges": ("core", "pair"),
    "core_left_edges": ("core", "left"),
    "core_right_edges": ("core", "right"),
    "left_right_edges": ("left", "right"),
}
_SLOT = {"assign": ("pair",), "assign_left": ("left",), "assign_right": ("right",)}


def _layout(family: int, delta: int, l: int) -> Dict[str, range]:
    """Each block's ids in ``make_gamma``'s vertex order; the independent
    block, ``"block"``, comes last."""
    shift, names, _ = _LAYOUT[family]
    spans, start = {}, 0
    for name in (*names, "block"):
        size = delta + shift if name == "core" else l if name == "block" else 2
        spans[name] = range(start, start + size)
        start += size
    return spans


def _roles(role: Dict[str, Tuple[str, ...]], spans) -> Iterator[Tuple[str, List[range]]]:
    """Each field of a role table whose blocks are all in ``spans``, with
    those blocks' entries."""
    for name, blocks in role.items():
        if all(b in spans for b in blocks):
            yield name, [spans[b] for b in blocks]


# The GammaSpec fields each family reads beyond family, delta, l and
# core_edges, in field order: the role fields of its blocks, then its own.
_FAMILY_FIELDS = {
    family: tuple(
        name for role in (_INNER, _CROSS, _SLOT) for name, _ in _roles(role, dict.fromkeys(blocks))
        if name != "core_edges"
    ) + own
    for family, (_, blocks, own) in _LAYOUT.items()
}


def make_gamma(spec: GammaSpec) -> Graph:
    """Assemble the graph a spec describes, validating its invariants.

    The vertex cap is checked once the spec's shape is valid, before any
    edge is built.
    """
    n = _check_shape(spec)
    check_vertex_count(n)
    return build_graph(n, _gamma_edges(spec))


def _check_shape(spec: GammaSpec) -> int:
    """Validate the family index, delta, l and the fields the family
    reads; return the vertex count."""
    fam, delta, l = spec.family, spec.delta, spec.l
    if fam not in _LAYOUT:
        raise GraphError(f"family index must be 1..5, got {fam}")
    if delta < FAMILY_MIN_DELTA:
        raise GraphError(f"family graphs require delta >= {FAMILY_MIN_DELTA}, got {delta}")
    min_l = minimal_block_size(fam, delta)
    if l < min_l:
        raise GraphError(
            f"family {fam} requires independent block size l >= {min_l}, got {l}"
        )
    for name, value in zip(GammaSpec._fields[4:], spec[4:]):
        if name not in _FAMILY_FIELDS[fam] and value != GammaSpec._field_defaults[name]:
            raise GraphError(f"family {fam} does not use {name}")
    return gamma_vertex_count(fam, delta, l)


def _gamma_edges(spec: GammaSpec) -> List[Edge]:
    """The edges of ``make_gamma(spec)``, unnormalized; no vertex cap."""
    _check_shape(spec)
    fam, delta, l = spec.family, spec.delta, spec.l
    spans = _layout(fam, delta, l)
    core, block = spans["core"], spans["block"]
    edges: List[Edge] = []
    for name, (a,) in _roles(_INNER, spans):
        pairs = getattr(spec, name)
        for u, v in pairs:
            if u == v or not (0 <= u < len(a) and 0 <= v < len(a)):
                raise GraphError(f"{name}: edge ({u}, {v}) is a self-loop or out of range 0..{len(a) - 1}")
        if len({normalize_edge(u, v) for u, v in pairs}) != len(pairs):
            raise GraphError(f"{name} lists an edge twice")
        edges += [(a.start + u, a.start + v) for u, v in pairs]
    for name, (a, b) in _roles(_CROSS, spans):
        pairs = getattr(spec, name)
        for x, y in pairs:
            if not (0 <= x < len(a) and 0 <= y < len(b)):
                raise GraphError(f"{name}: cross edge ({x}, {y}) out of range")
        if len(set(pairs)) != len(pairs):
            raise GraphError(f"{name} lists an edge twice")
        edges += [(a.start + x, b.start + y) for x, y in pairs]
    for name, (a,) in _roles(_SLOT, spans):
        slots = getattr(spec, name)
        if len(slots) != l:
            raise GraphError(f"{name} must cover all {l} independent vertices, got {len(slots)}")
        for i, slot in enumerate(slots):
            if slot not in (0, 1):
                raise GraphError(f"{name}: slot {slot} invalid for independent vertex {i}")
            edges.append((block.start + i, a.start + slot))
    if "pair" in spans:
        edges.append((spans["pair"].start, spans["pair"].start + 1))
    skip = set()
    if fam == 4:
        u1, u2 = spec.bridge
        if not (0 <= u1 < l and 0 <= u2 < l and u1 != u2):
            raise GraphError(f"bridge endpoints {spec.bridge} must be two distinct block vertices")
        removed = set(spec.removed)
        if len(removed) != len(spec.removed):
            raise GraphError("removed lists a core edge twice")
        if not all(c in core and slot in (0, 1) for c, slot in removed):
            raise GraphError(f"removed edges {spec.removed} out of range")
        if len({slot for _, slot in removed}) != len(removed):
            raise GraphError("at most one core edge may be removed at each bridge endpoint")
        bridge = (block.start + u1, block.start + u2)
        edges.append(bridge)
        skip = {(c, bridge[slot]) for c, slot in removed}
    if fam == 5:
        if len(spec.attach) != l:
            raise GraphError(
                f"attachment lists must cover all {l} independent vertices, got {len(spec.attach)}"
            )
        for i, targets in enumerate(spec.attach):
            uniq = sorted(set(targets))
            if len(uniq) != len(targets):
                raise GraphError(f"attachment list for vertex {i} has duplicates")
            if not all(c in core for c in uniq):
                raise GraphError(f"attachment list for vertex {i} out of range")
            if not delta <= len(uniq) <= delta + 1:
                raise GraphError(
                    f"independent vertex {i} must attach to {delta} or {delta + 1} "
                    f"core vertices, got {len(uniq)}"
                )
            edges += [(c, block.start + i) for c in uniq]
        return edges
    edges += [(c, i) for c in core for i in block if (c, i) not in skip]
    return edges


def gamma_vertex_count(family: int, delta: int, l: int) -> int:
    return _layout(family, delta, l)["block"].stop


def minimal_block_size(family: int, delta: int) -> int:
    return delta + 2 if family == 5 else delta + 1


# ---------------------------------------------------------------------------
# randomized instances

_CROSS_DENSITY = {2: 0.5, 3: 0.3}  # chance of each possible cross edge in a draw


def _draw_spec(rng: random.Random, family: int, delta: int, l: int) -> GammaSpec:
    """A spec with every field the family reads drawn from rng, in role
    order, then the fields no role covers."""
    spans = _layout(family, delta, l)
    drawn = {
        name: tuple(e for e in combinations(range(len(a)), 2) if rng.random() < 0.5)
        for name, (a,) in _roles(_INNER, spans)
    }
    for name, (a, b) in _roles(_CROSS, spans):
        drawn[name] = tuple(
            (x, y) for x in range(len(a)) for y in range(len(b))
            if rng.random() < _CROSS_DENSITY[family]
        )
    for name, _ in _roles(_SLOT, spans):
        drawn[name] = tuple(rng.randrange(2) for _ in range(l))
    core = len(spans["core"])
    if family == 4:
        drawn["bridge"] = tuple(sorted(rng.sample(range(l), 2)))
        drawn["removed"] = tuple(
            (rng.randrange(core), slot) for slot in (0, 1) if rng.random() < 0.5
        )
    elif family == 5:
        drawn["attach"] = tuple(
            tuple(sorted(rng.sample(range(core), delta if rng.random() < 0.5 else delta + 1)))
            for _ in range(l)
        )
    return GammaSpec(family, delta, l, **drawn)


def random_gamma(
    family: int, delta: int = 3, l: int | None = None, *, seed: int
) -> Tuple[GammaSpec, Graph]:
    """Seeded random family instance whose recognition round-trips.

    Draws are retried until the instance has minimum degree exactly
    ``delta`` and the recognizer classifies it under the same family
    index (degenerate cross choices can starve a side vertex or collapse
    one shape into another).  At the minimal block size the shapes are
    disjoint and the retry always succeeds; well above it some shapes
    genuinely coincide (a family-4 instance with l >= delta + 3 is also
    a valid family-3 decomposition, for example) and the recognizer's
    smaller canonical index then makes the round-trip unsatisfiable,
    which this function reports as an error.
    """
    if l is None:
        l = minimal_block_size(family, delta)
    check_vertex_count(_check_shape(GammaSpec(family, delta, l)))  # before drawing spec lists
    rng = random.Random(f"gamma-{family}-{delta}-{l}-{seed}")
    for _ in range(SAMPLE_ATTEMPTS):
        spec = _draw_spec(rng, family, delta, l)
        g = make_gamma(spec)
        if g.min_degree != delta:
            continue
        result = recognize_exceptional(g)
        if result.member and result.index == family:
            return spec, g
    raise GraphError(
        f"could not draw a valid family-{family} instance in {SAMPLE_ATTEMPTS} attempts"
    )


# ---------------------------------------------------------------------------
# recognition


def _side_layouts(g: Graph, delta: int, k: int):
    """Layouts for families 1-3: k side pairs (adjacent when k = 1), a
    core of delta - k vertices and a block of l = n - delta - k.

    Every block vertex has degree delta, exactly one neighbour in each
    pair and the core as the rest of its neighbourhood.  So a pair is
    skipped when fewer than l degree-delta vertices outside it (and
    outside the pairs already chosen) have exactly one neighbour in it,
    and a core when fewer than l of those share it.  Each test is
    necessary, so side choices in lexicographic order and cores in
    ascending mask order keep the first fit.  (Family 1's decomposition is
    unique: its block vertices all have the core as their whole
    neighbourhood.)  The pair tests are one mask intersection each, at most
    O(n^4) in all; only surviving side choices pay an O(n) grouping pass.
    """
    n, adj = g.n, g.adj_masks
    l = n - delta - k
    blocks = _LAYOUT[k + 1][1]  # family k + 1's layout
    pairs = () if k == 0 else g.edges if k == 1 else list(combinations(range(n), 2))
    masks = [(1 << a) | (1 << b) for a, b in pairs]
    # the vertices outside each pair with exactly one neighbour in it
    once = [(adj[a] ^ adj[b]) & ~mask for (a, b), mask in zip(pairs, masks)]

    def sides(start, taken, cands, chosen):
        if len(chosen) == k:
            yield taken, cands, chosen
            return
        fits = [j for j in range(start, len(pairs)) if (cands & once[j]).bit_count() >= l]
        for j in fits:
            if not masks[j] & taken:
                yield from sides(j + 1, taken | masks[j], cands & once[j], chosen + [pairs[j]])

    low = sum(1 << u for u in range(n) if adj[u].bit_count() == delta)
    bits = [1 << u for u in range(n)]
    for taken, cands, chosen in sides(0, 0, low, []):
        groups = Counter([a & ~taken for a, bit in zip(adj, bits) if cands & bit])
        for core in sorted(key for key, size in groups.items() if size >= l):
            if core.bit_count() != delta - k:
                continue
            block = [u for u in range(n) if not (taken | core) >> u & 1]
            parts = dict(zip((b for b in blocks if b != "core"), chosen), core=bits_of(core))
            yield [v for b in blocks for v in parts[b]] + block


def _bridge_layouts(g: Graph, delta: int):
    """Layouts for family 4: each edge u1u2 in order as the bridge, then
    the first-seen cores N(w) of degree-delta vertices w off the edge,
    kept when every block vertex off the edge has neighbourhood N(w)."""
    n, adj = g.n, g.adj_masks
    for u1, u2 in g.edges:
        bridge = (1 << u1) | (1 << u2)
        seen = set()
        for w in range(n):
            core = adj[w]
            if bridge >> w & 1 or core.bit_count() != delta or core & bridge or core in seen:
                continue
            seen.add(core)
            block = [u for u in range(n) if not core >> u & 1]
            if all(adj[u] == core for u in block if not bridge >> u & 1):
                yield [*bits_of(core), *block]


def _wide_core_layouts(g: Graph, delta: int):
    """Layouts for family 5: candidate cores of delta + 1 vertices (a
    degree-(delta+1) neighbourhood, or a degree-delta neighbourhood plus
    one vertex) in ascending mask order, kept when no block vertex has a
    neighbour outside the core."""
    n, adj = g.n, g.adj_masks
    cands = set()
    for v in range(n):
        if adj[v].bit_count() == delta + 1:
            cands.add(adj[v])
        elif adj[v].bit_count() == delta:
            cands.update(adj[v] | 1 << w for w in range(n) if w != v and not adj[v] >> w & 1)
    for core in sorted(cands):
        if core.bit_count() != delta + 1:
            continue
        block = [u for u in range(n) if not core >> u & 1]
        if all(not adj[u] & ~core for u in block):
            yield [*bits_of(core), *block]


def _fit(g: Graph, family: int, delta: int, layout: Sequence[int]) -> Optional[RecognizedDecomposition]:
    """The decomposition placing ``layout[i]`` at layout id i, if it fits.

    Relabels g into layout order, reads every ``GammaSpec`` field off the
    edges between the layout's blocks, and accepts exactly when
    ``make_gamma``'s edge assembly takes that spec and rebuilds g.  So
    ``make_gamma`` is the only place a family shape is stated, and the
    vertex cap plays no part.
    """
    inverse = [0] * g.n
    for i, v in enumerate(layout):
        inverse[v] = i
    h = relabel(g, inverse)
    adj = h.adj_masks
    spans = _layout(family, delta, g.n - gamma_vertex_count(family, delta, 0))
    core, block = spans["core"], spans["block"]

    def inner(a):
        return tuple((u - a.start, v - a.start) for u, v in h.edges if u in a and v in a)

    read = {name: inner(a) for name, (a,) in _roles(_INNER, spans)}
    for name, (a, b) in _roles(_CROSS, spans):
        read[name] = tuple((x - a.start, y - b.start) for x in a for y in b if adj[x] >> y & 1)
    for name, (a,) in _roles(_SLOT, spans):
        read[name] = tuple(0 if adj[u] >> a.start & 1 else 1 for u in block)
    if family == 4:
        bridges = inner(block)
        if len(bridges) != 1:
            return None
        read["bridge"] = bridges[0]
        read["removed"] = tuple(
            (c, slot) for c in core for slot, u in enumerate(bridges[0])
            if not adj[block.start + u] >> c & 1
        )
    elif family == 5:
        read["attach"] = tuple(tuple(c for c in core if adj[u] >> c & 1) for u in block)
    spec = GammaSpec(family, delta, len(block), **read)
    try:
        edges = {normalize_edge(u, v) for u, v in _gamma_edges(spec)}
    except GraphError:
        return None
    if edges != set(h.edges):
        return None
    return RecognizedDecomposition(spec, tuple(layout))


def _template_search(g: Graph, delta: int) -> Tuple[Optional[int], Optional[RecognizedDecomposition]]:
    """The first proposed layout that fits, families tried in index order."""
    proposers = (
        _side_layouts(g, delta, 0),
        _side_layouts(g, delta, 1),
        _side_layouts(g, delta, 2),
        _bridge_layouts(g, delta),
        _wide_core_layouts(g, delta),
    )  # generators: each runs only when its family is tried
    for family, layouts in enumerate(proposers, start=1):
        if g.n - gamma_vertex_count(family, delta, 0) < minimal_block_size(family, delta):
            continue
        for layout in layouts:
            found = _fit(g, family, delta, layout)
            if found is not None:
                return family, found
    return None, None


def recognize_exceptional(g: Graph) -> RecognitionResult:
    """Membership of g in the exceptional family relative to its own
    minimum degree, decided at every size.

    Cheap proven-necessary filters (order bound, regularity, common-neighbor
    floor) run first; the template search, family by family in index
    order, is the decision procedure: the first proposed layout that
    ``make_gamma`` rebuilds into g is the witness.  Its costliest part, the
    family-3 side-pair scan, takes at most O(n^4) mask operations, under a
    second at 64 vertices.
    """
    if g.n == 0:
        return RecognitionResult(False, None, None)
    delta = g.min_degree
    if delta < FAMILY_MIN_DELTA or g.n < 2 * delta + 1 or g.is_regular:
        return RecognitionResult(False, None, None)
    if common_neighbor_shortcut(delta, max_common_neighbors(g).value):
        return RecognitionResult(False, None, None)
    index, witness = _template_search(g, delta)
    return RecognitionResult(index is not None, index, witness)


# ---------------------------------------------------------------------------
# standard generators


def hypercube(dim: int) -> Graph:
    """Binary hypercube: vertices are bit strings, edges at Hamming distance 1."""
    if dim < 0:
        raise GraphError(f"hypercube dimension must be nonnegative, got {dim}")
    limit = vertex_cap()
    if dim >= max(limit, 0).bit_length():  # 2^dim > limit, without building 2^dim
        raise CapExceededError(f"graph on 2^{dim} vertices exceeds the cap of {limit}")
    n = 1 << dim
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    return build_graph(n, edges)


def complete(n: int) -> Graph:
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    check_vertex_count(n)  # combinations() pools range(n) at once
    return build_graph(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise GraphError("part sizes must be nonnegative")
    return build_graph(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"a cycle needs at least 3 vertices, got {n}")
    return build_graph(n, ((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"a path needs at least 1 vertex, got {n}")
    return build_graph(n, ((i, i + 1) for i in range(n - 1)))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def circulant(n: int, connections: Sequence[int]) -> Graph:
    if n < 3:
        raise GraphError(f"a circulant needs at least 3 vertices, got {n}")
    for s in connections:
        if s % n == 0:
            raise GraphError(f"circulant step {s} is a multiple of {n}")
    return build_graph(n, ((i, (i + s) % n) for s in connections for i in range(n)))


def prism(k: int) -> Graph:
    """Cartesian product of a k-cycle with a single edge (two stacked cycles)."""
    if k < 3:
        raise GraphError(f"a prism needs cycle length at least 3, got {k}")
    edges = chain.from_iterable(  # per i: an edge of each cycle, and the rung between them
        ((i, (i + 1) % k), (k + i, k + (i + 1) % k), (i, k + i)) for i in range(k)
    )
    return build_graph(2 * k, edges)


def wheel(k: int) -> Graph:
    """A k-cycle plus a hub adjacent to every rim vertex (hub id k)."""
    if k < 3:
        raise GraphError(f"a wheel needs rim length at least 3, got {k}")
    edges = chain.from_iterable(((i, (i + 1) % k), (i, k)) for i in range(k))  # rim, spoke
    return build_graph(k + 1, edges)


def random_t_connected(n: int, t: int, seed: int) -> Graph:
    """Seeded random graph with vertex connectivity at least t.

    Samples edge sets of increasing density until the connectivity oracle
    confirms the target; unsatisfiable requests (t >= n) are an error.
    """
    if t < 0:
        raise GraphError(f"connectivity target must be nonnegative, got {t}")
    if t > n - 1:
        raise GraphError(f"no graph on {n} vertices is {t}-connected")
    check_vertex_count(n)  # before sampling from combinations(range(n), 2)
    rng = random.Random(f"random-t-connected-{n}-{t}-{seed}")
    p = min(0.95, (t + 1.0) / max(1, n - 1))
    for _ in range(SAMPLE_ATTEMPTS):
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        g = build_graph(n, edges)
        if _kappa_value(g) >= t:
            return g
        p = min(0.97, p * 1.15)
    raise GraphError(
        f"failed to sample a {t}-connected graph on {n} vertices in {SAMPLE_ATTEMPTS} attempts"
    )


STANDARD_KINDS = {
    "hypercube": (hypercube, 1),
    "complete": (complete, 1),
    "complete-bipartite": (complete_bipartite, 2),
    "cycle": (cycle, 1),
    "path": (path, 1),
    "petersen": (petersen, 0),
    "prism": (prism, 1),
    "wheel": (wheel, 1),
    "circulant": (circulant, None),  # n followed by one or more steps
    "random-t-connected": (random_t_connected, 3),
}


def generate_standard(kind: str, *params: int, seed: int = 0) -> Graph:
    """Named standard generator dispatch, mirroring the CLI gen kinds."""
    if kind not in STANDARD_KINDS:
        known = ", ".join(sorted(STANDARD_KINDS))
        raise GraphError(f"unknown graph kind {kind!r}; known kinds: {known}")
    builder, arity = STANDARD_KINDS[kind]
    if kind == "circulant":
        if len(params) < 2:
            raise GraphError("circulant needs n and at least one step")
        return builder(params[0], tuple(params[1:]))
    if kind == "random-t-connected":
        if len(params) == 2:
            return builder(params[0], params[1], seed)
        if len(params) == 3:
            return builder(params[0], params[1], params[2])
        raise GraphError("random-t-connected needs n, t and a seed")
    if len(params) != arity:
        raise GraphError(f"{kind} needs exactly {arity} parameter(s)")
    return builder(*params)
