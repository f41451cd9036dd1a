"""Immutable simple undirected graphs with bitmask adjacency.

Vertices are dense integer ids ``0..n-1``, and vertex subsets are plain
Python ints used as bitmasks; ``Graph.adj_masks`` exposes the adjacency
in the same encoding so that exhaustive-search engines can run on pure
integer set algebra.  Graphs are immutable after construction: every
operation returns a new value, so a graph is safe to share and to use as
a cache key.  ``build_graph`` enforces the vertex cap, ``vertex_cap()``.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence, Tuple

Edge = Tuple[int, int]

DEFAULT_VERTEX_CAP = 64
CAP_ENV_VAR = "DIAGNOSCOPE_CAP"


class GraphError(ValueError):
    """Invalid graph construction or graph operation."""


class CapExceededError(GraphError):
    """Vertex count exceeds the configured safety cap.

    The brute-force analyses in this package are intentionally
    exponential; the cap keeps accidental huge inputs loud instead of
    silently burning CPU.
    """


def vertex_cap() -> int:
    """The vertex cap: ``DIAGNOSCOPE_CAP`` if set, else 64."""
    raw = os.environ.get(CAP_ENV_VAR, str(DEFAULT_VERTEX_CAP))
    try:
        return int(raw)
    except ValueError as exc:
        raise GraphError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc


def check_vertex_count(n: int) -> None:
    """Raise CapExceededError when n exceeds the cap (see ``vertex_cap``).

    ``build_graph`` calls this before it takes the first edge; a
    constructor that does work growing with n before then calls it first,
    so an over-cap request fails at once.
    """
    limit = vertex_cap()
    if n > limit:
        raise CapExceededError(f"graph on {n} vertices exceeds the cap of {limit}")


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """An immutable simple graph.

    Attributes:
        n: vertex count; vertices are ids 0..n-1.
        edges: sorted tuple of normalized (u, v) pairs with u < v; an
            edge's index is its position here.
        adj_masks: per-vertex neighbor bitmask (bit v of adj_masks[u] is
            set iff {u, v} is an edge); every edge query, equality and the
            hash read it.
        twins: ``twin_masks(adj_masks)``, computed once per graph.
    """

    __slots__ = ("n", "edges", "adj_masks", "twins", "_hash")

    def __init__(self, n: int, edges: Sequence[Edge]):
        # Callers must pass normalized, deduplicated, validated edges;
        # use build_graph for raw input.
        self.n = n
        self.edges = tuple(sorted(edges))
        masks = [0] * n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.adj_masks = tuple(masks)
        self.twins = twin_masks(self.adj_masks)
        self._hash = hash(self.adj_masks)

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj_masks[v].bit_count()

    @property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj_masks)

    @property
    def min_degree(self) -> int:
        if self.n == 0:
            raise GraphError("minimum degree is undefined for the empty graph")
        return min(self.degrees)

    @property
    def is_regular(self) -> bool:
        if self.n == 0:
            raise GraphError("regularity is undefined for the empty graph")
        degs = self.degrees
        return min(degs) == max(degs)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj_masks[u] >> v & 1)

    def neighbors(self, v: int) -> frozenset:
        return frozenset(bits_of(self.adj_masks[v]))

    def vertex_mask(self, vertices: Iterable[int]) -> int:
        """Bitmask of a vertex subset, validating ids against this graph."""
        mask = 0
        for v in vertices:
            if not 0 <= v < self.n:
                raise GraphError(f"vertex {v} out of range for graph on {self.n} vertices")
            mask |= 1 << v
        return mask

    # -- value semantics -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adj_masks == other.adj_masks

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def bits_of(mask: int):
    """Yield the set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def twin_masks(adj: Sequence[int]) -> Tuple[int, ...]:
    """Each vertex's next-smaller twin as a one-bit mask, 0 if it has none.

    Twins are vertices u and v with N(u) - v = N(v) - u: true twins have
    equal closed neighborhoods, false twins equal open ones.  No vertex
    has both kinds (a true twin of u is adjacent to every false twin of
    u, which is then adjacent to u), and an open neighborhood never
    equals a closed one (u in N(v) = N[w] would put u in N(u)), so one
    dict keyed by both finds each vertex's class.
    """
    n = len(adj)
    if len(set(adj)) == n and len({a | 1 << v for v, a in enumerate(adj)}) == n:
        return (0,) * n
    last = {}
    smaller = [0] * n
    for v, a in enumerate(adj):
        for key in (a, a | 1 << v):
            if key in last:
                smaller[v] = 1 << last[key]
            last[key] = v
    return tuple(smaller)


def build_graph(n: int, edge_list: Iterable[Tuple[int, int]]) -> Graph:
    """Build a graph from a raw edge list, deduplicating undirected pairs.

    Raises GraphError for endpoints out of range or self-loops, naming
    the offending pair, and CapExceededError when n exceeds the cap; the
    cap is checked before the first edge is taken, so a lazy edge list
    for an over-cap n is never iterated.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    check_vertex_count(n)
    seen = set()
    for u, v in edge_list:
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint out of range 0..{n - 1}")
        seen.add(normalize_edge(u, v))
    return Graph(n, sorted(seen))


def delete_edges(g: Graph, fault_edges: Iterable[Tuple[int, int]]) -> Graph:
    """Same vertex set with the given edges removed; non-edges are an error."""
    drop = set()
    for u, v in fault_edges:
        if not g.has_edge(u, v):
            raise GraphError(f"cannot delete ({u}, {v}): not an edge of the graph")
        drop.add(normalize_edge(u, v))
    return Graph(g.n, [e for e in g.edges if e not in drop])


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a vertex permutation: old id v becomes perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("relabeling must be a permutation of the vertex ids")
    return Graph(g.n, [normalize_edge(perm[u], perm[v]) for u, v in g.edges])


def _refine(nbrs: Sequence[Tuple[int, ...]], colours: Sequence[int], v: int | None = None):
    """Coarsest equitable refinement of a colouring, ``v`` individualized.

    ``nbrs`` holds each vertex's neighbour tuple.  Each round recolours a
    vertex by the rank of (colour, sorted neighbour colours), so labels
    never depend on vertex ids and cells keep their order.  Also returns
    the last round's sorted keys as an invariant.
    """
    colours = list(colours)
    if v is not None:
        colours[v] = -1
    cells = -1
    while True:
        at = colours.__getitem__
        keys = [(c, tuple(sorted(map(at, nb)))) for c, nb in zip(colours, nbrs)]
        ranks = {k: i for i, k in enumerate(sorted(set(keys)))}
        colours = [ranks[k] for k in keys]
        if len(ranks) == cells:
            return colours, tuple(sorted(keys))
        cells = len(ranks)


def automorphism_generators(g: Graph) -> Tuple[Tuple[int, ...], ...]:
    """At most n - 1 generators of the automorphism group; each maps
    vertex v to perm[v].

    Individualization and refinement (McKay & Piperno, "Practical graph
    isomorphism, II"): the first path individualizes the smallest vertex
    of the first non-singleton cell down to a discrete colouring.  Walking
    back up, each level searches a leaf that, matched to the first leaf by
    colour, sends the level's base point b to each w of its cell not yet
    in b's orbit.  Individualized vertices hold the lowest labels in
    order, so that map fixes the earlier base points; with the stabilizer
    below, any maps of the stabilizer at this level that join b's orbit to
    every w it can reach generate that stabilizer (orbit-stabilizer).

    So a twin transposition can stand in for a search.  Swapping twins
    u < v (``Graph.twins`` chains each class by next-smaller twin) is an
    automorphism that fixes every other vertex.  One of u, v is a base
    point, since only the identity fixes them all, and the swap lies in
    the stabilizer of every base point before the first of the two.  It
    is added at that one's level, before the level's searches, when it
    joins two orbits; the level then searches only the w it has not
    joined to b.  Every generator joins two orbits, so there are at most
    n - 1.
    """
    adj, n = g.adj_masks, g.n
    nbrs = [tuple(bits_of(a)) for a in adj]
    colours, _ = _refine(nbrs, [0] * n)
    path = []  # per level: colours, target cell label, base point, invariant below
    while len(set(colours)) < n:
        target = min(c for c in colours if colours.count(c) > 1)
        base = colours.index(target)
        below, invariant = _refine(nbrs, colours, base)
        path.append((colours, target, base, invariant))
        colours = below
    leaf = colours
    level_of = {base: level for level, (_, _, base, _) in enumerate(path)}
    swaps = [[] for _ in path]  # per level: the twin pairs first joined there
    for v, twin in enumerate(g.twins):
        if twin:
            u = twin.bit_length() - 1
            swaps[min(level_of.get(u, n), level_of.get(v, n))].append((u, v))

    def search(cols, level, choices=None):
        if level == len(path):
            at = [0] * n
            for v, c in enumerate(cols):
                at[c] = v
            perm = tuple(map(at.__getitem__, leaf))
            bit = [1 << w for w in perm]
            ok = all(sum(map(bit.__getitem__, nb)) == adj[w] for nb, w in zip(nbrs, perm))
            return perm if ok else None
        _, target, _, invariant = path[level]
        for x in choices or [x for x in range(n) if cols[x] == target]:
            below, inv = _refine(nbrs, cols, x)
            found = inv == invariant and search(below, level + 1)
            if found:
                return found
        return None

    orbit = list(range(n))

    def find(v):
        while orbit[v] != v:
            orbit[v] = v = orbit[orbit[v]]
        return v

    gens = []
    for level in range(len(path) - 1, -1, -1):
        cols, target, base, _ = path[level]
        for u, v in swaps[level]:
            if find(u) != find(v):
                perm = list(range(n))
                perm[u], perm[v] = v, u
                gens.append(tuple(perm))
                orbit[find(u)] = find(v)
        for w in range(base + 1, n):
            perm = cols[w] == target and find(w) != find(base) and search(cols, level, [w])
            if perm:
                gens.append(perm)
                for v in range(n):
                    orbit[find(v)] = find(perm[v])
    return tuple(gens)
