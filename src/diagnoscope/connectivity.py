"""Vertex connectivity, internally disjoint paths, and common-neighbor stats.

Local connectivity between two vertices is a unit-capacity maximum flow on
the vertex-split network: vertex v becomes an in-node and an out-node joined
by an arc of capacity one (unbounded at the terminals), and edge {u, v}
becomes the arcs u_out -> v_in and v_out -> u_in.  ``_Flow`` keeps that
network implicit in the adjacency bitmasks: the flow is a bitmask of the
vertices whose split arc it uses plus, per vertex, bitmasks of the edge arcs
it uses in and out, so one augmenting path is a breadth-first search whose
steps are mask operations.

Global connectivity uses the pair list of Esfahanian & Hakimi, "On computing
the connectivities of graphs and digraphs" (Networks, 1984): with v0 the
first vertex of minimum degree, kappa is the minimum of delta, the local
connectivities from v0 to each of its non-neighbors, and those between the
non-adjacent pairs of its neighbors.  Each local flow starts from the
|N(a) & N(b)| two-hop paths a-c-b.  That count is a lower bound on the
pair's connectivity, so a pair whose count already reaches the best value
so far is skipped, and augmenting stops once the flow reaches that value
(the cap).

The witness cut is the lexicographically smallest minimum separator, built
one vertex at a time as the smallest vertex on some minimum separator of
the graph with the prefix removed.  Every minimum separator separates some
pair of the pair list at that pair's local connectivity.  By Picard &
Queyranne, "On the structure of all minimum cuts in a network" (Math. Prog.
Study, 1980), a vertex v on the flow paths lies on some minimum separator
of the pair iff, in the residual network of a maximum flow with
uncapacitated edge arcs, v's out-node is unreachable from the source and
v's in-node.  (The sink must be unreachable too, but from the sink the
residual arcs lead back along v's path to v's out-node.)  So each vertex of
the cut costs one pass over the pair list, with flows capped one above the
connectivity that remains.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from collections import deque
from typing import List, NamedTuple, Optional, Tuple

from .graphs import Graph, GraphError, bits_of


class ConnectivityReport(NamedTuple):
    kappa: int
    delta: int
    maximally_connected: bool
    witness_cut: frozenset


class DisjointPaths(NamedTuple):
    count: int
    paths: Tuple[Tuple[int, ...], ...]


class CommonNeighbors(NamedTuple):
    value: int
    pair: Tuple[int, int]


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    full = g.full_mask
    adj = g.adj_masks
    while frontier:
        nxt = 0
        for v in bits_of(frontier):
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == full


class _Flow:
    """Unit-vertex-capacity flow between terminals s and t over ``adj``.

    ``used`` is the mask of non-terminal vertices whose split arc carries
    flow; ``out[x]`` (``into[w]``) is the mask of w (x) whose edge arc
    x_out -> w_in carries flow.  Vertices absent from every ``adj`` entry
    are deleted.
    """

    def __init__(self, adj, s: int, t: int):
        self.adj = adj
        self.s = s
        self.t = t
        self.out = [0] * len(adj)
        self.into = [0] * len(adj)
        self.used = 0
        self.value = 0

    def add_two_hop_paths(self) -> None:
        """Start an empty flow with the paths s-c-t through each common neighbor c."""
        s, t, out, into = self.s, self.t, self.out, self.into
        common = self.adj[s] & self.adj[t]
        for c in bits_of(common):
            out[s] |= 1 << c
            into[c] |= 1 << s
            out[c] |= 1 << t
            into[t] |= 1 << c
        self.used |= common
        self.value += common.bit_count()

    def push(self, cap: int) -> int:
        """Augment until the flow reaches ``cap`` or is maximum."""
        while self.value < cap and self._augment():
            self.value += 1
        return self.value

    def _augment(self) -> bool:
        """Push one unit along the first shortest residual path, if any.

        The search expands nodes in the order of the split network's arc
        lists (the other half of the same vertex first, then neighbors in
        ascending order), so the flow, and the paths read off it, are a
        fixed function of the graph and the terminals.  A node's parent is
        fixed when it is first reached, so the search stops at the sink.
        """
        adj, out, into, used, t = self.adj, self.out, self.into, self.used, self.t
        start = 2 * self.s + 1
        parent = {start: -1}
        seen_in = 0
        seen_out = 1 << self.s
        queue = deque([start])
        while queue:
            node = queue.popleft()
            v = node >> 1
            if node & 1:  # out-node: back over v's split arc, or along a free edge arc
                if used >> v & 1 and not seen_in >> v & 1:
                    seen_in |= 1 << v
                    parent[node - 1] = node
                    queue.append(node - 1)
                fresh = adj[v] & ~out[v] & ~seen_in
                seen_in |= fresh
                for w in bits_of(fresh):
                    parent[2 * w] = node
                    if w == t:
                        self._apply(parent)
                        return True
                    queue.append(2 * w)
            else:  # in-node: over v's free split arc, or back along an edge arc into v
                if not used >> v & 1 and not seen_out >> v & 1:
                    seen_out |= 1 << v
                    parent[node + 1] = node
                    queue.append(node + 1)
                fresh = into[v] & ~seen_out
                seen_out |= fresh
                for x in bits_of(fresh):
                    parent[2 * x + 1] = node
                    queue.append(2 * x + 1)
        return False

    def _apply(self, parent) -> None:
        out, into = self.out, self.into
        node = 2 * self.t
        prev = parent[node]
        while prev >= 0:
            a, b = prev >> 1, node >> 1
            if a == b:  # split arc, forward from the in-node or back from the out-node
                self.used ^= 1 << a
            elif prev & 1:  # edge arc a_out -> b_in
                out[a] |= 1 << b
                into[b] |= 1 << a
            else:  # cancel the flow on b_out -> a_in
                out[b] &= ~(1 << a)
                into[a] &= ~(1 << b)
            node, prev = prev, parent[prev]

    def paths(self) -> List[Tuple[int, ...]]:
        """The flow as internally disjoint s-t paths, by ascending first hop.

        Each non-terminal vertex carries at most one unit, so the walk from
        a first hop follows the only arc leaving each vertex.
        """
        out, t = self.out, self.t
        paths = []
        for v in bits_of(out[self.s]):
            path = [self.s]
            while v != t:
                path.append(v)
                v = (out[v] & -out[v]).bit_length() - 1
            path.append(t)
            paths.append(tuple(path))
        return paths

    def first_cut_vertex(self, window: int) -> Optional[int]:
        """Smallest vertex of the mask ``window`` on some minimum s-t separator.

        The flow must be maximum.  Only vertices on the flow paths can lie
        on a minimum separator; see the module docstring for the test.
        """
        candidates = self.used & window
        if not candidates:
            return None
        source = self._reach(0, 1 << self.s, 0, 0)
        for v in bits_of(candidates):
            if not self._reach(1 << v, 0, *source)[1] >> v & 1:
                return v
        return None

    def _reach(self, new_in: int, new_out: int, seen_in: int, seen_out: int):
        """Close the node sets under residual arcs, edge arcs uncapacitated."""
        adj, into, used = self.adj, self.into, self.used
        new_in &= ~seen_in
        new_out &= ~seen_out
        seen_in |= new_in
        seen_out |= new_out
        while new_in or new_out:
            nxt_in = new_out & used
            for x in bits_of(new_out):
                nxt_in |= adj[x]
            nxt_out = new_in & ~used
            for w in bits_of(new_in):
                nxt_out |= into[w]
            new_in = nxt_in & ~seen_in
            new_out = nxt_out & ~seen_out
            seen_in |= new_in
            seen_out |= new_out
        return seen_in, seen_out


def _pair_flow(adj, a: int, b: int, cap: int) -> _Flow:
    flow = _Flow(adj, a, b)
    flow.add_two_hop_paths()
    flow.push(cap)
    return flow


def _pairs(adj, alive: int):
    """The Esfahanian-Hakimi pair list of the graph induced on ``alive``.

    ``adj`` must already be restricted to ``alive``.
    """
    v0 = min(bits_of(alive), key=lambda v: (adj[v].bit_count(), v))
    nbrs = adj[v0]
    for u in bits_of(alive & ~nbrs & ~(1 << v0)):
        yield v0, u
    for a in bits_of(nbrs):
        for b in bits_of(nbrs & ~adj[a] & ~((2 << a) - 1)):
            yield a, b


def internally_disjoint_paths(g: Graph, u: int, v: int) -> DisjointPaths:
    """Maximum family of pairwise internally disjoint u-v paths.

    The count is the Menger value; the returned family realizes it.
    """
    if u == v:
        raise GraphError("internally disjoint paths require two distinct vertices")
    g.vertex_mask((u, v))  # raises GraphError for an id out of range
    flow = _Flow(g.adj_masks, u, v)
    count = flow.push(g.n)
    return DisjointPaths(count, tuple(flow.paths()))


def _kappa_value(g: Graph, cap: Optional[int] = None) -> int:
    """Vertex connectivity without witness extraction, or min(kappa, cap).

    Conventions: kappa of a complete graph on n vertices is n-1 (including
    kappa(K1) = 0; its pair list is empty, so kappa = delta) and kappa of a
    disconnected graph is 0: the first vertex of the pair list is paired
    with every vertex outside its component, and that pair has flow 0.

    With ``cap`` the search starts from min(delta, cap) instead of delta,
    so a caller that only asks whether kappa reaches ``cap`` skips every
    pair with at least ``cap`` common neighbours and stops each flow at
    ``cap``.
    """
    if g.n == 0:
        raise GraphError("connectivity is undefined for the empty graph")
    adj = g.adj_masks
    best = g.min_degree if cap is None else min(g.min_degree, cap)
    for a, b in _pairs(adj, g.full_mask):
        if (adj[a] & adj[b]).bit_count() < best:
            best = _pair_flow(adj, a, b, best).value
    return best


def _witness_cut(g: Graph, kappa: int) -> List[int]:
    """The lexicographically smallest kappa-vertex separator, ascending.

    A vertex u off every minimum separator of G - P is off every minimum
    separator of G - P - v too: one through u, plus v, would be a minimum
    separator of G - P through u.  So the cut comes out ascending, and each
    pass stops once it finds the vertex after the last one chosen.
    """
    adj = g.adj_masks
    alive = g.full_mask
    prefix: List[int] = []
    for k in range(kappa, 0, -1):  # k = connectivity with the prefix deleted
        sub = [mask & alive for mask in adj]
        floor = prefix[-1] + 1 if prefix else 0
        best = g.n
        for a, b in _pairs(sub, alive):
            window = alive & ((1 << best) - (1 << floor)) & ~(1 << a) & ~(1 << b)
            if not window or (sub[a] & sub[b]).bit_count() > k:
                continue
            flow = _pair_flow(sub, a, b, k + 1)
            if flow.value > k:
                continue
            v = flow.first_cut_vertex(window)
            if v is not None:
                best = v
                if best == floor:
                    break
        prefix.append(best)
        alive &= ~(1 << best)
    return prefix


def vertex_connectivity(g: Graph) -> ConnectivityReport:
    """Connectivity kappa, minimum degree, and a deterministic witness cut.

    The witness is the lexicographically smallest vertex set of size kappa
    whose removal disconnects the graph; it is empty for complete and for
    already-disconnected graphs.  It costs one capped pass over the
    Esfahanian-Hakimi pair list per vertex of the cut (module docstring).
    """
    kappa = _kappa_value(g)
    delta = g.min_degree
    cut = () if kappa == g.n - 1 else _witness_cut(g, kappa)  # a complete graph has no separator
    return ConnectivityReport(kappa, delta, kappa == delta, frozenset(cut))


def max_common_neighbors(g: Graph) -> CommonNeighbors:
    """Maximum number of common neighbors over all vertex pairs.

    Returns the value and the lexicographically first achieving pair.
    """
    if g.n < 2:
        raise GraphError("common neighbors require at least two vertices")
    best = -1
    best_pair = (0, 1)
    adj = g.adj_masks
    for u in range(g.n):
        for v in range(u + 1, g.n):
            c = (adj[u] & adj[v]).bit_count()
            if c > best:
                best = c
                best_pair = (u, v)
    return CommonNeighbors(best, best_pair)
