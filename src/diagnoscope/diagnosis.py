"""Distinguishability predicates and diagnosability decisions.

Two fault-set candidates F1 and F2 are distinguishable when no test
syndrome is simultaneously consistent with both.  The combinatorial
characterizations used here are:

* PMC: some edge joins a vertex outside F1 and F2 to the symmetric
  difference F1 ^ F2.
* MM*: at least one of three patterns exists, each giving a comparator
  whose outcome is forced to differ under the two candidates:
  (1) a vertex outside both sets adjacent to another outside vertex and
      to a vertex of the symmetric difference,
  (2) two vertices of F1 - F2 with a common neighbor outside both sets,
  (3) two vertices of F2 - F1 with a common neighbor outside both sets.

A graph is t-diagnosable under a model when every pair of distinct
candidates of size at most t is distinguishable.  The decision procedure
groups candidate pairs by their union U and symmetric difference D and
searches over D, not U (``_search_differences``; the folded PMC table in
``tolerance`` runs the same search).  Under PMC a pair is
indistinguishable iff N[D] is inside U; under MM* each vertex x of
N(D) - D must be in U or have N(x) inside U, and conditions (2)/(3)
become a balanced split of D.  So each D has a few minimal unions
("closures"), and the search drops D once none fits in 2t vertices,
counting twice each vertex below D's largest that D skipped: the search
never adds it to D again, so it is in both fault sets of every pair
reached from D.  On highly connected graphs that leaves a handful of
small D.  The search also yields the canonical witness: each (closure,
D) it visits is a candidate pair, and it keeps the first in witness
order (``_before``: smallest |U|, then lexicographic U, then ascending
D), the pair a scan of every U in order would find first.  Tests
cross-check it against such a scan and against the direct pair scan.

Everything here is a pure function of immutable inputs; results are
deterministic and safe for concurrent use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from .graphs import Graph, GraphError, bits_of


class DiagModel(enum.Enum):
    """The two supported test models."""

    PMC = "pmc"
    MMSTAR = "mm"


@dataclass(frozen=True)
class IndistinguishableWitness:
    """A pair of candidate fault sets that defeats t-diagnosability."""

    f1: frozenset
    f2: frozenset
    model: DiagModel


@dataclass(frozen=True)
class DiagnosisDecision:
    diagnosable: bool
    witness: Optional[IndistinguishableWitness]


def _mm_split(adj: Tuple[int, ...], outside: int, d_mask: int, bound: int):
    """Partition d_mask into two halves of size <= bound such that no two
    vertices in the same half share a common neighbor in ``outside``.

    Returns (part1, part2) masks or None.  Conflicting vertices must land
    in different halves, so the conflict graph must be bipartite and some
    2-coloring must balance within the bound.
    """
    verts = list(bits_of(d_mask))
    k = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    conflict: List[List[int]] = [[] for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if adj[verts[i]] & adj[verts[j]] & outside:
                conflict[i].append(j)
                conflict[j].append(i)
    color = [-1] * k
    comps: List[Tuple[int, int, int, int]] = []  # (size0, size1, mask0, mask1)
    for start in range(k):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        masks = [0, 0]
        sizes = [0, 0]
        while stack:
            i = stack.pop()
            masks[color[i]] |= 1 << verts[i]
            sizes[color[i]] += 1
            for j in conflict[i]:
                if color[j] == -1:
                    color[j] = 1 - color[i]
                    stack.append(j)
                elif color[j] == color[i]:
                    return None  # odd conflict cycle: no valid split at any size
        comps.append((sizes[0], sizes[1], masks[0], masks[1]))
    # subset-sum over per-component class sizes to balance the halves
    reachable = [1]
    for a, b, _, _ in comps:
        cur = reachable[-1]
        reachable.append((cur << a) | (cur << b))
    lo = max(0, k - bound)
    target = -1
    for size1 in range(lo, bound + 1):
        if (reachable[-1] >> size1) & 1:
            target = size1
            break
    if target == -1:
        return None
    part1 = 0
    need = target
    for i in range(len(comps) - 1, -1, -1):
        a, b, mask_a, mask_b = comps[i]
        if need - a >= 0 and (reachable[i] >> (need - a)) & 1:
            part1 |= mask_a
            need -= a
        else:
            part1 |= mask_b
            need -= b
    return part1, d_mask ^ part1


def _search_differences(adj: Tuple[int, ...], visit: Callable[[int, int], bool]) -> None:
    """Call ``visit(D, N[D])`` on nonempty vertex sets D, depth first.

    Each D is extended by each vertex above its largest one, smallest
    first, so D comes in lexicographic order of its sorted vertex tuple:
    {0}, {0, 1}, {0, 1, 2}, ..., {0, 2}, ...  A D whose ``visit`` returns
    false is not extended.  Dropping D on a size bound is safe, since
    N[D] and the closures only grow with D: a closure of a larger D
    contains one of D.  N[D] is carried on the stack, never rebuilt.
    """
    n = len(adj)
    stack = [(1 << v, adj[v] | 1 << v, v) for v in range(n - 1, -1, -1)]
    while stack:
        d_mask, closed, top = stack.pop()
        if visit(d_mask, closed):
            stack += [(d_mask | 1 << w, closed | adj[w] | 1 << w, w) for w in range(n - 1, top, -1)]


def _closures(
    adj: Tuple[int, ...], d_mask: int, closed: int, below: int, cap: int, bound: int, mm: bool
) -> List[int]:
    """The closures of the difference D with at most ``bound`` vertices
    and |U| + |U & below| <= ``cap``.

    A closure is a smallest union U that D forces.  Under PMC the only
    one is ``closed`` = N[D].  Under MM* each vertex x of Gamma(D) =
    N[D] - D either joins U or stays outside, and then all of N(x) must
    join U; the closures are
    D | (Gamma(D) - Out) | N(Out) over independent sets Out.  An
    undecided vertex is never adjacent to an outside one (that neighbor
    would already be in U), so independence needs no check.  Both limits
    only grow with U, so a partial union past either one is dropped with
    every closure that contains it.
    """
    found = []
    stack = [(d_mask, closed ^ d_mask) if mm else (closed, 0)]
    while stack:
        u_mask, rest = stack.pop()
        size = u_mask.bit_count()
        if size > bound or size + (u_mask & below).bit_count() > cap:
            continue
        rest &= ~u_mask
        if not rest:
            found.append(u_mask)
            continue
        low = rest & -rest
        rest ^= low
        stack.append((u_mask | adj[low.bit_length() - 1], rest))
        stack.append((u_mask | low, rest))
    return found


def _before(u: int, d: int, u_old: int, d_old: int) -> bool:
    """Whether the pair with union ``u`` and difference ``d`` comes before
    the pair (``u_old``, ``d_old``) in witness order: smaller |U|, then
    lexicographically smaller U (the lowest vertex in just one of the two
    unions is in U), then smaller D as a mask."""
    grow = u.bit_count() - u_old.bit_count()
    if grow:
        return grow < 0
    diff = u ^ u_old
    return bool(u & diff & -diff) if diff else d < d_old


def _find_indistinguishable(adj: Tuple[int, ...], t: int, model: DiagModel):
    """First indistinguishable pair with both sizes <= t in the graph with
    adjacency masks ``adj``, or None.

    "First" is ``_before`` on (U, D) = (F1 | F2, F1 ^ F2).  Any witness
    (U, D) contains a closure of D that is itself a witness with the same
    D, so for the smallest witness size every witness D of the first U has
    U among its closures.  The search (``_search_differences``) tests the
    split of D for each closure that would come before the best witness
    found so far; the pair it keeps last is the first.

    It drops D once no closure passes two limits: |U| at most that of the
    best witness so far, and |U| + |U & L| <= 2t for L = {v < max D} - D.
    The search extends D only by vertices above max D, so every pair
    (U', D') it reaches from D has D' disjoint from L, and a vertex of L
    in U' is in both fault sets.  U' contains some closure U of D (under
    PMC U' contains N[D]; under MM* each vertex of Gamma(D) outside U' has
    all its neighbors in U'), so |F1| + |F2| = |U'| + |U' - D'| >=
    |U| + |U & L|: a closure past 2t has no witness beyond it.  At D
    itself |U| + |U & L| <= 2|U| - |D| = |F1| + |F2|, so no witness at D
    is dropped.
    """
    n = len(adj)
    if t <= 0 or n == 0:
        return None
    full = (1 << n) - 1
    mm = model is DiagModel.MMSTAR
    bound = min(2 * t, n)
    best = None  # (U, D, the half of D that goes to F1)

    def visit(d_mask: int, closed: int) -> bool:
        nonlocal bound, best
        below = ~d_mask & (1 << d_mask.bit_length() - 1) - 1
        closures = _closures(adj, d_mask, closed, below, 2 * t, bound, mm)
        dsize = d_mask.bit_count()
        for u_mask in closures:
            usize = u_mask.bit_count()
            if dsize < 2 * (usize - t) or best and not _before(u_mask, d_mask, best[0], best[1]):
                continue
            if mm:
                split = _mm_split(adj, full ^ u_mask, d_mask, t - usize + dsize)
                if split is None:
                    continue
                half = split[0]
            else:  # the lowest floor(|D| / 2) vertices of D
                rest = d_mask
                for _ in range(dsize // 2):
                    rest &= rest - 1
                half = d_mask ^ rest
            best, bound = (u_mask, d_mask, half), usize
        return bool(closures)

    _search_differences(adj, visit)
    if best is None:
        return None
    u_mask, d_mask, half = best
    s_mask = u_mask ^ d_mask
    f1, f2 = s_mask | half, s_mask | (d_mask ^ half)
    return (f1, f2) if f1 < f2 else (f2, f1)


def is_t_diagnosable(g: Graph, t: int, model: DiagModel) -> DiagnosisDecision:
    """Decide t-diagnosability; on failure return a canonical witness pair."""
    if t < 0:
        raise GraphError(f"fault budget must be nonnegative, got {t}")
    found = _find_indistinguishable(g.adj_masks, t, model)
    if found is None:
        return DiagnosisDecision(True, None)
    f1, f2 = found
    witness = IndistinguishableWitness(
        frozenset(bits_of(f1)), frozenset(bits_of(f2)), model
    )
    return DiagnosisDecision(False, witness)


def diagnosability_cap(g: Graph) -> int:
    """Sound upper bound on diagnosability: min degree and half the order.

    A min-degree vertex v yields the indistinguishable pair (N(v),
    N(v) + v), and when n <= 2t two candidate sets can cover all
    vertices, so t(G) <= min(delta, floor((n - 1) / 2)).
    """
    return min(g.min_degree, (g.n - 1) // 2)


@lru_cache(maxsize=16384)
def _diagnosability_cached(g: Graph, model: DiagModel) -> int:
    cap = diagnosability_cap(g)
    t = 0
    while t < cap and is_t_diagnosable(g, t + 1, model).diagnosable:
        t += 1
    return t


def diagnosability(g: Graph, model: DiagModel) -> int:
    """Largest t for which the graph is t-diagnosable under the model."""
    if g.n == 0:
        raise GraphError("diagnosability is undefined for the empty graph")
    return _diagnosability_cached(g, model)
