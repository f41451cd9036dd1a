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
become a balanced split of D.  By (2)/(3) an outside vertex has at most
one neighbor in each half of D, so an x with three neighbors in D is in
U, and in the union of every pair grown from D.  So each D has a few
minimal unions ("closures"), and the search grows D only toward the
vertices some closure can still afford.  The search adds to D only
vertices above max D, so every pair (U'', D'') it reaches through D + w
has D'' disjoint from L = {v < max D} - D and from the range (max D, w),
and a vertex of U'' there is in both fault sets.  U'' holds w and some
closure U of D (under PMC N[D]; under MM* each vertex of Gamma(D)
outside U'' has all its neighbors in U'' and at most two in D), so
|F1| + |F2| = |U''| + |U'' - D''| >=
|U| + [w not in U] + |U & L| + |U & (max D, w)|.  So D + w is searched
only when some closure U allows w: |U & (max D, w)| + [w not in U] <=
2t - |U| - |U & L| (``_growth``).  Once a witness with |U| = b is
found, a later one must come before it, so |U''| <= b: closures with
|U| > b allow nothing, and those with |U| = b only w in U.  D is dropped
when no closure allows a w; at D itself |U| + |U & L| <= 2|U| - |D| =
|F1| + |F2|, so no witness at D is lost.  The folded PMC table drops D
on the same doubled count with U = N[D], less two vertices for each edge
a scenario may delete, and grows a D it keeps by every vertex above max
D (a growth mask there saves visits but not time).  On highly connected
graphs that leaves a handful of small D.
The search also yields the canonical witness: each (closure, D) it
visits is a candidate pair, and it keeps the first in witness order
(``_before``: smallest |U|, then lexicographic U, then ascending D), the
pair a scan of every U in order would find first.  Tests cross-check it
against such a scan and against the direct pair scan.

Twins, vertices u and v with N(u) - v = N(v) - u (true twins have equal
closed neighborhoods, false twins equal open ones), are interchangeable:
swapping two of them is an automorphism that maps each pair to one of
the same sizes.  So the first pair in witness order holds a prefix of
each twin class, in vertex order, in U, and inside that a prefix in D;
otherwise swapping a missing twin with a larger present one gives an
earlier pair.  The search therefore keeps a D only when it holds the
next-smaller twin of each of its vertices (``_search_differences``),
with twins taken in the graph it searches: ``Graph.twins``, computed
once per graph, or ``graphs.twin_masks`` of G - S for a scenario of the
sweep.  Every sorted prefix of such a D is again one, so the canonical
witness and both doubled-count bounds are unchanged.  The folded PMC table keeps in U a prefix of each class
inside Gamma(D) the same way.  The MM* closures keep every choice: for
twins x < max D < y outside D, keeping x in U counts it twice in the
bound, but the swapped closure does not count y twice, so dropping a
closure by symmetry could wrongly drop D.

Everything here is a pure function of immutable inputs; results are
deterministic and safe for concurrent use.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Tuple

from .graphs import Graph, GraphError, bits_of, twin_masks


class DiagModel(enum.Enum):
    """The two supported test models."""

    PMC = "pmc"
    MMSTAR = "mm"


class IndistinguishableWitness(NamedTuple):
    """A pair of candidate fault sets that defeats t-diagnosability."""

    f1: frozenset
    f2: frozenset
    model: DiagModel


class DiagnosisDecision(NamedTuple):
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


def _search_differences(adj: Tuple[int, ...], twins: Tuple[int, ...], visit: Callable[[int, int], int]) -> None:
    """Call ``visit(D, N[D])`` on the nonempty vertex sets D that hold a
    prefix of every twin class, depth first; ``twins`` is
    ``twin_masks(adj)``.

    Each D is extended by each vertex w above its largest one whose bit is
    set in the mask ``visit`` returns, smallest w first, so D comes in
    lexicographic order of its sorted vertex tuple: {0}, {0, 1},
    {0, 1, 2}, ..., {0, 2}, ...  A visit returning 0 drops D, one returning
    the full mask extends it by every such w.  A D is skipped, with
    everything above it, when its newest vertex has a next-smaller twin
    outside D; every sorted prefix of a D that is kept is kept too.
    Dropping D + w on a size bound is safe, since N[D] and the closures
    only grow with D: a closure of a larger D contains one of D.  N[D] is
    carried on the stack, never rebuilt.
    """
    n = len(adj)
    full = (1 << n) - 1
    stack = [(1 << v, adj[v] | 1 << v, v) for v in range(n - 1, -1, -1)]
    while stack:
        d_mask, closed, top = stack.pop()
        if twins[top] and not twins[top] & d_mask:
            continue
        grow = visit(d_mask, closed)
        if grow == full:
            stack += [(d_mask | 1 << w, closed | adj[w] | 1 << w, w) for w in range(n - 1, top, -1)]
        elif grow:
            stack += [(d_mask | 1 << w, closed | adj[w] | 1 << w, w) for w in range(n - 1, top, -1) if grow >> w & 1]


def _holds_a_pair(u_mask: int, pairs: Tuple[int, ...]) -> bool:
    for p in pairs:  # a loop: any() over a generator costs twice as much at each closure step
        if u_mask & p == p:
            return True
    return False


def _closures(adj: Tuple[int, ...], d_mask: int, closed: int, below: int, cap: int, bound: int, mm: bool,
              pairs: Tuple[int, ...] = ()) -> List[int]:
    """The closures of the difference D with at most ``bound`` vertices,
    |U| + |U & below| <= ``cap`` and no mask of ``pairs`` inside U.

    A closure is a smallest union U that D forces.  Under PMC the only
    one is ``closed`` = N[D].  Under MM* each vertex x of Gamma(D) =
    N[D] - D either joins U or stays outside, and then all of N(x) must
    join U; the closures are
    D | (Gamma(D) - Out) | N(Out) over independent sets Out.  An
    undecided vertex is never adjacent to an outside one (that neighbor
    would already be in U), so independence needs no check.  A vertex
    with three neighbors in D starts in U: outside, it would compare two
    of them that share a half of D, or of any D' grown from D, so no
    witness reached from D has it in Out.  The limits only grow with U, so a
    partial union past one (or holding a mask of ``pairs``) is dropped with
    every closure that contains it.
    """
    found = []
    u_mask = d_mask
    if mm and d_mask.bit_count() > 2:
        once = twice = 0
        for v in bits_of(d_mask):  # u_mask gains the vertices seen a third time
            u_mask |= twice & adj[v]
            twice |= once & adj[v]
            once |= adj[v]
    stack = [(u_mask, closed ^ d_mask) if mm else (closed, 0)]
    while stack:
        u_mask, rest = stack.pop()
        size = u_mask.bit_count()
        if size > bound or size + (u_mask & below).bit_count() > cap or pairs and _holds_a_pair(u_mask, pairs):
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


def _growth(u_mask: int, top: int, slack: int, full: int) -> int:
    """The vertices w of ``full`` above ``top`` with
    |U & (top, w)| + [w not in U] <= ``slack`` for U = ``u_mask``: every
    vertex up to the slack-th vertex of U above top, and the vertex of U
    after that one."""
    above = full >> top + 1 << top + 1
    rest = u_mask & above
    if slack <= 0:
        return rest & -rest if slack == 0 else 0
    for _ in range(slack - 1):
        rest &= rest - 1
    if not rest:
        return above
    low = rest & -rest
    rest ^= low
    return above & (low << 1) - 1 | rest & -rest


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


def _find_indistinguishable(adj: Tuple[int, ...], t: int, model: DiagModel, twins: Optional[Tuple[int, ...]] = None,
                            pairs: Tuple[int, ...] = ()):
    """First indistinguishable pair with both sizes <= t in the graph with
    adjacency masks ``adj``, or None.  ``twins`` is ``twin_masks(adj)``,
    computed here unless given (a Graph carries its own).  A caller that
    knows no witness holds both ends of a mask of ``pairs`` passes them.

    "First" is ``_before`` on (U, D) = (F1 | F2, F1 ^ F2).  Any witness
    (U, D) contains a closure of D that is itself a witness with the same
    D, so for the smallest witness size every witness D of the first U has
    U among its closures.  The search (``_search_differences``) tests the
    split of D for each closure that would come before the best witness
    found so far; the pair it keeps last is the first.

    Each visit asks only for the closures with |U| at most that of the
    best witness so far and |U| + |U & L| <= 2t, for L = {v < max D} - D,
    and returns the vertices they allow D to grow by (the growth rule and
    its proof are in the module docstring).
    """
    n = len(adj)
    if t <= 0 or n == 0:
        return None
    full = (1 << n) - 1
    mm = model is DiagModel.MMSTAR
    bound = min(2 * t, n)
    best = None  # (U, D, the half of D that goes to F1)

    def visit(d_mask: int, closed: int) -> int:
        nonlocal bound, best
        top = d_mask.bit_length() - 1
        below = ~d_mask & (1 << top) - 1
        closures = _closures(adj, d_mask, closed, below, 2 * t, bound, mm, pairs)
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
        grow = 0
        for u_mask in closures:
            usize = u_mask.bit_count()
            if usize <= bound:
                allowed = _growth(u_mask, top, 2 * t - usize - (u_mask & below).bit_count(), full)
                grow |= allowed & u_mask if usize == bound else allowed
        return grow

    _search_differences(adj, twin_masks(adj) if twins is None else twins, visit)
    if best is None:
        return None
    u_mask, d_mask, half = best
    s_mask = u_mask ^ d_mask
    f1, f2 = s_mask | half, s_mask | (d_mask ^ half)
    return (f1, f2) if f1 < f2 else (f2, f1)


def _check_model(model: DiagModel) -> None:
    if not isinstance(model, DiagModel):  # the engine tests ``model is``: 'mm' would get PMC rules
        raise GraphError(f"model must be a DiagModel, got {model!r}")


def is_t_diagnosable(g: Graph, t: int, model: DiagModel) -> DiagnosisDecision:
    """Decide t-diagnosability; on failure return a canonical witness pair."""
    _check_model(model)
    if t < 0:
        raise GraphError(f"fault budget must be nonnegative, got {t}")
    found = _find_indistinguishable(g.adj_masks, t, model, g.twins)
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
    """Top-down: decide at t = ``diagnosability_cap(g)``; on a witness
    (F1, F2), set t = max(|F1|, |F2|) - 1 and decide again.

    The witness pair has both sets of size at most m = max(|F1|, |F2|), so
    G is not m-diagnosable, and then not t'-diagnosable for any t' >= m
    (diagnosability is monotone).  Each step lowers t, and the first t
    with no witness is the answer.  A graph whose diagnosability is its
    cap, such as a hypercube, takes one decision where an ascending search
    takes cap.
    """
    t = diagnosability_cap(g)
    while t > 0:
        witness = is_t_diagnosable(g, t, model).witness
        if witness is None:
            return t
        t = max(len(witness.f1), len(witness.f2)) - 1
    return 0


def diagnosability(g: Graph, model: DiagModel) -> int:
    """Largest t for which the graph is t-diagnosable under the model."""
    _check_model(model)
    if g.n == 0:
        raise GraphError("diagnosability is undefined for the empty graph")
    return _diagnosability_cached(g, model)
