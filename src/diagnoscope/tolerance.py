"""Edge-fault tolerable diagnosability and the theorem-based bound calculator.

The tolerable diagnosability at edge budget h is the minimum
diagnosability over all graphs obtained by deleting at most h edges.
Deleting edges never creates a distinguishing structure, so the minimum
is attained at scenarios of size exactly h; the scenario sweep
enumerates those.  A budget above the minimum degree isolates a vertex
and is decided without them, and h <= delta <= |E| below it.

Under PMC the per-scenario loop can be folded away exactly: a candidate
pair becomes indistinguishable after deleting F_e iff F_e covers every
edge between the outside region and the symmetric difference D, so the
worst scenario for a pair costs exactly the number of such edges.  The
engine's search over D (``diagnosis._search_differences``), trading each
neighbor of D between the union and the deleted edges, yields the value
table for every budget at once.  The scenario sweep remains the oracle
the folded table is tested against, and is the production path for MM*.

Deleting one edge e lowers diagnosability by at most one, under both
models.  A pair (F1, F2) indistinguishable in G - e either has both ends
of e in F1 | F2, and is indistinguishable in G, or gains an end x of e
outside F1 | F2 in both sets; x is then neither in the symmetric
difference nor outside the union, so no PMC test and no MM* comparator
through e tells the larger pair apart in G.  So t(G) <= t(G - e) + 1,
and the value at budget h is t_{h-1} or t_{h-1} - 1; the MM* sweep
decides which with at most two refutation scans, at t >= t_{h-1}.  At the
first, t = t_{h-1} <= t(G - (S - e)) for each e in S, so a witness pair
in G - S is told apart in G - (S - e) only through e, by a vertex outside
its union: the engine drops unions holding both ends of an edge of S.
Applied edge by edge, the bound gives t(G - S') <= t(G - S) + |S - S'|
for every S' inside a scenario S.  So once some nonempty S' is known to
be (t + |S - S'|)-diagnosable, S is t-diagnosable and the sweep does not
refute it at t (the subset rule).  The empty S' never applies: it
needs t(G) >= t + h, while t >= t_{h-1} >= t(G) - (h - 1) gives
t + h > t(G).

An automorphism sigma of G makes G - S and G - sigma(S) isomorphic, so
when the engine finds S t-diagnosable the sweep records sigma(S) too,
for every sigma.  A scenario of an orbit already swept is then dropped
by the subset rule with S' = S, and an asymmetric graph's sweep refutes
every scenario the rule leaves open.

Both rules read earlier levels, so each (graph, model) keeps one profile,
``_tolerance_cached(g, model)``: the results decided so far, by budget;
the sweep record, which maps each scenario shown t-diagnosable, as an
edge-index mask, to that t, and is closed under automorphisms; and the
group, each generator's image bit of every edge index, computed when the
first orbit is recorded.  A level is appended only once decided.  A
profile is mutable process state, so unlike ``diagnosis`` it is not safe
for concurrent use.

The paper's theorems are stated once, as the rows of ``THEOREMS``: a
rule name, the ``verify`` claim that checks it, its model, its
hypotheses and the value it asserts.  A hypothesis is an atom that maps
the graph's ``Facts`` and the budget to a condition text and whether it
holds; each atom is written once.  ``theoretical_bounds`` (``analyze``)
applies the first five rows.  Each row is also a row of the claim table
``verification.CLAIMS``, which ``verify`` checks against the exhaustive
oracle, so ``verify`` checks exactly what ``analyze`` applies.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Callable, List, NamedTuple, Optional, Tuple

from .connectivity import _kappa_value, max_common_neighbors
from .diagnosis import (
    DiagModel, _before, _check_model, _find_indistinguishable, _search_differences, _twin_links, diagnosability,
)
from .diagnosis import is_t_diagnosable  # noqa: F401  (bench/selftest.py checks the tracer patches this binding)
from .families import RecognitionResult, common_neighbor_shortcut, recognize_exceptional
from .graphs import Edge, Graph, GraphError, automorphism_generators, bits_of, normalize_edge

METHOD_BRUTE = "brute_force"
METHOD_THEOREM = "theorem"


class ToleranceResult(NamedTuple):
    h: int
    model: DiagModel
    value: int
    worst_scenario: Optional[Tuple[Edge, ...]]
    method: str


class BoundCondition(NamedTuple):
    rule: str
    description: str
    holds: bool


class BoundReport(NamedTuple):
    lower: Optional[int]
    lower_rule: Optional[str]
    upper: Optional[int]
    upper_rule: Optional[str]
    exact: Optional[int]
    conditions: Tuple[BoundCondition, ...]


@lru_cache(maxsize=4096)
def _pmc_break_table(g: Graph):
    """Folded PMC table: per deletion cost r, the smallest breaking threshold.

    A candidate pair with union U and symmetric difference D becomes
    indistinguishable exactly when the edges between D and V - U are
    deleted; it then defeats t-diagnosability for all
    t >= |U| - floor(|D| / 2).  A vertex of V - U with no edge to D only
    raises that threshold by leaving U, so every optimal pair has
    U = N[D] - Out for some Out inside Gamma(D) = N(D) - D, at cost
    r = sum of the edges from each Out vertex to D.  So for each D that
    ``_search_differences`` visits, every Out of cost at most delta is
    tried (deleting more isolates a vertex).  A pair (U', D') grown from D
    at cost r' has U' containing N[D] - Out', with at most r' vertices of
    Out' in N[D], so its threshold |U'| - floor(|D'| / 2) is at least
    (|N[D]| - r') / 2.  D' avoids L = {v < max D} - D, so U' & L is in
    both fault sets, and the threshold |U' - D'| + ceil(|D'| / 2) >=
    (|U'| + |U' & L|) / 2 is also at least
    (|N[D]| + |N[D] & L|) / 2 - r'.  D is dropped once, for every r, one
    of the two bounds exceeds thresholds[r]; both are strict, so no pair
    that ties a threshold, and might come first in witness order, is
    lost.  The search visits only the D that hold a prefix of each twin
    class, and Out takes the largest twins of a class inside Gamma(D):
    twins outside D cost the same edges to D, and keeping the smaller one
    in U gives the lexicographically smaller U, so the first pair at each
    cost is still reached (the twin rule, ``diagnosis`` module docstring).

    Returns (thresholds, scenarios): thresholds[r] is the minimum breaking
    threshold over pairs whose outside-to-D edge set has size r <= delta,
    and scenarios[r] is that edge set for the first such pair in witness
    order (``diagnosis._before``).
    """
    n = g.n
    delta = g.min_degree
    adj = g.adj_masks
    infinite = n + 2
    full = (1 << n) - 1
    best = [infinite] * (delta + 1)
    witness: list = [None] * (delta + 1)
    larger = _twin_links(g.twins)[2]  # each vertex's next-larger twin

    def visit(d_mask: int, closed: int) -> int:
        size = closed.bit_count()
        below = ~d_mask & (1 << d_mask.bit_length() - 1) - 1
        doubled = size + (closed & below).bit_count()
        if all(size - r > 2 * b or doubled - 2 * r > 2 * b for r, b in enumerate(best)):
            return 0
        base = size - (d_mask.bit_count() >> 1)
        outs = [(0, 0, 0)]  # (Out, |Out|, edges from Out to D)
        rest = closed ^ d_mask
        while rest:  # from the top, so each x finds its next-larger twin decided
            x = rest.bit_length() - 1
            rest ^= 1 << x
            e = (adj[x] & d_mask).bit_count()
            need = larger[x]
            outs += [(o | 1 << x, k + 1, r + e) for o, k, r in outs if r + e <= delta and o & need == need]
        for out, k, r in outs:
            threshold = base - k
            if threshold > best[r]:
                continue
            u_mask = closed ^ out
            if threshold == best[r] and not _before(u_mask, d_mask, *witness[r]):
                continue
            best[r] = threshold
            witness[r] = (u_mask, d_mask)
        return full

    _search_differences(adj, g.twins, visit)
    scenarios = tuple(
        tuple(sorted(normalize_edge(v, w) for v in bits_of(d_mask) for w in bits_of(adj[v] & ~u_mask)))
        for u_mask, d_mask in witness
    )
    return tuple(best), scenarios


def _pmc_tolerance(g: Graph, h: int) -> Tuple[int, Tuple[Edge, ...]]:
    """Exact PMC value at budget h plus a canonical minimizing scenario.

    The scenario is the witness edge set of the first pair attaining the
    minimum, padded with the smallest non-member edges up to size h.
    Deleting a superset of the witness edges keeps the pair
    indistinguishable, and no scenario beats the folded minimum, so the
    padded scenario attains the value exactly.
    """
    thresholds, scenarios = _pmc_break_table(g)
    best_r = 0
    for r in range(1, h + 1):
        if thresholds[r] < thresholds[best_r]:
            best_r = r
    value = thresholds[best_r] - 1
    base = list(scenarios[best_r])
    if len(base) < h:
        chosen = set(base)
        for e in g.edges:
            if len(base) == h:
                break
            if e not in chosen:
                base.append(e)
                chosen.add(e)
    return value, tuple(sorted(base))


def _scenario_sweep(g: Graph, size: int, model: DiagModel, target: int, record: dict, group: list):
    """Value and lexicographically first minimizing scenario at budget
    ``size`` >= 1, given target = t_{size-1} and the profile's ``record``
    and ``group``.

    A first scan refutes scenarios at target; the first one refuted has
    value target - 1.  If none is, a second scan returns the first
    scenario refuted at target + 1, whose value is target (at target 0
    only this scan runs).  A scan walks sorted edge-index prefixes depth
    first, so its leaves come in ``combinations`` order.  A popped prefix
    is dropped, with every scenario above it, when it holds a recorded S'
    that is (t + size - |S'|)-diagnosable; only the S' holding its newest
    edge are tested, the others were at its shorter prefixes.  A leaf left
    is refuted on a copy of the adjacency masks; if the engine finds no
    witness, its orbit is recorded at t, so a later leaf of that orbit is
    dropped as its own S'.  ``group`` is empty until the first orbit is
    recorded, then holds one list: per generator, the image of each edge
    index as a one-bit mask, so an orbit member's image is the sum of its
    edges' images.
    """
    m = g.m
    for t in range(max(target, 1), target + 2):
        stack = [1 << e for e in range(m - size, -1, -1)]
        while stack:
            mask = stack.pop()
            top = mask.bit_length() - 1
            rest = sub = mask ^ 1 << top
            while record.get(sub | 1 << top, -1) < t + size - 1 - sub.bit_count():
                if not sub:
                    break
                sub = (sub - 1) & rest
            else:
                continue  # every scenario above the prefix holds S' = sub + top
            depth = mask.bit_count()
            if depth < size:
                stack += [mask | 1 << e for e in range(m - size + depth, top, -1)]
                continue
            scenario = tuple(g.edges[i] for i in bits_of(mask))
            adj = list(g.adj_masks)
            for u, v in scenario:
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            pairs = tuple(1 << u | 1 << v for u, v in scenario) if t == target else ()
            if _find_indistinguishable(adj, t, model, pairs=pairs) is not None:
                return t - 1, scenario
            if not group:
                index = {e: i for i, e in enumerate(g.edges)}
                gens = automorphism_generators(g)
                group.append([[1 << index[normalize_edge(p[u], p[v])] for u, v in g.edges] for p in gens])
            record[mask] = t
            orbit = [mask]
            for x in orbit:
                idx = list(bits_of(x))
                for image in group[0]:
                    y = sum(map(image.__getitem__, idx))
                    if record.get(y, -1) < t:
                        record[y] = t
                        orbit.append(y)
    raise AssertionError("some scenario is at most t_{size-1}")


def edge_tolerable_diagnosability(g: Graph, h: int, model: DiagModel) -> ToleranceResult:
    """Minimum diagnosability over all deletions of at most h edges, with the
    lexicographically smallest minimizing scenario of size h; 0 by theorem
    for a budget above the minimum degree, which isolates a vertex."""
    _check_model(model)
    if h < 0:
        raise GraphError(f"edge budget must be nonnegative, got {h}")
    if g.n == 0:
        raise GraphError("tolerable diagnosability is undefined for the empty graph")
    if h > g.min_degree:
        return ToleranceResult(h, model, 0, None, METHOD_THEOREM)
    levels, record, group = _tolerance_cached(g, model)
    while len(levels) <= h:
        size, scenario = len(levels), ()
        if model is DiagModel.PMC:
            value, scenario = _pmc_tolerance(g, size)
        elif size:
            value, scenario = _scenario_sweep(g, size, model, levels[-1].value, record, group)
        else:
            value = diagnosability(g, model)
        levels.append(ToleranceResult(size, model, value, scenario, METHOD_BRUTE))
    return levels[h]


@lru_cache(maxsize=4096)
def _tolerance_cached(g: Graph, model: DiagModel) -> Tuple[List[ToleranceResult], dict, list]:
    return [], {}, []  # the profile of (g, model), extended by edge_tolerable_diagnosability


class Facts:
    """What the theorem hypotheses read about one graph.

    n, delta and regularity come with the graph; kappa, C(G) and the
    family recognition are computed on first use and then kept, so one
    ``Facts`` serves every budget and model, and the PMC rules, which
    never ask for the recognition, never run the recognizer.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.n
        self.delta = g.min_degree
        self.regular = g.is_regular

    @cached_property
    def kappa(self) -> int:
        return _kappa_value(self.g)

    @cached_property
    def common(self) -> int:
        """C(G), the most neighbors two vertices share; -1 below two vertices."""
        return max_common_neighbors(self.g).value if self.n >= 2 else -1

    @cached_property
    def recognition(self) -> RecognitionResult:
        return recognize_exceptional(self.g)

    @property
    def shortcut(self) -> bool:
        return common_neighbor_shortcut(self.delta, self.common)

    @property
    def excluded(self) -> bool:
        """G outside the exceptional family (the recognizer applies the
        common-neighbor shortcut itself)."""
        return not self.recognition.member


# A hypothesis atom maps (facts, h) to (condition text, holds).  X names
# kappa, delta, or k, the degree of a regular graph (its minimum degree).
Atom = Callable[[Facts, Optional[int]], Tuple[str, bool]]
_SYMBOL = {"kappa": lambda f: f.kappa, "delta": lambda f: f.delta, "k": lambda f: f.delta}


def _h_at_most(x: str) -> Atom:
    def atom(f, h):
        value = _SYMBOL[x](f)
        return f"h={h} <= {x}={value}", h <= value
    return atom


def _order(x: str, s: int) -> Atom:
    def atom(f, h):
        bound = 2 * (_SYMBOL[x](f) - h) + s
        return f"|V|={f.n} >= 2*({x}-h)+{s}={bound}", f.n >= bound
    return atom


def _at_least(x: str, k: int) -> Atom:
    def atom(f, h):
        value = _SYMBOL[x](f)
        return f"{x}={value} >= {k}", value >= k
    return atom


def _h_within_half(x: str) -> Atom:
    def atom(f, h):
        half = (_SYMBOL[x](f) - 1) // 2
        return f"h={h} <= floor(({x}-1)/2)={half}", h <= half
    return atom


def _connected(f: Facts, h: Optional[int]) -> Tuple[str, bool]:
    return "graph is connected", f.kappa >= 1


def _maximally_connected(f: Facts, h: Optional[int]) -> Tuple[str, bool]:
    return f"maximally connected (kappa={f.kappa}, delta={f.delta})", f.kappa == f.delta


def _regular(f: Facts, h: Optional[int]) -> Tuple[str, bool]:
    return "graph is regular", f.regular


def _kappa_is_degree(f: Facts, h: Optional[int]) -> Tuple[str, bool]:
    return f"kappa={f.kappa} equals the degree {f.delta}", f.kappa == f.delta


def _shortcut(f: Facts, h: Optional[int]) -> Tuple[str, bool]:
    return f"common-neighbor shortcut (C={f.common}, delta={f.delta})", f.shortcut


def _outside_family(f: Facts, h: Optional[int]) -> Tuple[str, bool]:
    return "graph is outside the exceptional family", f.excluded


_H_AT_MOST_DELTA = _h_at_most("delta")


class Theorem(NamedTuple):
    """One result of the paper: when every hypothesis holds, the tolerable
    diagnosability at budget h stands in ``relation`` to ``value``."""

    rule: str
    claim: str
    model: Optional[DiagModel]  # None: both models
    hypotheses: Tuple[Atom, ...]
    value: Callable[[Facts, int], int]
    relation: str  # "<=", ">=" or "=="


THEOREMS = (
    Theorem("min_degree_upper", "min_degree_upper_bound", None,
            (_connected, _H_AT_MOST_DELTA), lambda f, h: f.delta - h, "<="),
    Theorem("pmc_lower", "pmc_lower_bound", DiagModel.PMC,
            (_h_at_most("kappa"), _order("kappa", 1)), lambda f, h: f.kappa - h, ">="),
    Theorem("pmc_exact", "pmc_exact_value", DiagModel.PMC,
            (_maximally_connected, _H_AT_MOST_DELTA, _order("delta", 1)), lambda f, h: f.delta - h, "=="),
    Theorem("mm_lower", "mm_lower_bound", DiagModel.MMSTAR,
            (_at_least("kappa", 3), _order("kappa", 3), _h_within_half("kappa"), _outside_family),
            lambda f, h: f.kappa - h, ">="),
    Theorem("mm_exact", "mm_exact_value", DiagModel.MMSTAR,
            (_maximally_connected, _at_least("delta", 3), _order("delta", 3), _h_within_half("delta"),
             _outside_family),
            lambda f, h: f.delta - h, "=="),
    Theorem("pmc_regular_exact", "pmc_regular_exact", DiagModel.PMC,
            (_regular, _kappa_is_degree, _order("k", 1), _h_at_most("k")), lambda f, h: f.delta - h, "=="),
    Theorem("mm_regular_exact", "mm_regular_exact", DiagModel.MMSTAR,
            (_regular, _kappa_is_degree, _at_least("k", 3), _order("k", 3), _h_within_half("k")),
            lambda f, h: f.delta - h, "=="),
    Theorem("mm_common_neighbor_exact", "mm_common_neighbor_exact", DiagModel.MMSTAR,
            (_maximally_connected, _shortcut, _order("delta", 3), _h_within_half("delta")),
            lambda f, h: f.delta - h, "=="),
)
_BOUND_THEOREMS = THEOREMS[:5]  # the rules theoretical_bounds applies


def _family_rows(f: Facts) -> List[BoundCondition]:
    return [
        BoundCondition(
            "family_shortcut",
            f"common-neighbor shortcut excludes membership (C(G)={f.common}, delta={f.delta})",
            f.shortcut,
        ),
        BoundCondition("family_exclusion", "graph is outside the exceptional family", f.excluded),
    ]


def theoretical_bounds(g: Graph, h: int, model: DiagModel, *, facts: Optional[Facts] = None) -> BoundReport:
    """Evaluate the applicable theorems at budget h and report bounds.

    Applies the first five rows of ``THEOREMS``, the table ``verify``
    checks, in order; a rule whose hypotheses all hold sets its bound, a
    later exact rule overriding an earlier one.  Every hypothesis is
    reported as a pass/fail row, except h <= delta, which the isolation
    rule covers, and family exclusion, which the ``family_shortcut`` and
    ``family_exclusion`` rows state once.  The lower-bound rules are
    instantiated at t = kappa(G), the strongest provable choice.  A caller
    evaluating several budgets passes one ``facts`` for the graph.
    """
    _check_model(model)
    if h < 0:
        raise GraphError(f"edge budget must be nonnegative, got {h}")
    if g.n == 0:
        raise GraphError("bounds are undefined for the empty graph")
    f = facts if facts is not None else Facts(g)
    if h >= f.delta:
        conditions = (
            BoundCondition("isolation", f"budget h={h} >= delta={f.delta} allows isolating a vertex", True),
        )
        return BoundReport(0, "isolation", 0, "isolation", 0, conditions)
    conditions: List[BoundCondition] = []
    lower = lower_rule = upper = upper_rule = exact = None
    family_stated = False
    for theorem in _BOUND_THEOREMS:
        if theorem.model not in (None, model):
            continue
        if _outside_family in theorem.hypotheses and not family_stated:
            conditions.extend(_family_rows(f))
            family_stated = True
        applies = True
        for atom in theorem.hypotheses:
            text, holds = atom(f, h)
            applies = applies and holds
            if atom is not _H_AT_MOST_DELTA and atom is not _outside_family:
                conditions.append(BoundCondition(theorem.rule, text, holds))
        if not applies:
            continue
        value = theorem.value(f, h)
        if theorem.relation != "<=":
            lower, lower_rule = value, theorem.rule
        if theorem.relation != ">=":
            upper, upper_rule = value, theorem.rule
        if theorem.relation == "==":
            exact = value
    if model is DiagModel.MMSTAR and lower is None:
        if not all(c.holds for c in conditions if c.rule == "mm_lower"):
            conditions.append(BoundCondition("mm_lower", "no lower-bound rule applies at this budget", False))
    if exact is None and lower is not None and upper is not None and lower == upper:
        exact = lower
    return BoundReport(lower, lower_rule, upper, upper_rule, exact, tuple(conditions))
