"""Edge-fault tolerable diagnosability and the theorem-based bound calculator.

The tolerable diagnosability at edge budget h is the minimum
diagnosability over all graphs obtained by deleting at most h edges.
Deleting edges never creates a distinguishing structure, so the minimum
is attained at scenarios of size exactly min(h, |E|); the scenario sweep
enumerates those.

Under PMC the per-scenario loop can be folded away exactly: a candidate
pair becomes indistinguishable after deleting F_e iff F_e covers every
edge between the outside region and the symmetric difference D, so the
worst scenario for a pair costs exactly the number of such edges.  A
depth-first search over D, trading each neighbor of D between the union
and the deleted edges, therefore yields the whole value table for every
budget at once.  The scenario sweep remains the oracle the folded table
is tested against, and is the production path for MM*.

An automorphism sigma of G makes G - F and G - sigma(F) isomorphic, so
the sweep visits only the lexicographically first scenario of each
orbit; asymmetric graphs sweep every scenario.  With jobs > 1 those
representatives go to worker processes and are reduced by (value,
scenario), so results do not depend on the worker count.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import List, Optional, Tuple

from .connectivity import _kappa_value, max_common_neighbors
from .diagnosis import DiagModel, diagnosability, diagnosability_cap, is_t_diagnosable
from .graphs import Edge, Graph, GraphError, automorphism_generators, bits_of, delete_edges, normalize_edge

METHOD_BRUTE = "brute_force"
METHOD_THEOREM = "theorem"


@dataclass(frozen=True)
class ToleranceResult:
    h: int
    model: DiagModel
    value: int
    worst_scenario: Optional[Tuple[Edge, ...]]
    method: str


@dataclass(frozen=True)
class BoundCondition:
    rule: str
    description: str
    holds: bool


@dataclass(frozen=True)
class BoundReport:
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
    r = sum of the edges from each Out vertex to D.  The search therefore
    runs over D, extended in ascending vertex order, and for each D over
    every Out of cost at most delta (deleting more isolates a vertex).
    Any pair grown from D has threshold >= (|N[D]| - r) / 2 and |N[D]|
    only grows with D, so a branch stops once |N[D]| exceeds
    2 * thresholds[r] + r for every r.

    Returns (thresholds, scenarios): thresholds[r] is the minimum breaking
    threshold over pairs whose outside-to-D edge set has size r <= delta,
    and scenarios[r] is that edge set for the first such pair in the order
    of a scan over every U (size ascending, then lexicographic U, then
    ascending D).
    """
    n = g.n
    delta = g.min_degree
    adj = g.adj_masks
    full = g.full_mask
    infinite = n + 2
    best = [infinite] * (delta + 1)
    witness: list = [None] * (delta + 1)
    limit = n  # |N[D]| <= n, so nothing is cut before the first pairs
    stack = [(1 << v, v) for v in range(n - 1, -1, -1)]
    while stack:
        d_mask, top = stack.pop()
        closed = d_mask
        for v in bits_of(d_mask):
            closed |= adj[v]
        if closed.bit_count() > limit:
            continue
        base = closed.bit_count() - (d_mask.bit_count() >> 1)
        outs = [(0, 0, 0)]  # (Out, |Out|, edges from Out to D)
        for x in bits_of(closed ^ d_mask):
            e = (adj[x] & d_mask).bit_count()
            outs += [(o | 1 << x, k + 1, r + e) for o, k, r in outs if r + e <= delta]
        for out, k, r in outs:
            threshold = base - k
            if threshold > best[r]:
                continue
            u_mask = closed ^ out
            if threshold == best[r]:
                u_old, d_old = witness[r]
                grow = u_mask.bit_count() - u_old.bit_count()
                diff = u_mask ^ u_old
                later = not u_mask & diff & -diff if diff else d_mask > d_old
                if grow > 0 or grow == 0 and later:
                    continue  # not before it in U-scan order: |U|, lexicographic U, D
            best[r] = threshold
            witness[r] = (u_mask, d_mask)
        limit = max(2 * b + r for r, b in enumerate(best))
        for w in range(n - 1, top, -1):
            stack.append((d_mask | 1 << w, w))
    scenarios = []
    for u_mask, d_mask in witness:
        o_mask = full ^ u_mask
        cut = []
        for v in bits_of(d_mask):
            for w in bits_of(adj[v] & o_mask):
                cut.append((v, w) if v < w else (w, v))
        scenarios.append(tuple(sorted(cut)))
    return tuple(best), tuple(scenarios)


def _pmc_tolerance(g: Graph, h: int) -> Tuple[int, Tuple[Edge, ...]]:
    """Exact PMC value at budget h plus a canonical minimizing scenario.

    The scenario is the witness edge set of the first pair attaining the
    minimum, padded with the smallest non-member edges up to size
    min(h, |E|).  Deleting a superset of the witness edges keeps the pair
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
    size = min(h, g.m)
    if len(base) < size:
        chosen = set(base)
        for e in g.edges:
            if len(base) == size:
                break
            if e not in chosen:
                base.append(e)
                chosen.add(e)
    return value, tuple(sorted(base))


def _scenarios(g: Graph, size: int):
    return combinations(g.edges, size)


def _descend(g2: Graph, upper: int, model: DiagModel) -> int:
    """Exact diagnosability known to be strictly below ``upper``."""
    t = upper - 1
    while t > 0 and not is_t_diagnosable(g2, t, model).diagnosable:
        t -= 1
    return t


def _sweep_chunk(args) -> Tuple[int, Tuple[Edge, ...]]:
    g, chunk, model = args
    best = None
    for scenario in chunk:
        val = diagnosability(delete_edges(g, scenario), model)
        key = (val, scenario)
        if best is None or key < best:
            best = key
    return best


def _orbit_scenarios(g: Graph, size: int):
    """The first size-``size`` edge set of each automorphism orbit, in
    ``combinations(g.edges, size)`` order; each yielded bitmask over edge
    indices marks its orbit, closed under the generators, as seen."""
    gens = automorphism_generators(g) if 0 < size < g.m else ()  # else one scenario
    if not gens:
        yield from combinations(g.edges, size)
        return
    index = {e: i for i, e in enumerate(g.edges)}
    moves = [[index[normalize_edge(p[u], p[v])] for u, v in g.edges] for p in gens]
    seen = set()
    for combo in combinations(range(g.m), size):
        mask = sum(1 << i for i in combo)
        if mask in seen:
            continue
        yield tuple(g.edges[i] for i in combo)
        stack = [mask]
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack += [sum(1 << move[i] for i in bits_of(x)) for move in moves]


def _scenario_sweep(g: Graph, size: int, model: DiagModel, jobs: int) -> Tuple[int, Tuple[Edge, ...]]:
    """Minimum diagnosability over size-``size`` scenarios and the
    lexicographically first scenario attaining it.

    Every scenario of an orbit has the same value, so only each orbit's
    lexicographically first member is swept.  The first minimizing
    scenario overall is the first member of its own orbit, so a scan in
    lexicographic order that replaces its result only on a strictly
    smaller value returns the same pair as a sweep over every scenario.
    """
    if jobs > 1:
        scenarios = list(_orbit_scenarios(g, size))
        chunks = [scenarios[i::jobs] for i in range(jobs)]
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            results = pool.map(_sweep_chunk, [(g, c, model) for c in chunks if c])
        return min(r for r in results if r is not None)
    best_val: Optional[int] = None
    best_scenario: Tuple[Edge, ...] = ()
    for scenario in _orbit_scenarios(g, size):
        g2 = delete_edges(g, scenario)
        if best_val is None:
            best_val = diagnosability(g2, model)
            best_scenario = scenario
        else:
            if is_t_diagnosable(g2, best_val, model).diagnosable:
                continue  # at least as large as the current minimum
            best_val = _descend(g2, best_val, model)
            best_scenario = scenario
        if best_val == 0:
            break
    assert best_val is not None
    return best_val, best_scenario


def edge_tolerable_diagnosability(
    g: Graph, h: int, model: DiagModel, *, jobs: int = 1
) -> ToleranceResult:
    """Minimum diagnosability over all deletions of at most h edges.

    A budget above the minimum degree isolates a vertex, so the value is 0
    by theorem without enumeration; otherwise the result is exhaustive and
    carries the lexicographically smallest minimizing scenario of size
    min(h, |E|).
    """
    if h < 0:
        raise GraphError(f"edge budget must be nonnegative, got {h}")
    if g.n == 0:
        raise GraphError("tolerable diagnosability is undefined for the empty graph")
    result = _tolerance_cached(g, h, model, jobs if jobs > 1 else 1)
    return result


@lru_cache(maxsize=4096)
def _tolerance_cached(g: Graph, h: int, model: DiagModel, jobs: int) -> ToleranceResult:
    delta = g.min_degree
    if h > delta:
        return ToleranceResult(h, model, 0, None, METHOD_THEOREM)
    size = min(h, g.m)
    if model is DiagModel.PMC:
        value, scenario = _pmc_tolerance(g, h)
    else:
        value, scenario = _scenario_sweep(g, size, model, jobs)
    return ToleranceResult(h, model, value, tuple(scenario), METHOD_BRUTE)


def edge_tolerable_by_definition(g: Graph, h: int, model: DiagModel) -> int:
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
            for scenario in _scenarios(g, size):
                if not is_t_diagnosable(delete_edges(g, scenario), t, model).diagnosable:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
        value = t
    return value


def _family_exclusion(
    g: Graph, recognition, common: Optional[int]
) -> Tuple[List[BoundCondition], Optional[bool]]:
    """Decide G not-in exceptional-family(delta), preferring cheap criteria.

    Returns condition rows plus the exclusion verdict (True = surely not a
    member, False = member, None = undecided within the recognizer cap).
    ``common`` is C(G) when the caller already has it.  The common-neighbor
    shortcut is a sufficient exclusion test, checked before the structural
    recognizer runs.
    """
    from .families import common_neighbor_shortcut, recognize_exceptional

    rows: List[BoundCondition] = []
    delta = g.min_degree
    if g.n >= 2:
        c_value = common if common is not None else max_common_neighbors(g).value
        shortcut = common_neighbor_shortcut(delta, c_value)
        rows.append(
            BoundCondition(
                "family_shortcut",
                f"common-neighbor shortcut excludes membership (C(G)={c_value}, delta={delta})",
                shortcut,
            )
        )
        if shortcut:
            rows.append(BoundCondition("family_exclusion", "graph is outside the exceptional family", True))
            return rows, True
    recog = recognition if recognition is not None else recognize_exceptional(g)
    if recog.status == "cap_exceeded":
        rows.append(
            BoundCondition(
                "family_exclusion",
                "membership undecided: recognizer cap exceeded",
                False,
            )
        )
        return rows, None
    excluded = not recog.member
    rows.append(
        BoundCondition("family_exclusion", "graph is outside the exceptional family", excluded)
    )
    return rows, excluded


def theoretical_bounds(
    g: Graph,
    h: int,
    model: DiagModel,
    *,
    recognition=None,
    kappa: Optional[int] = None,
    common: Optional[int] = None,
) -> BoundReport:
    """Evaluate the applicable theorems at budget h and report bounds.

    Every hypothesis is checked against exact module outputs (connectivity,
    degrees, common neighbors, family recognition) and reported as a
    pass/fail row; bounds are emitted only from rules whose hypotheses all
    hold.  The lower-bound rules are instantiated at t = kappa(G), the
    strongest provable choice.  A caller evaluating several budgets passes
    ``recognition``, ``kappa`` and C(G) as ``common`` once computed; each
    is computed here when omitted.
    """
    if h < 0:
        raise GraphError(f"edge budget must be nonnegative, got {h}")
    if g.n == 0:
        raise GraphError("bounds are undefined for the empty graph")
    n = g.n
    delta = g.min_degree
    if kappa is None:
        kappa = _kappa_value(g)
    conditions: List[BoundCondition] = []
    lower = lower_rule = None
    upper = upper_rule = None
    exact = None

    if h >= delta:
        conditions.append(
            BoundCondition(
                "isolation",
                f"budget h={h} >= delta={delta} allows isolating a vertex",
                True,
            )
        )
        return BoundReport(0, "isolation", 0, "isolation", 0, tuple(conditions))

    connected = kappa >= 1
    conditions.append(BoundCondition("min_degree_upper", "graph is connected", connected))
    if connected:
        upper = delta - h
        upper_rule = "min_degree_upper"

    if model is DiagModel.PMC:
        c1 = h <= kappa
        c2 = n >= 2 * (kappa - h) + 1
        conditions.append(BoundCondition("pmc_lower", f"h={h} <= kappa={kappa}", c1))
        conditions.append(
            BoundCondition("pmc_lower", f"|V|={n} >= 2*(kappa-h)+1={2 * (kappa - h) + 1}", c2)
        )
        if c1 and c2:
            lower = kappa - h
            lower_rule = "pmc_lower"
        c3 = kappa == delta
        c4 = n >= 2 * (delta - h) + 1
        conditions.append(
            BoundCondition("pmc_exact", f"maximally connected (kappa={kappa}, delta={delta})", c3)
        )
        conditions.append(
            BoundCondition("pmc_exact", f"|V|={n} >= 2*(delta-h)+1={2 * (delta - h) + 1}", c4)
        )
        if c3 and c4:
            lower = upper = exact = delta - h
            lower_rule = upper_rule = "pmc_exact"
    else:
        family_rows, excluded = _family_exclusion(g, recognition, common)
        conditions.extend(family_rows)
        c1 = kappa >= 3
        c2 = n >= 2 * (kappa - h) + 3
        c3 = h <= (kappa - 1) // 2
        conditions.append(BoundCondition("mm_lower", f"kappa={kappa} >= 3", c1))
        conditions.append(
            BoundCondition("mm_lower", f"|V|={n} >= 2*(kappa-h)+3={2 * (kappa - h) + 3}", c2)
        )
        conditions.append(
            BoundCondition("mm_lower", f"h={h} <= floor((kappa-1)/2)={(kappa - 1) // 2}", c3)
        )
        if c1 and c2 and c3 and excluded:
            lower = kappa - h
            lower_rule = "mm_lower"
        c4 = kappa == delta
        c5 = delta >= 3
        c6 = n >= 2 * (delta - h) + 3
        c7 = h <= (delta - 1) // 2
        conditions.append(
            BoundCondition("mm_exact", f"maximally connected (kappa={kappa}, delta={delta})", c4)
        )
        conditions.append(BoundCondition("mm_exact", f"delta={delta} >= 3", c5))
        conditions.append(
            BoundCondition("mm_exact", f"|V|={n} >= 2*(delta-h)+3={2 * (delta - h) + 3}", c6)
        )
        conditions.append(
            BoundCondition("mm_exact", f"h={h} <= floor((delta-1)/2)={(delta - 1) // 2}", c7)
        )
        if c4 and c5 and c6 and c7 and excluded:
            lower = upper = exact = delta - h
            lower_rule = upper_rule = "mm_exact"
        if lower is None and not (c1 and c2 and c3):
            conditions.append(
                BoundCondition(
                    "mm_lower",
                    "no lower-bound rule applies at this budget",
                    False,
                )
            )

    if exact is None and lower is not None and upper is not None and lower == upper:
        exact = lower
    return BoundReport(lower, lower_rule, upper, upper_rule, exact, tuple(conditions))
