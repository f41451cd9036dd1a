"""Theorem-checking harness: every claim versus the brute-force oracle.

Every claim is one row of ``CLAIMS``: its name and models, hypothesis
atoms over the graph's ``Facts``, an oracle, and the value and relation
it asserts.  The eight rows of ``tolerance.THEOREMS``, the table
``analyze`` applies, are swept over the edge budget h against the
exhaustive tolerable diagnosability; six more are checked once per
graph: the classical PMC and MM* regular-graph bounds against
``diagnosability``, connectivity under seeded edge deletions, and three
structural facts of the exceptional family.  ``check_claim`` runs every
row through one loop over models and budgets.  Hypotheses are evaluated
from exact module outputs (connectivity, common neighbors, family
recognition), never from generator labels, so the harness also catches
generator bugs.  Rows whose hypotheses fail are recorded as
hypothesis_not_met, never silently skipped; rows whose oracle cost
exceeds the budget are recorded as budget_exceeded.  Failing rows embed
a reproduction recipe (graph6 serialization plus the claim parameters).
"""

from __future__ import annotations

import operator
import random
from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .connectivity import _kappa_value
from .diagnosis import DiagModel, diagnosability
from .families import (
    complete,
    complete_bipartite,
    circulant,
    hypercube,
    petersen,
    prism,
    random_gamma,
    random_t_connected,
    wheel,
)
from .formats import emit_graph6
from .graphs import Graph, delete_edges
from .tolerance import (
    THEOREMS,
    Atom,
    Facts,
    _at_least,
    _connected,
    _kappa_is_degree,
    _regular,
    edge_tolerable_diagnosability,
)

PASS = "pass"
FAIL = "fail"
NOT_MET = "hypothesis_not_met"
BLOCKED = "budget_exceeded"

CLAIM_UPPER = "min_degree_upper_bound"
CLAIM_CONN_DEL = "connectivity_under_edge_deletion"
CLAIM_FAM_IRREGULAR = "family_irregularity"


class Budget(NamedTuple):
    max_n: int = 16
    max_scenarios: int = 8192
    connectivity_trials_per_graph: int = 8
    seed: int = 20250810


class ClaimRow(NamedTuple):
    graph_name: str
    claim: str
    model: Optional[str]
    h: Optional[int]
    hypotheses: Tuple[Tuple[str, bool], ...]
    oracle: Optional[int]
    expected: Optional[int]
    relation: Optional[str]
    verdict: str
    recipe: Tuple[Tuple[str, str], ...]


class FamilyObservation(NamedTuple):
    graph_name: str
    family_index: int
    delta: int
    mm_diagnosability: int
    dropped_below_delta: bool


class CorpusEntry(NamedTuple):
    name: str
    graph: Graph


class VerificationReport(NamedTuple):
    rows: Tuple[ClaimRow, ...]
    observations: Tuple[FamilyObservation, ...]
    corpus: Tuple[Tuple[str, str], ...]  # (name, graph6)

    @property
    def summary(self) -> Dict[str, int]:
        counts = {PASS: 0, FAIL: 0, NOT_MET: 0, BLOCKED: 0}
        for row in self.rows:
            counts[row.verdict] += 1
        return counts

    def to_json_dict(self) -> dict:
        return {
            "summary": self.summary,
            "rows": [
                {
                    "graph": r.graph_name,
                    "claim": r.claim,
                    **({"model": r.model} if r.model else {}),
                    **({"h": r.h} if r.h is not None else {}),
                    "hypotheses": [
                        {"condition": c, "holds": ok} for c, ok in r.hypotheses
                    ],
                    **({"oracle": r.oracle} if r.oracle is not None else {}),
                    **({"expected": r.expected} if r.expected is not None else {}),
                    **({"relation": r.relation} if r.relation else {}),
                    "verdict": r.verdict,
                    **({"recipe": dict(r.recipe)} if r.recipe else {}),
                }
                for r in self.rows
            ],
            "observations": [
                {
                    "graph": o.graph_name,
                    "family_index": o.family_index,
                    "delta": o.delta,
                    "mm_diagnosability": o.mm_diagnosability,
                    "dropped_below_delta": o.dropped_below_delta,
                }
                for o in self.observations
            ],
            "corpus": [{"name": name, "graph6": g6} for name, g6 in self.corpus],
        }

    def to_table(self) -> str:
        lines = []
        head = f"{'graph':<18} {'claim':<34} {'model':<6} {'h':>2}  verdict"
        lines.append(head)
        lines.append("-" * len(head))
        for r in self.rows:
            model = r.model or "-"
            h = "-" if r.h is None else str(r.h)
            detail = ""
            if r.oracle is not None and r.expected is not None:
                detail = f"  [oracle {r.oracle} {r.relation} {r.expected}]"
            lines.append(
                f"{r.graph_name:<18} {r.claim:<34} {model:<6} {h:>2}  {r.verdict}{detail}"
            )
            for condition, ok in r.hypotheses:
                mark = "ok" if ok else "NO"
                lines.append(f"{'':<18}   [{mark}] {condition}")
        counts = self.summary
        lines.append("-" * len(head))
        lines.append(
            "summary: "
            + ", ".join(f"{k}={v}" for k, v in counts.items())
        )
        return "\n".join(lines) + "\n"


def default_corpus() -> Tuple[CorpusEntry, ...]:
    """The deterministic graph corpus the suite runs on by default."""
    entries: List[CorpusEntry] = [
        CorpusEntry("hypercube-3", hypercube(3)),
        CorpusEntry("hypercube-4", hypercube(4)),
        CorpusEntry("petersen", petersen()),
        CorpusEntry("complete-5", complete(5)),
        CorpusEntry("complete-6", complete(6)),
        CorpusEntry("bipartite-3-3", complete_bipartite(3, 3)),
        CorpusEntry("bipartite-4-4", complete_bipartite(4, 4)),
        CorpusEntry("prism-5", prism(5)),
        CorpusEntry("circulant-8-1-2", circulant(8, (1, 2))),
        # odd wheel: irregular, maximally connected, outside the family
        CorpusEntry("wheel-9", wheel(9)),
    ]
    for family in (1, 2, 3, 4, 5):
        for tag, seed in (("a", 101), ("b", 102), ("c", 103)):
            _, g = random_gamma(family, 3, seed=seed)
            entries.append(CorpusEntry(f"gamma{family}-{tag}", g))
    for name, n, t, seed in (
        ("random-3conn-9-a", 9, 3, 301),
        ("random-3conn-10-b", 10, 3, 302),
        ("random-3conn-11-c", 11, 3, 303),
        ("random-4conn-10-d", 10, 4, 304),
        ("random-4conn-12-e", 12, 4, 305),
    ):
        entries.append(CorpusEntry(name, random_t_connected(n, t, seed)))
    return tuple(entries)


def _recipe(entry: CorpusEntry, model: Optional[DiagModel], h: Optional[int]) -> Tuple[Tuple[str, str], ...]:
    items = [("graph6", emit_graph6(entry.graph)), ("graph", entry.name)]
    if model is not None:
        items.append(("model", model.value))
    if h is not None:
        items.append(("h", str(h)))
    return tuple(items)


def _row(entry, claim, model, h, hypotheses, oracle, expected, relation, verdict):
    recipe = ()
    if verdict == FAIL:
        recipe = _recipe(entry, model, h)
        if model is not None and h is not None:
            # attach the witnessing scenario so the row replays standalone
            result = edge_tolerable_diagnosability(entry.graph, h, model)
            if result.worst_scenario is not None:
                recipe += (
                    ("worst_scenario", " ".join(f"{u}-{v}" for u, v in result.worst_scenario)),
                )
    model_name = model.value if model is not None else None
    return ClaimRow(entry.name, claim, model_name, h, hypotheses, oracle, expected, relation, verdict, recipe)


# Oracles map (entry, facts, model, h, budget) to the measured value, or
# None when the budget rules the row out.


def _tolerance(entry, facts, model, h, budget) -> Optional[int]:
    """Tolerable diagnosability at budget h via the exhaustive path."""
    g = entry.graph
    if g.n > budget.max_n:
        return None
    if model is DiagModel.MMSTAR and h <= g.min_degree and comb(g.m, h) > budget.max_scenarios:
        return None
    return edge_tolerable_diagnosability(g, h, model).value


def _diagnosability(entry, facts, model, h, budget) -> Optional[int]:
    return diagnosability(entry.graph, model) if entry.graph.n <= budget.max_n else None


def _deletion_violations(entry, facts, model, h, budget) -> int:
    """How many seeded deletions of at most kappa edges lowered kappa by
    more than the number of edges deleted.

    Each trial asks only whether kappa(G - S) reaches kappa - |S|, so the
    connectivity search is capped there, and a trial that deletes kappa
    edges needs none: connectivity is never negative."""
    g, kappa = entry.graph, facts.kappa
    rng = random.Random(f"{budget.seed}-{entry.name}-edge-deletion")
    violations = 0
    for _ in range(budget.connectivity_trials_per_graph):
        scenario = rng.sample(list(g.edges), min(rng.randrange(0, kappa + 1), g.m))
        need = kappa - len(scenario)
        if need > 0:
            violations += _kappa_value(delete_edges(g, scenario), need) < need
    return violations


# The budgets a claim is checked at, from the per-graph sweep.
def _once(facts, sweep):
    return (None,)


def _sweep(facts, sweep):
    return sweep


def _sweep_to_delta(facts, sweep):
    return sorted(set(sweep) | {facts.delta})


def _member(f: Facts, h: Optional[int]) -> Tuple[str, bool]:
    return "graph recognized as an exceptional-family member", f.recognition.member


def _pmc_order(f: Facts, h: Optional[int]) -> Tuple[str, bool]:
    return f"|V|={f.n} >= 2*kappa+1={2 * f.kappa + 1}", f.n >= 2 * f.kappa + 1


def _degree_above_2(f: Facts, h: Optional[int]) -> Tuple[str, bool]:
    return f"degree {f.delta} > 2", f.delta > 2


def _mm_order(f: Facts, h: Optional[int]) -> Tuple[str, bool]:
    return f"|V|={f.n} >= 2*{f.delta}+3={2 * f.delta + 3}", f.n >= 2 * f.delta + 3


class Claim(NamedTuple):
    """One checked claim: for each model and budget h, when every
    hypothesis holds, the oracle's value stands in ``relation`` to
    ``value``."""

    name: str
    models: Tuple[Optional[DiagModel], ...]  # (None,): the claim names no model
    hypotheses: Tuple[Atom, ...]
    oracle: Callable[..., Optional[int]]
    value: Callable[[Facts, Optional[int]], int]
    relation: str  # "<=", ">=" or "=="
    budgets: Callable[[Facts, Sequence[int]], Sequence[Optional[int]]] = _once


CLAIMS = tuple(
    # the upper bound is swept on to h = delta, where isolating a vertex attains it
    Claim(t.claim, (t.model,) if t.model else (DiagModel.PMC, DiagModel.MMSTAR), t.hypotheses,
          _tolerance, t.value, t.relation, _sweep_to_delta if t.claim == CLAIM_UPPER else _sweep)
    for t in THEOREMS
) + (
    Claim(CLAIM_CONN_DEL, (None,), (_connected,), _deletion_violations, lambda f, h: 0, "=="),
    Claim(CLAIM_FAM_IRREGULAR, (None,), (_member,), lambda e, f, m, h, b: int(not f.regular),
          lambda f, h: 1, "=="),
    Claim("family_common_neighbors", (None,), (_member,), lambda e, f, m, h, b: f.common,
          lambda f, h: f.delta - 1, ">="),
    Claim("family_common_neighbors_delta4", (None,), (_member, _at_least("delta", 4)),
          lambda e, f, m, h, b: f.common, lambda f, h: f.delta, ">="),
    # Hakimi-Amin: a kappa-connected graph on at least 2*kappa+1 vertices is kappa-diagnosable
    Claim("pmc_connected_diagnosability", (DiagModel.PMC,), (_at_least("kappa", 2), _pmc_order),
          _diagnosability, lambda f, h: f.kappa, ">="),
    # a k-regular, k-connected graph on at least 2k+3 vertices, k > 2, is k-diagnosable under MM*
    Claim("mm_regular_diagnosability", (DiagModel.MMSTAR,),
          (_regular, _kappa_is_degree, _degree_above_2, _mm_order),
          _diagnosability, lambda f, h: f.delta, ">="),
)
ALL_CLAIMS = tuple(claim.name for claim in CLAIMS)
_CLAIM_BY_NAME = dict(zip(ALL_CLAIMS, CLAIMS))
_HOLDS = {"==": operator.eq, ">=": operator.ge, "<=": operator.le}


def check_claim(
    entry: CorpusEntry,
    facts: Facts,
    claim: str,
    budget: Budget,
    h_sweep: Sequence[int],
) -> List[ClaimRow]:
    """The rows of one claim on one graph, one per model and budget."""
    spec = _CLAIM_BY_NAME[claim]
    rows = []
    for model in spec.models:
        for h in spec.budgets(facts, h_sweep):
            hypotheses = tuple(atom(facts, h) for atom in spec.hypotheses)
            oracle = expected = relation = None
            verdict = NOT_MET
            if all(ok for _, ok in hypotheses):
                oracle = spec.oracle(entry, facts, model, h, budget)
                verdict = BLOCKED
            if oracle is not None:
                expected, relation = spec.value(facts, h), spec.relation
                if relation == "<=" and expected == 0:
                    relation = "=="  # diagnosability is never negative: a bound of 0 is attained
                verdict = PASS if _HOLDS[relation](oracle, expected) else FAIL
            rows.append(_row(entry, claim, model, h, hypotheses, oracle, expected, relation, verdict))
    return rows


def run_suite(
    corpus: Optional[Sequence[CorpusEntry]] = None,
    claims: Optional[Sequence[str]] = None,
    budget: Optional[Budget] = None,
    *,
    h_max: int = 3,
) -> VerificationReport:
    """Run the selected claims over the corpus and report a verdict ledger.

    The per-graph budget sweep is h = 0..min(delta, h_max), mirroring the
    brute-force cost profile; rows are sorted by (graph, claim, h, model)
    so reports are deterministic regardless of execution order.
    """
    corpus = tuple(corpus) if corpus is not None else default_corpus()
    claim_list = tuple(claims) if claims is not None else ALL_CLAIMS
    for claim in claim_list:
        if claim not in ALL_CLAIMS:
            raise ValueError(f"unknown claim {claim!r}")
    if len(set(claim_list)) < len(claim_list):
        raise ValueError(f"repeated claim in {claim_list!r}")
    budget = budget or Budget()
    rows: List[ClaimRow] = []
    observations: List[FamilyObservation] = []
    for entry in corpus:
        facts = Facts(entry.graph)
        h_sweep = list(range(0, min(facts.delta, h_max) + 1))
        for claim in claim_list:
            rows.extend(check_claim(entry, facts, claim, budget, h_sweep))
        if facts.recognition.member and entry.graph.n <= budget.max_n:
            mm_t = diagnosability(entry.graph, DiagModel.MMSTAR)
            observations.append(
                FamilyObservation(entry.name, facts.recognition.index, facts.delta, mm_t, mm_t < facts.delta)
            )
    rows.sort(key=lambda r: (r.graph_name, r.claim, r.h if r.h is not None else -1, r.model or ""))
    observations.sort(key=lambda o: o.graph_name)
    corpus_meta = tuple((e.name, emit_graph6(e.graph)) for e in corpus)
    return VerificationReport(tuple(rows), tuple(observations), corpus_meta)
