"""Theorem-checking harness: every claim versus the brute-force oracle.

Each claim pairs a hypothesis checklist with an asserted value or bound.
The claims swept over the edge budget h are the rows of
``tolerance.THEOREMS``, the table ``analyze`` applies.
Hypotheses are evaluated from exact module outputs (connectivity, degree
profile, common neighbors, family recognition), never from generator
labels, so the harness also catches generator bugs.  Rows whose
hypotheses fail are recorded as hypothesis_not_met, never silently
skipped; rows whose oracle cost exceeds the budget are recorded as
budget_exceeded.  Failing rows embed a reproduction recipe (graph6
serialization plus the claim parameters).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

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
from .graphs import Graph, delete_edges
from .tolerance import THEOREMS, Facts, _connected, _kappa_is_degree, _regular, edge_tolerable_diagnosability

PASS = "pass"
FAIL = "fail"
NOT_MET = "hypothesis_not_met"
BLOCKED = "budget_exceeded"

CLAIM_PMC_LOWER = "pmc_lower_bound"
CLAIM_PMC_EXACT = "pmc_exact_value"
CLAIM_MM_LOWER = "mm_lower_bound"
CLAIM_MM_EXACT = "mm_exact_value"
CLAIM_UPPER = "min_degree_upper_bound"
CLAIM_CONN_DEL = "connectivity_under_edge_deletion"
CLAIM_FAM_IRREGULAR = "family_irregularity"
CLAIM_FAM_CN = "family_common_neighbors"
CLAIM_FAM_CN4 = "family_common_neighbors_delta4"
CLAIM_PMC_ZERO = "pmc_connected_diagnosability"
CLAIM_MM_ZERO = "mm_regular_diagnosability"
CLAIM_PMC_REG = "pmc_regular_exact"
CLAIM_MM_REG = "mm_regular_exact"
CLAIM_MM_CN = "mm_common_neighbor_exact"

ALL_CLAIMS = (
    CLAIM_PMC_LOWER,
    CLAIM_PMC_EXACT,
    CLAIM_MM_LOWER,
    CLAIM_MM_EXACT,
    CLAIM_UPPER,
    CLAIM_CONN_DEL,
    CLAIM_FAM_IRREGULAR,
    CLAIM_FAM_CN,
    CLAIM_FAM_CN4,
    CLAIM_PMC_ZERO,
    CLAIM_MM_ZERO,
    CLAIM_PMC_REG,
    CLAIM_MM_REG,
    CLAIM_MM_CN,
)


@dataclass(frozen=True)
class Budget:
    max_n: int = 16
    max_scenarios: int = 8192
    connectivity_trials_per_graph: int = 8
    seed: int = 20250810


@dataclass(frozen=True)
class ClaimRow:
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


@dataclass(frozen=True)
class FamilyObservation:
    graph_name: str
    family_index: int
    delta: int
    mm_diagnosability: int
    dropped_below_delta: bool


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    graph: Graph


@dataclass(frozen=True)
class VerificationReport:
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
    from .formats import emit_graph6

    items = [("graph6", emit_graph6(entry.graph)), ("graph", entry.name)]
    if model is not None:
        items.append(("model", model.value))
    if h is not None:
        items.append(("h", str(h)))
    return tuple(items)


def _oracle_value(entry: CorpusEntry, h: int, model: DiagModel, budget: Budget):
    """Tolerable diagnosability via the exhaustive path, or None when the
    budget rules the row out."""
    g = entry.graph
    if g.n > budget.max_n:
        return None
    if model is DiagModel.MMSTAR and h <= g.min_degree:
        if comb(g.m, min(h, g.m)) > budget.max_scenarios:
            return None
    return edge_tolerable_diagnosability(g, h, model).value


def _row(entry, claim, model, h, hypotheses, oracle, expected, relation, verdict):
    recipe = ()
    if verdict == FAIL:
        recipe = _recipe(entry, model, h)
        if model is not None and h is not None and h <= entry.graph.min_degree:
            # attach the witnessing scenario so the row replays standalone
            result = edge_tolerable_diagnosability(entry.graph, h, model)
            if result.worst_scenario is not None:
                recipe += (
                    ("worst_scenario", " ".join(f"{u}-{v}" for u, v in result.worst_scenario)),
                )
    return ClaimRow(
        graph_name=entry.name,
        claim=claim,
        model=model.value if model is not None else None,
        h=h,
        hypotheses=tuple(hypotheses),
        oracle=oracle,
        expected=expected,
        relation=relation,
        verdict=verdict,
        recipe=recipe,
    )


def _judge(oracle: int, expected: int, relation: str) -> str:
    if relation == "==":
        return PASS if oracle == expected else FAIL
    if relation == ">=":
        return PASS if oracle >= expected else FAIL
    if relation == "<=":
        return PASS if oracle <= expected else FAIL
    raise ValueError(relation)


def _bound_rows(entry, facts, theorem, budget, h_values):
    rows = []
    for model in (theorem.model,) if theorem.model else (DiagModel.PMC, DiagModel.MMSTAR):
        for h in h_values:
            hypotheses = tuple(atom(facts, h) for atom in theorem.hypotheses)
            if not all(ok for _, ok in hypotheses):
                rows.append(_row(entry, theorem.claim, model, h, hypotheses, None, None, None, NOT_MET))
                continue
            oracle = _oracle_value(entry, h, model, budget)
            if oracle is None:
                rows.append(_row(entry, theorem.claim, model, h, hypotheses, None, None, None, BLOCKED))
                continue
            expected = theorem.value(facts, h)
            relation = theorem.relation
            if relation == "<=" and expected == 0:
                relation = "=="  # diagnosability is never negative: a bound of 0 is attained
            verdict = _judge(oracle, expected, relation)
            rows.append(_row(entry, theorem.claim, model, h, hypotheses, oracle, expected, relation, verdict))
    return rows


def _family_hypothesis(facts: Facts) -> Tuple[Tuple[str, bool], ...]:
    return (("graph recognized as an exceptional-family member", facts.recognition.member),)


_THEOREM_OF_CLAIM = {theorem.claim: theorem for theorem in THEOREMS}


def check_claim(
    entry: CorpusEntry,
    facts: Facts,
    claim: str,
    budget: Budget,
    h_sweep: Sequence[int],
) -> List[ClaimRow]:
    g = entry.graph
    kappa, delta = facts.kappa, facts.delta

    theorem = _THEOREM_OF_CLAIM.get(claim)
    if theorem is not None:
        if claim == CLAIM_UPPER:
            # swept on to h = delta, where isolating a vertex attains the bound 0
            h_sweep = sorted(set(h_sweep) | {delta})
        return _bound_rows(entry, facts, theorem, budget, h_sweep)
    if claim == CLAIM_CONN_DEL:
        hypotheses = (_connected(facts, None),)
        if kappa < 1:
            return [_row(entry, claim, None, None, hypotheses, None, None, None, NOT_MET)]
        rng = random.Random(f"{budget.seed}-{entry.name}-edge-deletion")
        violations = 0
        for _ in range(budget.connectivity_trials_per_graph):
            size = rng.randrange(0, kappa + 1)
            size = min(size, g.m)
            scenario = rng.sample(list(g.edges), size)
            if _kappa_value(delete_edges(g, scenario)) < kappa - size:
                violations += 1
        verdict = PASS if violations == 0 else FAIL
        return [_row(entry, claim, None, None, hypotheses, violations, 0, "==", verdict)]
    if claim == CLAIM_FAM_IRREGULAR:
        hypotheses = _family_hypothesis(facts)
        if not all(ok for _, ok in hypotheses):
            return [_row(entry, claim, None, None, hypotheses, None, None, None, NOT_MET)]
        verdict = PASS if not facts.regular else FAIL
        return [_row(entry, claim, None, None, hypotheses, int(not facts.regular), 1, "==", verdict)]
    if claim == CLAIM_FAM_CN:
        hypotheses = _family_hypothesis(facts)
        if not all(ok for _, ok in hypotheses):
            return [_row(entry, claim, None, None, hypotheses, None, None, None, NOT_MET)]
        verdict = PASS if facts.common >= delta - 1 else FAIL
        return [_row(entry, claim, None, None, hypotheses, facts.common, delta - 1, ">=", verdict)]
    if claim == CLAIM_FAM_CN4:
        hypotheses = _family_hypothesis(facts) + ((f"delta={delta} >= 4", delta >= 4),)
        if not all(ok for _, ok in hypotheses):
            return [_row(entry, claim, None, None, hypotheses, None, None, None, NOT_MET)]
        verdict = PASS if facts.common >= delta else FAIL
        return [_row(entry, claim, None, None, hypotheses, facts.common, delta, ">=", verdict)]
    if claim == CLAIM_PMC_ZERO:
        hypotheses = (
            (f"kappa={kappa} >= 2", kappa >= 2),
            (f"|V|={g.n} >= 2*kappa+1={2 * kappa + 1}", g.n >= 2 * kappa + 1),
        )
        if not all(ok for _, ok in hypotheses):
            return [_row(entry, claim, DiagModel.PMC, None, hypotheses, None, None, None, NOT_MET)]
        if g.n > budget.max_n:
            return [_row(entry, claim, DiagModel.PMC, None, hypotheses, None, None, None, BLOCKED)]
        oracle = diagnosability(g, DiagModel.PMC)
        verdict = PASS if oracle >= kappa else FAIL
        return [_row(entry, claim, DiagModel.PMC, None, hypotheses, oracle, kappa, ">=", verdict)]
    if claim == CLAIM_MM_ZERO:
        k = delta
        hypotheses = (
            _regular(facts, None),
            _kappa_is_degree(facts, None),
            (f"degree {k} > 2", k > 2),
            (f"|V|={g.n} >= 2*{k}+3={2 * k + 3}", g.n >= 2 * k + 3),
        )
        if not all(ok for _, ok in hypotheses):
            return [_row(entry, claim, DiagModel.MMSTAR, None, hypotheses, None, None, None, NOT_MET)]
        if g.n > budget.max_n:
            return [_row(entry, claim, DiagModel.MMSTAR, None, hypotheses, None, None, None, BLOCKED)]
        oracle = diagnosability(g, DiagModel.MMSTAR)
        verdict = PASS if oracle >= k else FAIL
        return [_row(entry, claim, DiagModel.MMSTAR, None, hypotheses, oracle, k, ">=", verdict)]
    raise ValueError(f"unknown claim {claim!r}")


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
    from .formats import emit_graph6

    corpus = tuple(corpus) if corpus is not None else default_corpus()
    claim_list = tuple(claims) if claims is not None else ALL_CLAIMS
    for claim in claim_list:
        if claim not in ALL_CLAIMS:
            raise ValueError(f"unknown claim {claim!r}")
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
                FamilyObservation(
                    entry.name,
                    facts.recognition.index,
                    facts.delta,
                    mm_t,
                    mm_t < facts.delta,
                )
            )
    rows.sort(key=lambda r: (r.graph_name, r.claim, r.h if r.h is not None else -1, r.model or ""))
    observations.sort(key=lambda o: o.graph_name)
    corpus_meta = tuple((e.name, emit_graph6(e.graph)) for e in corpus)
    return VerificationReport(tuple(rows), tuple(observations), corpus_meta)
