"""Acceptance criteria, one test per criterion, each printing a PASS line.

The heavy oracle values are memoized inside the library, so overlapping
criteria share work instead of recomputing it.
"""

import random
import time
from itertools import combinations
from math import comb

import pytest

from diagnoscope.connectivity import (
    is_connected,
    max_common_neighbors,
    vertex_connectivity,
)
from diagnoscope.diagnosis import DiagModel, diagnosability, is_t_diagnosable
from diagnoscope.families import (
    GammaSpec,
    complete_bipartite,
    hypercube,
    make_gamma,
    petersen,
    random_gamma,
    recognize_exceptional,
)
from diagnoscope.graphs import delete_edges
from diagnoscope.tolerance import edge_tolerable_diagnosability
from diagnoscope.verification import default_corpus, run_suite
from oracles import (
    delete_vertices,
    distinguishable_mm,
    edge_tolerable_by_definition,
    unique_decoding_everywhere,
)

PMC = DiagModel.PMC
MM = DiagModel.MMSTAR

FULL_SWEEP_LIMIT = 3000  # scenario count above which criterion 3 uses the witness route


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


def tolerable(g, h, model):
    return edge_tolerable_diagnosability(g, h, model).value


def announce(number, name, started):
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.time() - started:.1f}s]")


def test_criterion_1_pmc_equality():
    started = time.time()
    cases = [
        (hypercube(3), range(0, 4)),
        (hypercube(4), range(0, 4)),
        (petersen(), range(0, 3)),
        (complete_bipartite(3, 3), range(0, 3)),
    ]
    checked = 0
    for g, h_range in cases:
        delta = g.min_degree
        assert vertex_connectivity(g).kappa == delta
        for h in h_range:
            if g.n < 2 * (delta - h) + 1:
                continue
            assert tolerable(g, h, PMC) == delta - h, (g, h)
            checked += 1
    assert checked >= 12
    assert time.time() - started < 120
    announce(1, "PMC equality", started)


def test_criterion_2_mm_equality():
    started = time.time()
    assert tolerable(petersen(), 0, MM) == 3
    assert tolerable(petersen(), 1, MM) == 2
    assert tolerable(hypercube(4), 0, MM) == 4
    assert tolerable(hypercube(4), 1, MM) == 3
    assert time.time() - started < 1800
    announce(2, "MM* equality", started)


def test_criterion_3_upper_bound(corpus):
    started = time.time()
    for entry in corpus:
        g = entry.graph
        delta = g.min_degree
        # lexicographically first minimum-degree vertex and its edge fan
        v = min(w for w in range(g.n) if g.degree(w) == delta)
        fan = [e for e in g.edges if v in e]
        for h in range(0, delta + 1):
            assert tolerable(g, h, PMC) <= delta - h, (entry.name, h)
            if comb(g.m, min(h, g.m)) <= FULL_SWEEP_LIMIT:
                value = tolerable(g, h, MM)
                assert value <= delta - h, (entry.name, h)
                if h == delta:
                    assert value == 0, entry.name
            else:
                # the minimum cannot exceed any single scenario: removing h
                # edges at a minimum-degree vertex refutes (delta-h+1)-
                # diagnosability by direct scan
                shrunk = delete_edges(g, fan[:h])
                assert not is_t_diagnosable(shrunk, delta - h + 1, MM).diagnosable
        assert tolerable(g, delta, PMC) == 0, entry.name
        shrunk = delete_edges(g, fan[:delta])
        assert not is_t_diagnosable(shrunk, 1, MM).diagnosable, entry.name
    announce(3, "min-degree upper bound", started)


def test_criterion_4_pmc_lower_bound(corpus):
    started = time.time()
    targets = {
        "random-3conn-9-a": 3,
        "random-3conn-10-b": 3,
        "random-3conn-11-c": 3,
        "random-4conn-10-d": 4,
        "random-4conn-12-e": 4,
    }
    seen = 0
    for entry in corpus:
        if entry.name not in targets:
            continue
        g = entry.graph
        t = targets[entry.name]
        assert g.n <= 12
        assert vertex_connectivity(g).kappa >= t
        for h in range(0, t + 1):
            if g.n < 2 * (t - h) + 1:
                continue
            assert tolerable(g, h, PMC) >= t - h, (entry.name, h)
        seen += 1
    assert seen == 5
    announce(4, "PMC lower bound", started)


def test_criterion_5_exceptional_family():
    started = time.time()
    for family in (1, 2, 3, 4, 5):
        for seed in (101, 102, 103):
            spec, g = random_gamma(family, 3, seed=seed)
            assert g.min_degree == 3
            assert not g.is_regular
            assert max_common_neighbors(g).value >= 2  # delta - 1
            result = recognize_exceptional(g)
            assert result.member is True and result.index == family
    # the hand instance with a complete core: the adversarial core pair
    g1 = make_gamma(GammaSpec(1, 3, 4, core_edges=((0, 1), (0, 2), (1, 2))))
    assert diagnosability(g1, MM) <= 2 < g1.min_degree
    check = distinguishable_mm(g1, {0, 1}, {1, 2})
    assert not check.distinguishable
    announce(5, "exceptional family behavior", started)


def brute_kappa(g):
    if not is_connected(g):
        return 0
    for size in range(0, g.n - 1):
        for cut in combinations(range(g.n), size):
            if not is_connected(delete_vertices(g, cut)):
                return size
    return g.n - 1


def test_criterion_6_connectivity_oracle(corpus):
    started = time.time()
    small = [e for e in corpus if e.graph.n <= 10]
    assert small
    for entry in small:
        assert vertex_connectivity(entry.graph).kappa == brute_kappa(entry.graph), entry.name
    rng = random.Random("edge-deletion-trials")
    connected = [e.graph for e in corpus if is_connected(e.graph)]
    for _ in range(200):
        g = rng.choice(connected)
        kappa = vertex_connectivity(g).kappa
        size = rng.randrange(0, min(kappa, g.m) + 1)
        scenario = rng.sample(list(g.edges), size)
        assert vertex_connectivity(delete_edges(g, scenario)).kappa >= kappa - size
    announce(6, "connectivity oracle", started)


def test_criterion_7_model_ordering(corpus):
    started = time.time()
    for entry in corpus:
        g = entry.graph
        assert diagnosability(g, MM) <= diagnosability(g, PMC), entry.name
        for h in range(0, min(2, g.min_degree) + 1):
            assert tolerable(g, h, MM) <= tolerable(g, h, PMC), (entry.name, h)
    announce(7, "model ordering", started)


def test_criterion_8_syndrome_link(corpus):
    started = time.time()
    small = [e for e in corpus if e.graph.n <= 8]
    assert small
    for entry in small:
        g = entry.graph
        cap = min(g.min_degree, (g.n - 1) // 2)
        for model in (PMC, MM):
            for t in range(0, cap + 2):
                assert (
                    unique_decoding_everywhere(g, t, model)
                    == is_t_diagnosable(g, t, model).diagnosable
                ), (entry.name, model, t)
    announce(8, "syndrome link", started)


def test_criterion_9_definitional_equivalence(corpus):
    started = time.time()
    small = [e for e in corpus if e.graph.m <= 12]
    assert small
    for entry in small:
        g = entry.graph
        for model in (PMC, MM):
            for h in range(0, 3):
                assert (
                    edge_tolerable_by_definition(g, h, model)
                    == edge_tolerable_diagnosability(g, h, model).value
                ), (entry.name, model, h)
    announce(9, "definitional equivalence", started)


def test_criterion_10_verification_suite(corpus, capsys):
    started = time.time()
    report = run_suite(corpus=corpus)
    summary = report.summary
    assert summary["fail"] == 0
    assert summary["pass"] > 0
    table = report.to_table()
    hypothesis_marks = table.count("[ok]") + table.count("[NO]")
    assert hypothesis_marks == sum(len(r.hypotheses) for r in report.rows)
    # the CLI path exercises the same ledger
    from diagnoscope.cli import main

    code = main(["verify", "--format", "table", "--trials", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "summary:" in out
    assert "fail=0" in out
    announce(10, "verification suite", started)
    print(f"  suite verdicts: {summary}")
