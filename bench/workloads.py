"""The benchmark's workloads: the cold-child jobs one iteration runs.

A job is a JSON-serialisable dict that ``bench/child.py`` executes in a
fresh interpreter.  Every random choice in a job (edge-list line order,
fault sets, adversary seeds, the verify trial seed) derives from the
workload seed and the iteration index alone, so the same seed gives the
same inputs and a run covers many fault sets.  The program receives only
the generated inputs.

``WORKLOADS`` holds the measured workloads; ``TINY`` maps the same names
to Q3 / Petersen versions that the self-test runs through the same code.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple

MODELS = ("pmc", "mm")

# A graph is named by a generator kind and its integer parameters, as
# accepted by diagnoscope.families.generate_standard.
GraphSpec = Tuple[str, ...]


def graph_label(spec: Sequence) -> str:
    return "-".join(str(part) for part in spec)


def _rng(workload: str, seed: int, iteration: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{iteration}")


def _draw(rng: random.Random) -> int:
    return rng.randrange(2**31)


def analyze_jobs(rng: random.Random, graphs: Sequence[GraphSpec], h_max: int) -> List[dict]:
    """``analyze --method brute`` per graph and model; the edge-list lines
    are shuffled by the seed, which must not change a byte of the report."""
    return [
        {
            "op": "analyze",
            "graph": list(graph),
            "model": model,
            "h_max": h_max,
            "shuffle": _draw(rng),
            "golden": f"analyze-{graph_label(graph)}-{model}-h{h_max}.json",
        }
        for graph in graphs
        for model in MODELS
    ]


def verify_job(rng: random.Random, corpus: Sequence[GraphSpec] | None, h_max: int) -> dict:
    """``verify --format json``; the seed picks the connectivity-trial
    seed, whose rows pass for every seed because deleting k edges lowers
    connectivity by at most k.  ``corpus`` replaces the default corpus
    (self-test only)."""
    label = "default" if corpus is None else "_".join(graph_label(g) for g in corpus)
    return {
        "op": "verify",
        "corpus": None if corpus is None else [list(g) for g in corpus],
        "h_max": h_max,
        "trial_seed": _draw(rng),
        "golden": f"verify-{label}-h{h_max}.json.gz",
    }


def syndrome_jobs(rng: random.Random, graphs: Sequence[GraphSpec], t: int) -> List[dict]:
    """``syndrome --policy random`` per graph and model, one call per
    vertex: call k injects a fault set of size t whose first fault is the
    k-th vertex of a seeded permutation, with the other faults and the
    adversary seed drawn at random.  t stays within the graph's
    diagnosability, so decoding must return the injected set."""
    return [
        {
            "op": "syndrome",
            "graph": list(graph),
            "model": model,
            "t": t,
            "shuffle": _draw(rng),
            "case_seed": _draw(rng),
        }
        for graph in graphs
        for model in MODELS
    ]


def engine_jobs(rng: random.Random, graphs: Sequence[GraphSpec], t: int) -> List[dict]:
    """``is_t_diagnosable(g, t, model)`` per graph and model on the graph
    parsed from a seeded edge-list shuffle: the decision engine alone, no
    sweep, fold table or connectivity."""
    return [
        {
            "op": "engine",
            "graph": list(graph),
            "model": model,
            "t": t,
            "shuffle": _draw(rng),
            "golden": f"engine-{graph_label(graph)}-{model}-t{t}.json",
        }
        for graph in graphs
        for model in MODELS
    ]


# A workload maps (seed, iteration index) to the jobs of that iteration.
Workload = Callable[[int, int], List[dict]]

# Decoding time depends on where the faults sit (its coefficient of
# variation is 0.4-0.8 across random fault sets on Q6) and mostly on the
# first fault, so syndrome-q6 decodes one fault set per first-fault vertex
# at t = 2 rather than a few sets at t = 4 (about 2 s each).
WORKLOADS: Dict[str, Workload] = {
    "analyze-q4": lambda seed, i: analyze_jobs(_rng("analyze-q4", seed, i), [("hypercube", 4)], h_max=2),
    "engine-q5": lambda seed, i: engine_jobs(_rng("engine-q5", seed, i), [("hypercube", 5)], t=3),
    "verify": lambda seed, i: [verify_job(_rng("verify", seed, i), None, h_max=3)],
    "syndrome-q6": lambda seed, i: syndrome_jobs(_rng("syndrome-q6", seed, i), [("hypercube", 6)], t=2),
}

_TINY_GRAPHS = [("hypercube", 3), ("petersen",)]

TINY: Dict[str, Workload] = {
    "analyze-q4": lambda seed, i: analyze_jobs(_rng("analyze-q4", seed, i), _TINY_GRAPHS, h_max=1),
    "engine-q5": lambda seed, i: engine_jobs(_rng("engine-q5", seed, i), _TINY_GRAPHS, t=2),
    "verify": lambda seed, i: [verify_job(_rng("verify", seed, i), _TINY_GRAPHS, h_max=1)],
    "syndrome-q6": lambda seed, i: syndrome_jobs(_rng("syndrome-q6", seed, i), _TINY_GRAPHS, t=1),
}
