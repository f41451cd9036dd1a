"""Fault diagnosability analysis of interconnection networks.

Computes the traditional diagnosability and the edge-fault tolerable
diagnosability of graphs under the PMC and MM* test models, constructs
and recognizes the exceptional graph family excluded from the MM*
results, and verifies the supported theorems against brute-force oracles
on desk-scale graphs.
"""

from .connectivity import (
    CommonNeighbors,
    ConnectivityReport,
    DisjointPaths,
    internally_disjoint_paths,
    is_connected,
    max_common_neighbors,
    vertex_connectivity,
)
from .diagnosis import (
    DiagModel,
    DiagnosisDecision,
    IndistinguishableWitness,
    diagnosability,
    diagnosability_cap,
    is_t_diagnosable,
)
from .families import (
    GammaSpec,
    RecognitionResult,
    RecognizedDecomposition,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    generate_standard,
    hypercube,
    make_gamma,
    path,
    petersen,
    prism,
    random_gamma,
    random_t_connected,
    recognize_exceptional,
    wheel,
)
from .formats import (
    FormatError,
    emit_edge_list,
    emit_graph6,
    gamma_spec_from_json,
    parse_edge_list,
    parse_graph6,
)
from .graphs import (
    CapExceededError,
    Graph,
    GraphError,
    build_graph,
    delete_edges,
    relabel,
)
from .syndrome import (
    ALL_ONE,
    ALL_ZERO,
    AdversaryPolicy,
    SyndromeError,
    decode,
    generate_syndrome,
    seeded_random,
)
from .tolerance import (
    BoundCondition,
    BoundReport,
    Facts,
    ToleranceResult,
    edge_tolerable_diagnosability,
    theoretical_bounds,
)
from .verification import (
    ALL_CLAIMS,
    Budget,
    ClaimRow,
    CorpusEntry,
    VerificationReport,
    default_corpus,
    run_suite,
)

__version__ = "0.1.0"
