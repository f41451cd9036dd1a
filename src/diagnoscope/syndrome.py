"""Operational test semantics: syndrome generation and decoding.

A syndrome is a plain dict with one outcome bit per entry.  An entry is
a tuple: a unit w followed by the neighbors its test covers, ascending:
one under PMC (w tests each neighbor) and two under MM* (w compares each
pair of its neighbors).  The dict does not name its model; every
function that reads one takes the model as an argument, and a dict whose
keys are not the model's entries on the graph is rejected.  A fault-free
w reports 1 exactly when one of those neighbors is faulty; a faulty w
reports an arbitrary bit.  So only a faulty w or a neighbor of one can
report a 1.  Sorted, each w's entries are one slice: generation writes,
and decoding reads entry by entry, only the slices that can hold a 1.
The entries and their slice starts are built once per graph and model
and kept in this module's small cache, never on the graph; a syndrome
whose keys come in entry order, as generated ones do, is validated in
one pass over its bits.

"Arbitrary" is made concrete by an adversary policy: fixed all-zero or
all-one answers, or a seeded random completion.

Decoding lists every fault set within the budget that could have
produced the syndrome under some adversary completion.  A fault set fits
exactly when every vertex outside it sees its neighborhood as its own
entries report, so a depth-first search fixes each vertex in turn as
faulty or as fault-free together with the faulty part of its
neighborhood that its entries allow (``_options``: a PMC tester's ones,
or what an MM* comparator's zeros, one clique, leave out).
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import accumulate, combinations, compress
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .diagnosis import DiagModel, _check_model
from .graphs import Graph, GraphError, bits_of


class SyndromeError(GraphError):
    """Malformed syndrome or an illegal generation request."""


class _Policy(NamedTuple):
    kind: str  # "all_zero" | "all_one" | "seeded_random"
    seed: Optional[int] = None


class AdversaryPolicy(_Policy):
    """How outcomes controlled by faulty units are filled in.  Construction
    validates; ``_replace`` and ``_make`` do not."""

    __slots__ = ()

    def __new__(cls, kind: str, seed: Optional[int] = None):
        if kind not in ("all_zero", "all_one", "seeded_random"):
            raise SyndromeError(f"unknown adversary policy {kind!r}")
        if kind == "seeded_random" and seed is None:
            raise SyndromeError("seeded_random policy requires a seed")
        return super().__new__(cls, kind, seed)


ALL_ZERO = AdversaryPolicy("all_zero")
ALL_ONE = AdversaryPolicy("all_one")


def seeded_random(seed: int) -> AdversaryPolicy:
    return AdversaryPolicy("seeded_random", seed)


def entries(g: Graph, model) -> List[Tuple[int, ...]]:
    """Every entry of the model on g, sorted, so w's entries are one slice:
    d(w) of them under PMC, d(w)(d(w) - 1)/2 under MM*."""
    _check_model(model)
    return list(_layout(g, model is DiagModel.MMSTAR)[0])


@lru_cache(maxsize=2)  # one graph under both models: a CLI call or a generate-then-decode pair
def _layout(g: Graph, mm: bool) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """The entries as a tuple, and where each w's slice of them starts,
    then where the last ends."""
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:  # sorted, so each list comes out ascending
        nbrs[u].append(v)
        nbrs[v].append(u)
    if mm:
        es = tuple([(w, u, v) for w, ns in enumerate(nbrs) for u, v in combinations(ns, 2)])
    else:
        es = tuple([(w, v) for w, ns in enumerate(nbrs) for v in ns])
    return es, tuple(accumulate((len(ns) * (len(ns) - 1) // 2 if mm else len(ns) for ns in nbrs), initial=0))


def generate_syndrome(g: Graph, faults: Iterable[int], model, policy: AdversaryPolicy):
    """The syndrome the fault set produces under the model semantics, with
    the entries its members control filled in by the policy, in entry order."""
    _check_model(model)
    es, starts = _layout(g, model is DiagModel.MMSTAR)
    fault_mask = g.vertex_mask(faults)
    rng = random.Random(policy.seed) if policy.kind == "seeded_random" else None
    fixed = int(policy.kind == "all_one")
    bits = [0] * len(es)
    for w, nbrs in enumerate(g.adj_masks):
        if (1 << w | nbrs) & fault_mask:  # only a faulty w or a neighbor of one can report a 1
            s, e = starts[w], starts[w + 1]
            if fault_mask >> w & 1:
                bits[s:e] = [rng.getrandbits(1) for _ in range(s, e)] if rng else [fixed] * (e - s)
            else:  # entry[1] is entry[-1] under PMC
                bits[s:e] = [(fault_mask >> entry[1] | fault_mask >> entry[-1]) & 1 for entry in es[s:e]]
    return dict(zip(es, bits))


def _validate_shape(g: Graph, syndrome, model):
    """The syndrome's bit for each of the model's entries on g, in entry order.

    A dict whose keys come in entry order, as ``generate_syndrome`` writes
    them, is read in one pass over its values; any other order is looked
    up entry by entry.
    """
    _check_model(model)
    es = _layout(g, model is DiagModel.MMSTAR)[0]
    if not isinstance(syndrome, dict):
        raise SyndromeError(f"syndrome must be a dict, got {type(syndrome).__name__}")
    if type(syndrome) is dict and tuple(syndrome) == es:  # a subclass may override get()
        bits = list(syndrome.values())
    else:
        bits = list(map(syndrome.get, es))  # None where an entry is missing
    # types first: {0, 0.0} is {0}, and a non-int may be unhashable
    if len(syndrome) == len(es) and set(map(type, bits)) <= {int, bool} and set(bits) <= {0, 1}:
        return bits
    if len(syndrome) != len(es) or not all(map(syndrome.__contains__, es)):
        raise SyndromeError("syndrome entries do not match the graph's test structure")
    for entry, bit in syndrome.items():
        if type(bit) not in (int, bool) or bit not in (0, 1):
            raise SyndromeError(f"syndrome outcome for {entry} must be 0 or 1, got {bit}")


def _options(g: Graph, bits: List[int], t: int, mm: bool) -> List[List[int]]:
    """Per vertex w, every X = F & N(w) with |X| <= t that w's entries
    allow if w is fault-free (none: w must be faulty); ``bits`` are
    ``_validate_shape``'s, in entry order.

    PMC tests read X off directly, from the ones alone.  Under MM*, a
    fault-free w reads 0 on (w; u, v) exactly when u and v are both
    outside X, so its zeros are all the pairs of one clique N(w) - X: all
    zero, X is empty; if w has c > 0 zeros touching the k neighbors in r,
    X is N(w) - r and is allowed iff 2c = k(k - 1).  With no zero, at most
    one neighbor is outside X: the candidates are N(w), then N(w) - y for
    each y ascending.
    """
    es, starts = _layout(g, mm)
    if not mm:
        ones = [0] * g.n
        for w, v in compress(es, bits):
            ones[w] |= 1 << v
        return [[x] if x.bit_count() <= t else [] for x in ones]
    opts = []
    for nbrs, s, e in zip(g.adj_masks, starts, starts[1:]):
        seg = bits[s:e]
        c = seg.count(0)
        if c == e - s and c:
            cands = [0]
        elif c:
            r = 0
            for (_, u, v), bit in zip(es[s:e], seg):
                r |= 0 if bit else 1 << u | 1 << v
            k = r.bit_count()
            cands = [nbrs ^ r] if 2 * c == k * (k - 1) else []
        else:
            cands = [nbrs] + [nbrs ^ 1 << y for y in bits_of(nbrs)]
        opts.append([x for x in cands if x.bit_count() <= t])
    return opts


def decode(g: Graph, syndrome, t: int, model) -> Tuple[frozenset, ...]:
    """Every fault set of size at most t consistent with the syndrome,
    ascending by size then lexicographically.  The syndrome's keys must be
    the model's entries as a set, compared by equality: a key whose ids
    are bools or floats equal to an entry's reads as that entry.

    A set fits exactly when each vertex outside it sees an X that its own
    entries allow (``_options``).  A depth-first search fixes the vertices
    in ascending order, each as faulty or as fault-free with one allowed
    X, which fixes its whole neighborhood; a branch stops on a
    contradiction or past t faults, and each leaf is a distinct set.
    """
    if t < 0:
        raise GraphError(f"fault budget must be nonnegative, got {t}")
    bits = _validate_shape(g, syndrome, model)
    t = min(t, g.n)
    adj = g.adj_masks
    opts = _options(g, bits, t, model is DiagModel.MMSTAR)
    found = []
    stack = [(0, 0, 0)]
    while stack:
        w, faulty, clear = stack.pop()
        if w == g.n:
            found.append(faulty)
            continue
        bit = 1 << w
        if faulty & bit:
            stack.append((w + 1, faulty, clear))
            continue
        if not clear & bit and faulty.bit_count() < t:
            stack.append((w + 1, faulty | bit, clear))
        for x in opts[w]:
            rest = adj[w] ^ x
            if x & clear or rest & faulty or (faulty | x).bit_count() > t:
                continue
            stack.append((w + 1, faulty | x, clear | bit | rest))
    found.sort(key=lambda m: (m.bit_count(), tuple(bits_of(m))))
    return tuple(frozenset(bits_of(m)) for m in found)
