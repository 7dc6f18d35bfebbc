"""Constructors for the worked example classes: matching graphs, bounded-
degree graphs, partition families (distance / max), and the rank-2
higher-order class.  Each is an indicator class H_B(x) = 1[kappa(x) in B],
one member per kept subset B of a ground set, built by the one constructor
``_indicators``: it enumerates the subsets in size-then-lex order, keeps
those a filter accepts (only ``bdeg`` passes one, its degree bound) and
checks the caps.  Each family ships its member list, its class table (filled
from the subsets' bitmasks without a member call, and all that ``dims`` and
``learners.erm`` read) and known-dimension metadata that the tests re-derive.
"""

from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from . import templates
from .hypotheses import Hypothesis, HypothesisClass

# eager member enumerations stop at this many candidate subsets
ENUMERATION_CAP = 2**21
# each kept member costs a closure and a class-table row: matching(12) (576
# points) builds in about 0.1 s, and each further pair more than doubles that
MEMBER_CAP = 2**12
# bdeg and the partition families read fewer points per member: bdeg(6, 5)
# and dist(16) keep 2^15 members, and `harity dims` takes 0.5-0.6 s on them
# (2 shared cores), most of it building the family
GRAPH_MEMBER_CAP = 2**15


@dataclass(frozen=True)
class FamilySpec:
    name: str
    params: dict = field(hash=False)
    cls: HypothesisClass
    metadata: dict = field(default=None, hash=False)
    chi: object = field(default=None, compare=False)  # partition data, if any


def _indicators(name, template, key, ground, member_name, rank, cap, keep=None):
    """The class {H_B : B a subset of ``ground`` that ``keep`` accepts}, where
    H_B(x) = [key(x) in B] at a domain point x.  Past ``ENUMERATION_CAP``
    candidates or ``cap`` kept subsets it raises ValueError before any member."""
    size = len(ground)
    if 2**size > ENUMERATION_CAP:
        raise ValueError(
            f"{name} would enumerate 2^{size} subsets, over the cap {ENUMERATION_CAP}"
        )
    kept = []
    for b in chain.from_iterable(combinations(ground, r) for r in range(size + 1)):
        if keep is None or keep(b):
            kept.append(b)
            if len(kept) > cap:
                raise ValueError(f"{name} keeps more than {cap} members, over the cap")
    # the class table: T[B, p] is bit key(p) of B's mask, or clear bit `size` if no key
    place = {g: i for i, g in enumerate(ground)}
    masks = np.array([sum(1 << place[g] for g in b) for b in kept], dtype=np.int64)
    bits = [place.get(key(x), size) for x in templates.domain_points(template, 2)]
    table = (masks[:, None] >> np.arange(size + 1) & 1).astype(np.uint8)[:, bits]
    fns = [lambda x, bs=frozenset(b): 1 if key(x) in bs else 0 for b in kept]
    members = tuple(
        Hypothesis(2, template, (0, 1), f, member_name(b), rank)
        for f, b in zip(fns, kept)
    )
    return HypothesisClass(2, template, (0, 1), members, name, table=table)


def _graph(n, pair_key):
    """Simple graphs on n vertices (arity-1 points, a singleton pair space):
    the template and the key of the pair {u, v} a domain point holds, read
    through one dict over (u, v) in both orders (None when u == v)."""
    keys = {}
    for u, v in combinations(range(n), 2):
        keys[u, v] = keys[v, u] = pair_key(u, v)
    return templates.Template(2, (n, 1)), lambda x: keys.get((x[(1,)], x[(2,)]))


# ---------------------------------------------------------------------------
# matching family


def matching_family(n_pairs):
    """Truncation of the infinite-matching class (VCN_2 = 1, VC = infinity):
    vertices 0..2n-1, pair i is {2i, 2i+1}, one hypothesis per subset of
    pairs."""
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    graph = _graph(2 * n_pairs, lambda u, v: u // 2 if u % 2 == 0 and v == u + 1 else None)
    cls = _indicators(
        f"matching({n_pairs})",
        *graph,
        tuple(range(n_pairs)),
        lambda b: f"match{sorted(b)}",
        1,
        MEMBER_CAP,
    )
    metadata = {"vcn2": 1, "vc": n_pairs, "rank": 1}
    return FamilySpec("matching", {"n_pairs": n_pairs}, cls, metadata=metadata)


# ---------------------------------------------------------------------------
# bounded-degree family


def bounded_degree_family(n, d):
    """All graphs on n vertices with maximum degree <= d."""
    if n < 1 or d < 0:
        raise ValueError("bad parameters")
    edges = tuple(combinations(range(n), 2))
    edge_text = {e: str(list(e)) for e in edges}

    def bounded(es):
        deg = [0] * n
        for e in es:
            for v in e:
                deg[v] += 1
                if deg[v] > d:
                    return False
        return True

    cls = _indicators(
        f"bdeg({n},{d})",
        *_graph(n, lambda u, v: (u, v)),
        edges,
        lambda b: f"bdeg[{', '.join(map(edge_text.get, b))}]",  # b lists edges in order
        1,
        GRAPH_MEMBER_CAP,
        bounded,
    )
    metadata = {"vcn2": min(d, n - 1), "rank": 1}
    return FamilySpec("bdeg", {"n": n, "d": d}, cls, metadata=metadata)


# ---------------------------------------------------------------------------
# partition families


def partition_family(n, chi, name="partition"):
    """The class {G_B : B subset of classes} for a partition chi of the
    vertex pairs; G_B(x, y) = 1[chi({x, y}) in B]."""
    classes = sorted({chi(frozenset(e)) for e in combinations(range(n), 2)})
    cls = _indicators(
        f"{name}({n})",
        *_graph(n, lambda u, v: chi(frozenset((u, v)))),
        classes,
        lambda b: f"{name}{sorted(b)}",
        1,
        GRAPH_MEMBER_CAP,
    )
    return FamilySpec(
        name,
        {"n": n, "classes": classes},
        cls,
        metadata={"rank": 1, "n_classes": len(classes)},
        chi=chi,
    )


def distance_family(n):
    """Distance graphs on 0..n-1: pairs are classed by |x - y|."""
    return partition_family(n, lambda e: abs(max(e) - min(e)), name="dist")


def max_family(n):
    """Pairs classed by max{x, y}."""
    return partition_family(n, lambda e: max(e), name="maxg")


# ---------------------------------------------------------------------------
# higher-order (rank-2) family


def highorder_family(n):
    """The 2-partite rank-2 class: H_V(x) = 1[x_{2} = x_{12} in V] over a
    singleton first part and n-point second/pair spaces (VCN_2 = n here,
    infinity at the limit)."""
    cls = _indicators(
        f"highorder({n})",
        templates.PartiteTemplate(2, {(1,): 1, (2,): n, (1, 2): n}),
        lambda x: v if (v := x[((2, 1),)]) == x[((1, 1), (2, 1))] else None,
        tuple(range(n)),
        lambda b: f"ho{sorted(b)}",
        2,
        MEMBER_CAP,
    )
    return FamilySpec("highorder", {"n": n}, cls, metadata={"vcn2": n, "rank": 2})


# ---------------------------------------------------------------------------
# registry


def build_family(name, **params):
    builders = {
        "matching": lambda: matching_family(params.get("n", 4)),
        "bdeg": lambda: bounded_degree_family(params.get("n", 4), params.get("d", 2)),
        "dist": lambda: distance_family(params.get("n", 6)),
        "maxg": lambda: max_family(params.get("n", 6)),
        "highorder": lambda: highorder_family(params.get("n", 8)),
    }
    if name not in builders:
        raise ValueError(f"unknown family {name!r}")
    return builders[name]()
