"""Constructors for the worked example classes: matching graphs, bounded-
degree graphs, partition families (distance / max), and the rank-2
higher-order class.  Each family ships an explicit member list at its
truncation, from which the dimension machinery reads every slice, plus a
closed-form ERM oracle and known-dimension metadata that the dimension
machinery re-derives in the tests.
"""

from dataclasses import dataclass, field
from itertools import combinations

from . import templates
from .hypotheses import Hypothesis, HypothesisClass

# eager member enumerations stop at this many candidate subsets
ENUMERATION_CAP = 2**21
# families with one member per subset keep every candidate, and building a
# class evaluates each member on every configuration point: matching(12)
# takes about 2 s, and each further pair doubles it
MEMBER_CAP = 2**12


def _check_enumeration(what, size, cap=ENUMERATION_CAP):
    """Refuse to enumerate the 2**size subsets of ``size`` items past the cap."""
    if 2**size > cap:
        raise ValueError(f"{what} would enumerate 2^{size} subsets, over the cap {cap}")


@dataclass(frozen=True)
class FamilySpec:
    name: str
    params: dict = field(hash=False)
    cls: HypothesisClass = None
    metadata: dict = field(default=None, hash=False)
    chi: object = field(default=None, compare=False)  # partition data, if any


def _graph_template(n):
    # simple graphs: n vertices of arity 1, singleton pair space (rank <= 1)
    return templates.Template(2, (n, 1))


def _graph_hypothesis(t, edges, name):
    edge_set = frozenset(frozenset(e) for e in edges)

    def fn(x, es=edge_set):
        u, v = x[(1,)], x[(2,)]
        return 1 if u != v and frozenset((u, v)) in es else 0

    return Hypothesis(2, t, (0, 1), fn, name=name, declared_rank=1)


def _positive_edges(x, y):
    """The vertex pairs {u, v}, u != v, that a graph sample labels 1."""
    edges = set()
    for alpha, label in y.items():
        if label == 1 and len(alpha) == 2:
            u, v = x[(alpha[0],)], x[(alpha[1],)]
            if u != v:
                edges.add(frozenset((u, v)))
    return edges


# ---------------------------------------------------------------------------
# matching family


def matching_family(n_pairs):
    """Truncation of the infinite-matching class (VCN_2 = 1, VC = infinity):
    vertices 0..2n-1, pair i is {2i, 2i+1}, one hypothesis per subset of
    pairs."""
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    _check_enumeration(f"matching({n_pairs})", n_pairs, MEMBER_CAP)
    t = _graph_template(2 * n_pairs)
    pairs = [frozenset((2 * i, 2 * i + 1)) for i in range(n_pairs)]
    members = []
    for r in range(n_pairs + 1):
        for a in combinations(range(n_pairs), r):
            members.append(
                _graph_hypothesis(t, [pairs[i] for i in a], f"match{sorted(a)}")
            )

    member_by_pairs = {
        frozenset(
            i for i in range(n_pairs) if h(
                {(1,): min(pairs[i]), (2,): max(pairs[i]), (1, 2): 0}
            )
        ): h
        for h in members
    }

    def erm(x, y, m):
        # include pair i iff some labelled-1 injection witnesses it
        positive = _positive_edges(x, y)
        included = frozenset(i for i, p in enumerate(pairs) if p in positive)
        return member_by_pairs[included]

    cls = HypothesisClass(
        2, t, (0, 1), tuple(members), name=f"matching({n_pairs})", erm=erm
    )
    return FamilySpec(
        "matching",
        {"n_pairs": n_pairs},
        cls,
        metadata={"vcn2": 1, "vc": n_pairs, "rank": 1},
    )


# ---------------------------------------------------------------------------
# bounded-degree family


def bounded_degree_family(n, d):
    """All graphs on n vertices with maximum degree <= d."""
    if n < 1 or d < 0:
        raise ValueError("bad parameters")
    t = _graph_template(n)
    all_edges = [frozenset(e) for e in combinations(range(n), 2)]
    _check_enumeration(f"bdeg({n},{d})", len(all_edges))
    members = []
    graphs = []
    for r in range(len(all_edges) + 1):
        for es in combinations(all_edges, r):
            deg = {}
            ok = True
            for e in es:
                for v in e:
                    deg[v] = deg.get(v, 0) + 1
                    if deg[v] > d:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                graphs.append(frozenset(es))
                members.append(_graph_hypothesis(t, es, f"bdeg{sorted(map(sorted, es))}"))
    by_graph = dict(zip(graphs, members))

    def erm(x, y, m):
        # greedy consistent subgraph in canonical edge order
        deg = {}
        chosen = set()
        positive = _positive_edges(x, y)
        for e in all_edges:
            if e in positive and all(deg.get(v, 0) < d for v in e):
                chosen.add(e)
                for v in e:
                    deg[v] = deg.get(v, 0) + 1
        return by_graph[frozenset(chosen)]

    cls = HypothesisClass(
        2, t, (0, 1), tuple(members), name=f"bdeg({n},{d})", erm=erm
    )
    return FamilySpec(
        "bdeg",
        {"n": n, "d": d},
        cls,
        metadata={"vcn2": min(d, n - 1), "rank": 1},
    )


# ---------------------------------------------------------------------------
# partition families


def partition_family(n, chi, name="partition"):
    """The class {G_B : B subset of classes} for a partition chi of the
    vertex pairs; G_B(x, y) = 1[chi({x, y}) in B]."""
    t = _graph_template(n)
    classes = sorted({chi(frozenset(e)) for e in combinations(range(n), 2)})
    _check_enumeration(f"{name}({n})", len(classes))
    members = []
    by_b = {}
    for r in range(len(classes) + 1):
        for b in combinations(classes, r):
            bset = frozenset(b)

            def fn(x, bs=bset):
                u, v = x[(1,)], x[(2,)]
                if u == v:
                    return 0
                return 1 if chi(frozenset((u, v))) in bs else 0

            h = Hypothesis(2, t, (0, 1), fn, name=f"{name}{sorted(b)}", declared_rank=1)
            members.append(h)
            by_b[bset] = h

    def erm(x, y, m):
        # B := classes witnessed positive
        return by_b[frozenset(chi(e) for e in _positive_edges(x, y))]

    cls = HypothesisClass(
        2, t, (0, 1), tuple(members), name=f"{name}({n})", erm=erm
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
    _check_enumeration(f"highorder({n})", n, MEMBER_CAP)
    pt = templates.PartiteTemplate(2, {(1,): 1, (2,): n, (1, 2): n})
    k2 = (((2, 1),),)
    k12 = (((1, 1), (2, 1)),)
    key2, key12 = k2[0], k12[0]
    members = []
    by_v = {}
    for r in range(n + 1):
        for v in combinations(range(n), r):
            vset = frozenset(v)

            def fn(x, vs=vset):
                return 1 if x[key2] == x[key12] and x[key2] in vs else 0

            h = Hypothesis(2, pt, (0, 1), fn, name=f"ho{sorted(v)}", declared_rank=2)
            members.append(h)
            by_v[vset] = h

    def erm(x, y, m):
        # witnessed diagonal values determine membership exactly
        v_hat = set()
        for alpha, label in y.items():
            i, j = alpha
            b = x[((2, j),)]
            if label == 1 and b == x[((1, i), (2, j))]:
                v_hat.add(b)
        return by_v[frozenset(v_hat)]

    cls = HypothesisClass(
        2, pt, (0, 1), tuple(members), name=f"highorder({n})", erm=erm
    )
    return FamilySpec(
        "highorder",
        {"n": n},
        cls,
        metadata={"vcn2": n, "rank": 2},
    )


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
