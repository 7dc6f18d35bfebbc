from collections import Counter
from itertools import combinations
from math import comb

import pytest

from harity import dims, families, losses, sampler, templates
from harity.hypotheses import star, star_partite


def test_registry():
    assert families.build_family("matching", n=3).cls.name == "matching(3)"
    with pytest.raises(ValueError):
        families.build_family("nope")


def test_matching_counts_and_metadata():
    for n in (2, 3):
        spec = families.matching_family(n)
        assert len(spec.cls) == 2**n
        assert dims.vcn_k(spec.cls) == spec.metadata["vcn2"] == 1
        fam = dims.family_on_full_domain(spec.cls)
        assert dims.vc_dim(fam, cap=n + 1) == spec.metadata["vc"] == n


def test_matching_validation():
    with pytest.raises(ValueError):
        families.matching_family(0)


def test_bdeg_members_are_degree_bounded():
    spec = families.bounded_degree_family(4, 1)
    for H in spec.cls.members:
        deg = {}
        for u in range(4):
            for v in range(u + 1, 4):
                if H({(1,): u, (2,): v, (1, 2): 0}):
                    deg[u] = deg.get(u, 0) + 1
                    deg[v] = deg.get(v, 0) + 1
        assert all(d <= 1 for d in deg.values())


def test_bdeg_metadata():
    for n, d in [(3, 1), (4, 2), (4, 3)]:
        spec = families.bounded_degree_family(n, d)
        assert dims.vcn_k(spec.cls) == spec.metadata["vcn2"] == min(d, n - 1)


def test_partition_family_members():
    spec = families.distance_family(4)
    # classes are |x - y| in {1, 2, 3}
    assert spec.params["classes"] == [1, 2, 3]
    assert len(spec.cls) == 2**3
    H = spec.cls.members[1]  # one singleton class
    assert H({(1,): 0, (2,): 1, (1, 2): 0}) == 1
    assert H({(1,): 0, (2,): 0, (1, 2): 0}) == 0


def test_highorder_metadata():
    spec = families.highorder_family(4)
    assert len(spec.cls) == 2**4
    assert dims.vcn_k(spec.cls) == spec.metadata["vcn2"] == 4


def _subsets(ground, keep=lambda b: True):
    """Every subset of ``ground`` that ``keep`` accepts, by size, then lex."""
    out = []
    for r in range(len(ground) + 1):
        out += [b for b in combinations(ground, r) if keep(b)]
    return out


def _graph_members(prefix, ground, key, keep=lambda b: True, show=list):
    """(name, rank, x -> 1[key(u, v) in B]) per member G_B of a graph family,
    where u, v are the vertices x holds; a loop u = v is never an edge."""

    def value(x, b):
        u, v = x[(1,)], x[(2,)]
        return int(u != v and key(u, v) in b)

    return [
        (f"{prefix}{show(b)}", 1, lambda x, b=b: value(x, b)) for b in _subsets(ground, keep)
    ]


def _max_degree_at_most(d):
    return lambda b: max(Counter(v for e in b for v in e).values(), default=0) <= d


_WORDS = {
    (0, 1): "near",
    (1, 2): "near",
    (2, 3): "near",
    (0, 2): "mid",
    (1, 3): "mid",
    (0, 3): "far",
}

DEFINITIONS = {
    "matching(3)": (
        lambda: families.matching_family(3),
        _graph_members(
            "match",
            range(3),
            lambda u, v: next((i for i in range(3) if {u, v} == {2 * i, 2 * i + 1}), None),
        ),
    ),
    "bdeg(4,1)": (
        lambda: families.bounded_degree_family(4, 1),
        _graph_members(
            "bdeg",
            list(combinations(range(4), 2)),
            lambda u, v: (min(u, v), max(u, v)),
            _max_degree_at_most(1),
            lambda b: [list(e) for e in b],
        ),
    ),
    "bdeg(4,2)": (
        lambda: families.bounded_degree_family(4, 2),
        _graph_members(
            "bdeg",
            list(combinations(range(4), 2)),
            lambda u, v: (min(u, v), max(u, v)),
            _max_degree_at_most(2),
            lambda b: [list(e) for e in b],
        ),
    ),
    "dist(5)": (
        lambda: families.distance_family(5),
        _graph_members("dist", [1, 2, 3, 4], lambda u, v: abs(u - v)),
    ),
    "maxg(4)": (
        lambda: families.max_family(4),
        _graph_members("maxg", [1, 2, 3], max),
    ),
    "partition(4), string classes": (
        lambda: families.partition_family(4, lambda e: _WORDS[tuple(sorted(e))]),
        _graph_members(
            "partition", ["far", "mid", "near"], lambda u, v: _WORDS[min(u, v), max(u, v)]
        ),
    ),
    "highorder(3)": (
        lambda: families.highorder_family(3),
        [
            (
                f"ho{list(b)}",
                2,
                lambda x, b=b: int(x[((2, 1),)] == x[((1, 1), (2, 1))] and x[((2, 1),)] in b),
            )
            for b in _subsets(range(3))
        ],
    ),
}


@pytest.mark.parametrize("build, expected", DEFINITIONS.values(), ids=DEFINITIONS)
def test_members_match_their_written_out_definition(build, expected):
    # each member's name, declared rank and whole value table, in member order
    cls = build().cls
    points = templates.domain_points(cls.template, cls.k)
    got = [(H.name, H.declared_rank, [H(x) for x in points]) for H in cls.members]
    assert got == [(name, rank, [fn(x) for x in points]) for name, rank, fn in expected]


def _erm_is_argmin(spec, m, trials, seed):
    cls = spec.cls
    ell = losses.zero_one_loss(cls.labels, cls.k)
    if cls.partite:
        mu = templates.uniform_partite_prob(cls.template)
    else:
        mu = templates.uniform_prob(cls.template)
    for t in range(trials):
        rng = sampler.stream(seed, t)
        F = cls.members[rng.randrange(len(cls.members))]
        if cls.partite:
            x = sampler.sample_partite_config(mu, m, rng)
            y = star_partite(F, x, m)
            emp = lambda H: losses.empirical_loss_partite(x, y, ell, H, m)  # noqa: E731
        else:
            x = sampler.sample_config(mu, m, rng)
            y = star(F, x, m)
            emp = lambda H: losses.empirical_loss_nonpartite(x, y, ell, H, m)  # noqa: E731
        chosen = cls.erm(x, y)
        best = min(emp(H) for H in cls.members)
        assert emp(chosen) == best == 0  # realizable samples


def test_structured_erm_matches_argmin():
    _erm_is_argmin(families.matching_family(2), 4, 10, "erm-match")
    _erm_is_argmin(families.distance_family(4), 4, 10, "erm-dist")
    _erm_is_argmin(families.bounded_degree_family(4, 2), 4, 10, "erm-bdeg")
    _erm_is_argmin(families.highorder_family(3), 3, 10, "erm-ho")


def test_growth_bound_all_builtin_small():
    specs = [
        families.matching_family(2),
        families.bounded_degree_family(3, 2),
        families.distance_family(4),
        families.max_family(4),
        families.highorder_family(3),
    ]
    for spec in specs:
        cls = spec.cls
        vcn = int(dims.vcn_k(cls))
        L = len(cls.labels)
        for m in range(1, 4):
            tight, _ = dims.growth_bound(vcn, m, L)
            assert dims.growth_function(cls, m) <= tight
