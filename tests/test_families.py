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


def _erm_is_argmin(spec, m, trials, seed):
    cls = spec.cls
    setting = "partite" if cls.partite else "nonpartite"
    ell = losses.zero_one_loss(cls.labels, cls.k, setting=setting)
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
        chosen = cls.erm(x, y, m)
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
