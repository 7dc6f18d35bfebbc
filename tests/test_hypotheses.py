import numpy as np
import pytest

from harity import families, indexing, templates
from harity.hypotheses import (
    Hypothesis,
    HypothesisClass,
    constant_hypothesis,
    partize_class,
    partize_hypothesis,
    pattern,
    perms,
    rank_of,
    star,
    star_partite,
    unpartize_hypothesis,
)
from harity.losses import permute_pattern


def _xor_hypothesis():
    t = templates.Template(2, (2, 2))
    return Hypothesis(
        2, t, (0, 1), lambda x: (x[(1,)] + x[(2,)] + x[(1, 2)]) % 2, name="xor"
    )


def test_star_constant():
    t = templates.Template(2, (2, 1))
    F = constant_hypothesis(2, t, (0, 1), 1)
    x = templates.config_points(t, 3)[0]
    y = star(F, x, 3)
    assert set(y) == set(indexing.injections(3, 2))
    assert set(y.values()) == {1}


def test_star_matching_edge_label():
    # an edge of the matching is labeled 1 in both orders, non-edges 0
    spec = families.matching_family(2)
    F = spec.cls.members[-1]  # all pairs included
    x = {(1,): 0, (2,): 1, (3,): 2, (1, 2): 0, (1, 3): 0, (2, 3): 0}
    y = star(F, x, 3)
    assert y[(1, 2)] == 1 and y[(2, 1)] == 1  # {0,1} is pair 0
    assert y[(1, 3)] == 0  # {0,2} is no pair


def test_star_equivariance():
    # beta*(F*_V(x)) = F*_U(beta*(x)) for injections beta: [U] -> [V]
    F = _xor_hypothesis()
    pts = templates.config_points(F.template, 3)
    for m in (2, 3):
        for beta in indexing.injections(3, m):
            for x in pts:
                big = star(F, x, 3)
                small = star(F, indexing.pullback(beta, x), m)
                for alpha in indexing.injections(m, 2):
                    assert small[alpha] == big[indexing.compose(beta, alpha)]


def test_pattern_equivariance():
    F = _xor_hypothesis()
    for x in templates.config_points(F.template, 2):
        for sigma in perms(2):
            assert permute_pattern(pattern(F, x), sigma, 2) == pattern(
                F, indexing.pullback(sigma, x)
            )


def test_rank_of():
    t = templates.Template(2, (2, 2))
    assert rank_of(constant_hypothesis(2, t, (0,), 0)) == 0
    members = families.matching_family(2).cls.members
    assert all(rank_of(H) <= 1 for H in members)
    assert rank_of(members[-1]) == 1  # the full matching is not constant
    ho = families.highorder_family(2).cls.members[-1]
    assert rank_of(ho) == 2


def test_declared_rank_sound():
    for spec in (families.matching_family(2), families.highorder_family(2)):
        for H in spec.cls.members:
            if H.declared_rank is not None:
                assert H.declared_rank >= rank_of(H)


def test_partize_roundtrip():
    spec = families.matching_family(2)
    for F in spec.cls.members:
        G = partize_hypothesis(F)
        back = unpartize_hypothesis(G, F.template, F.labels)
        assert back.table() == F.table()


def test_partize_rank_preserved():
    for F in families.matching_family(2).cls.members:
        assert rank_of(partize_hypothesis(F)) == rank_of(F)


def test_partize_class_bijective():
    cls = families.matching_family(2).cls
    pcls = partize_class(cls)
    assert len(pcls) == len(cls)
    assert pcls.partite
    with pytest.raises(ValueError):
        partize_class(pcls)


def test_partize_class_tabulates_as_the_partized_members():
    # k = 3 with three labels: 3^6 pattern labels, so the table is uint16,
    # and each cell is the pattern's index read point by point
    t = templates.Template(3, (2, 2, 1))
    members = tuple(
        Hypothesis(3, t, (0, 1, 2), lambda x, s=s: (x[(1,)] + 2 * x[(2,)] + s * x[(3,)] + x[(1, 2)]) % 3)
        for s in range(3)
    )
    pcls = partize_class(HypothesisClass(3, t, (0, 1, 2), members))
    points = templates.domain_points(pcls.template, 3)
    rows = [[pcls.labels.index(F(x)) for x in points] for F in pcls.members]
    assert pcls.table.dtype == np.uint16
    assert pcls.table.tobytes() == np.array(rows, np.uint16).tobytes()


def test_star_partite_shape():
    spec = families.highorder_family(2)
    F = spec.cls.members[1]
    x = templates.config_points(spec.cls.template, 2)[0]
    y = star_partite(F, x, 2)
    assert set(y) == {(i, j) for i in (1, 2) for j in (1, 2)}


def test_duplicate_members_rejected():
    t = templates.Template(1, (2,))
    a = constant_hypothesis(1, t, (0, 1), 0, name="a")
    b = constant_hypothesis(1, t, (0, 1), 0, name="b")
    with pytest.raises(ValueError):
        HypothesisClass(1, t, (0, 1), (a, b))
