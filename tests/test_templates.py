import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harity import indexing, templates


def test_template_validation():
    with pytest.raises(ValueError):
        templates.Template(2, (2,))
    with pytest.raises(ValueError):
        templates.Template(1, (0,))
    t = templates.Template(2, (3, 1))
    assert t.size(1) == 3
    assert t.size(2) == 1
    # arities above the cap are implicit singletons
    assert t.size(5) == 1


def test_prob_validation():
    t = templates.Template(1, (2,))
    with pytest.raises(ValueError):
        templates.ProbTemplate(t, ((Fraction(1, 2), Fraction(1, 3)),))
    with pytest.raises(ValueError):
        templates.ProbTemplate(t, ((Fraction(3, 2), Fraction(-1, 2)),))
    mu = templates.ProbTemplate(t, ((Fraction(1, 3), Fraction(2, 3)),))
    assert mu.weight(1, 1) == Fraction(2, 3)
    assert mu.weight(5, 0) == 1


def test_uniform_prob():
    t = templates.Template(2, (4, 2))
    mu = templates.uniform_prob(t)
    assert mu.weights[0] == (Fraction(1, 4),) * 4
    assert mu.weights[1] == (Fraction(1, 2),) * 2


def _rational_vector(n):
    return st.lists(
        st.integers(min_value=1, max_value=9), min_size=n, max_size=n
    ).map(lambda ws: tuple(Fraction(w, sum(ws)) for w in ws))


@given(_rational_vector(2), _rational_vector(3), _rational_vector(2), _rational_vector(3))
@settings(max_examples=25, deadline=None)
def test_product_prob_valid(w1a, w1b, w2a, w2b):
    p1 = templates.ProbTemplate(templates.Template(2, (2, 3)), (w1a, w1b))
    p2 = templates.ProbTemplate(templates.Template(2, (2, 3)), (w2a, w2b))
    prod = templates.product_prob(p1, p2)
    # construction re-validates sums; spot-check one joint weight
    assert prod.weight(1, 1) == w1a[0] * w2a[1]


@pytest.mark.parametrize(
    "t1, t2, x1, x2",
    [
        (
            templates.Template(2, (2, 3)),
            templates.Template(2, (3, 2)),
            {(1,): 1, (2,): 0, (1, 2): 2},
            {(1,): 2, (2,): 1, (1, 2): 1},
        ),
        (
            templates.PartiteTemplate(2, {(1,): 2, (2,): 2, (1, 2): 3}),
            templates.PartiteTemplate(2, {(1,): 3, (2,): 1, (1, 2): 2}),
            {((1, 1),): 1, ((2, 1),): 0, ((1, 1), (2, 1)): 2},
            {((1, 1),): 2, ((2, 1),): 0, ((1, 1), (2, 1)): 1},
        ),
    ],
    ids=["plain", "partite"],
)
def test_join_split_roundtrip(t1, t2, x1, x2):
    j = templates.join_config(t1, t2, x1, x2)
    assert templates.split_config(t1, t2, j) == (x1, x2)


def test_coords_follow_the_index_algebra():
    t = templates.Template(2, (2, 3))
    pt = templates.PartiteTemplate(2, {(1,): 2, (2,): 2, (1, 2): 3})
    for m in range(5):
        assert t.coords(m) == indexing.subsets(m, 2)
        assert pt.coords(m) == indexing.part_indices(2, m)
    assert [t.space(a) for a in t.coords(3)] == [1, 1, 1, 2, 2, 2]
    assert [pt.space(f) for f in pt.coords(1)] == [(1,), (2,), (1, 2)]


def test_partize_template_and_prob():
    t = templates.Template(2, (3, 2))
    pt = templates.partize_template(t, 2)
    assert pt.size((1,)) == 3
    assert pt.size((1, 2)) == 2
    mu = templates.uniform_prob(t)
    pmu = templates.partize_prob(mu, 2)
    assert pmu.weights[(2,)] == mu.weights[0]
    assert pmu.weights[(1, 2)] == mu.weights[1]
    with pytest.raises(ValueError):
        templates.partize_template(t, 3)


def test_partize_injective():
    seen = set()
    for sizes in [(2, 1), (2, 2), (3, 1)]:
        t = templates.Template(2, sizes)
        pt = templates.partize_template(t, 2)
        key = tuple(sorted(pt.sizes.items()))
        assert key not in seen
        seen.add(key)


def test_config_points_count():
    t = templates.Template(2, (2, 3))
    pts = templates.config_points(t, 2)
    # coordinates {1}, {2}, {1,2}
    assert len(pts) == 2 * 2 * 3
    assert len({tuple(sorted(p.items())) for p in pts}) == len(pts)


def test_config_law_sums_to_one():
    t = templates.Template(2, (2, 2))
    mu = templates.ProbTemplate(
        t,
        (
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(1, 4), Fraction(3, 4)),
        ),
    )
    law = templates.config_law(mu, 2)
    assert sum(p for _, p in law) == 1
    # marginal of one coordinate recovers the base measure
    marg = sum(p for x, p in law if x[(1,)] == 0)
    assert marg == Fraction(1, 3)


def test_partite_law_sums_to_one():
    pt = templates.PartiteTemplate(2, {(1,): 2, (2,): 2, (1, 2): 2})
    mu = templates.uniform_partite_prob(pt)
    law = templates.partite_config_law(mu, 1)
    assert sum(p for _, p in law) == 1
    assert len(law) == 8


def test_zero_mass_points_skipped():
    t = templates.Template(1, (2,))
    mu = templates.ProbTemplate(t, ((Fraction(1), Fraction(0)),))
    law = templates.config_law(mu, 2)
    assert len(law) == 1
    assert law[0][1] == 1


def test_template_to_json_frozen():
    t = templates.Template(2, (2, 1))
    mu = templates.uniform_prob(t)
    doc = json.loads(templates.template_to_json(t, mu))
    assert doc == {
        "k": 2,
        "partite": False,
        "sizes": {"1": 2, "2": 1},
        "weights": {"1": ["1/2", "1/2"], "2": ["1"]},
    }
    pt = templates.partize_template(t, 2)
    pdoc = json.loads(templates.template_to_json(pt))
    assert pdoc["partite"] is True
    assert pdoc["sizes"] == {"{1}": 2, "{2}": 2, "{1,2}": 1}
