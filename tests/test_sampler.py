import math
from fractions import Fraction

import pytest

from harity import families, indexing, sampler, templates
from harity.hypotheses import Hypothesis, star


def _unary_scenario():
    t = templates.Template(1, (2,))
    mu = templates.ProbTemplate(t, ((Fraction(1, 3), Fraction(2, 3)),))
    F = Hypothesis(1, t, (0, 1), lambda x: x[(1,)], name="id")
    return sampler.Scenario(mu, F)


def test_stream_determinism():
    sc = _unary_scenario()
    a = sampler.labeled_sample(sc, 5, sampler.stream("s", 3))
    b = sampler.labeled_sample(sc, 5, sampler.stream("s", 3))
    assert a == b
    c = sampler.labeled_sample(sc, 5, sampler.stream("s", 4))
    assert a != c or True  # different trials may coincide; only equality is guaranteed


def test_draw_covers_all_points():
    rng = sampler.stream("draw", 0)
    seen = {sampler._draw(rng, [0.5, 0.25, 0.25]) for _ in range(200)}
    assert seen == {0, 1, 2}


def test_sample_config_coordinates():
    t = templates.Template(2, (3, 2))
    mu = templates.uniform_prob(t)
    x = sampler.sample_config(mu, 3, sampler.stream("c", 0))
    assert set(x) == set(indexing.subsets(3, 2))
    assert all(0 <= v < t.size(len(a)) for a, v in x.items())


def test_sample_partite_coordinates():
    spec = families.highorder_family(3)
    mu = templates.uniform_partite_prob(spec.cls.template)
    x = sampler.sample_partite_config(mu, 2, sampler.stream("p", 0))
    assert set(x) == set(indexing.part_indices(2, 2))


def test_sample_config_converts_no_fraction(monkeypatch):
    # mu's float rows are built with mu; a draw reads them as they are
    mu = templates.uniform_prob(families.highorder_family(3).cls.template)
    plain = _unary_scenario().mu
    calls = []
    to_float = Fraction.__float__
    monkeypatch.setattr(
        Fraction, "__float__", lambda q: calls.append(q) or to_float(q)
    )
    for nu in (mu, plain):
        sampler.sample_config(nu, 4, sampler.stream("f", 0))
    assert calls == []


def test_float_rows_are_the_weights_as_floats():
    plain = _unary_scenario().mu
    assert plain.floats == {1: [1 / 3, 2 / 3]}
    pt = templates.PartiteTemplate(2, {(1,): 2, (2,): 3, (1, 2): 2})
    third = Fraction(1, 3)
    weights = {(1,): (Fraction(1), Fraction(0)), (2,): (third,) * 3, (1, 2): (0, 1)}
    for mu in (plain, templates.ProbTemplate(pt, weights)):
        t = mu.template
        assert mu.floats.keys() == t.per_space(t.sizes).keys()
        for a, row in mu.floats.items():
            assert row == [float(mu.weight(a, v)) for v in range(t.size(a))]
            assert all(type(w) is float for w in row)


def test_joint_law_is_lazy_and_refuses_eagerly():
    t = templates.Template(1, (2,))
    mu = templates.uniform_prob(t)
    law = sampler.joint_law(mu, 3, mu)
    assert not isinstance(law, list)
    assert sum(p for *_, p in law) == 1
    with pytest.raises(ValueError, match="exact law"):
        sampler.joint_law(mu, 11, mu)


def test_labeled_sample_trivial_aux():
    sc = _unary_scenario()
    x, y = sampler.labeled_sample(sc, 4, sampler.stream("t", 0))
    assert y == star(sc.F, x, 4)


def test_exact_law_dirac():
    t = templates.Template(1, (1,))
    mu = templates.ProbTemplate(t, ((Fraction(1),),))
    F = Hypothesis(1, t, (0,), lambda x: 0, name="z")
    law = sampler.exact_sample_law(sampler.Scenario(mu, F), 2)
    assert len(law) == 1
    assert list(law.values()) == [Fraction(1)]


def test_exact_law_mass_one():
    sc = _unary_scenario()
    law = sampler.exact_sample_law(sc, 3)
    assert sum(law.values()) == 1


def test_exact_law_size_guard():
    t = templates.Template(1, (2,))
    mu = templates.uniform_prob(t)
    tj = templates.product_template(t, t)
    F = Hypothesis(1, tj, (0,), lambda x: 0, name="z")
    sc = sampler.Scenario(mu, F, mu2=mu)
    with pytest.raises(ValueError):
        sampler.exact_sample_law(sc, 11)


def test_exchangeability_exact():
    # the law of (sigma*(x), sigma*(y)) equals the law of (x, y)
    sc = _unary_scenario()
    law = sampler.exact_sample_law(sc, 2)
    sigma = (2, 1)
    permuted = {}
    for (xi, yi), p in law.items():
        x = dict(xi)
        y = dict(yi)
        x2 = indexing.pullback(sigma, x)
        y2 = {alpha: y[indexing.compose(sigma, alpha)] for alpha in y}
        key = (tuple(sorted(x2.items())), tuple(sorted(y2.items())))
        permuted[key] = permuted.get(key, Fraction(0)) + p
    assert permuted == law


def test_locality_exact():
    # marginals of a labeled sample on disjoint vertex sets are independent
    sc = _unary_scenario()
    law = sampler.exact_sample_law(sc, 2)
    joint = {}
    m1 = {}
    m2 = {}
    for (xi, yi), p in law.items():
        x, y = dict(xi), dict(yi)
        a = (x[(1,)], y[(1,)])
        b = (x[(2,)], y[(2,)])
        joint[(a, b)] = joint.get((a, b), Fraction(0)) + p
        m1[a] = m1.get(a, Fraction(0)) + p
        m2[b] = m2.get(b, Fraction(0)) + p
    for (a, b), p in joint.items():
        assert p == m1[a] * m2[b]


def test_empirical_matches_exact_law():
    sc = _unary_scenario()
    law = sampler.exact_sample_law(sc, 2)
    trials = 4000
    freqs = sampler.empirical_frequencies(sc, 2, "xcheck", trials)
    for key, p in law.items():
        sigma = math.sqrt(float(p) * (1 - float(p)) / trials)
        assert abs(float(freqs.get(key, 0)) - float(p)) <= 4 * sigma + 1e-9


def test_agnostic_labels_use_joined_sample():
    t = templates.Template(1, (2,))
    mu = templates.uniform_prob(t)
    mu2 = templates.uniform_prob(t)
    tj = templates.product_template(t, t)
    F = Hypothesis(1, tj, (0, 1), lambda x: x[(1,)] % 2, name="par")
    sc = sampler.Scenario(mu, F, mu2=mu2)
    x, y = sampler.labeled_sample(sc, 3, sampler.stream("ag", 0))
    # labels may depend on the hidden x'; they still index by injections
    assert set(y) == {(1,), (2,), (3,)}
    assert set(x) == {(1,), (2,), (3,)}
