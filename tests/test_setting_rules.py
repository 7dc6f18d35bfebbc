"""One F*, one empirical loss, one exact law and one sampler serve both
settings through the template's rules.  Each is checked here against the
old per-setting bodies, written out: a plain template, a 2-partite template
and an agnostic joined sample, with an order-sensitive H and F and a
Fraction-valued loss that reads the pattern asymmetrically."""

from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from harity import indexing, losses, sampler, templates
from harity.hypotheses import Hypothesis, pattern, perms, star, star_partite

# ---------------------------------------------------------------------------
# the old per-setting bodies


def _old_star(F, x, m):
    return {
        alpha: F(indexing.pullback(alpha, x))
        for alpha in indexing.injections(m, F.k)
    }


def _old_star_partite(F, x, m):
    return {
        alpha: F(indexing.pullback_partite(alpha, x))
        for alpha in product(range(1, m + 1), repeat=F.k)
    }


def _old_empirical_loss_nonpartite(x, y, ell, H, m):
    taus = [[t - 1 for t in tau] for tau in perms(ell.k)]
    total = 0
    for u in combinations(range(1, m + 1), ell.k):
        xu = indexing.pullback(u, x)
        yy = tuple(y[tuple(u[t] for t in tau)] for tau in taus)
        total += ell(xu, pattern(H, xu), yy)
    return Fraction(total, comb(m, ell.k))


def _old_empirical_loss_partite(x, y, ell, H, m):
    total = 0
    for alpha in product(range(1, m + 1), repeat=ell.k):
        xa = indexing.pullback_partite(alpha, x)
        total += ell(xa, H(xa), y[alpha])
    return Fraction(total, m**ell.k)


def _old_coordinates(mu, m):
    """Each coordinate of a size-m sample with its weight vector: subsets of
    [m] by arity, or partite indices by part set."""
    t = mu.template
    if t.partite:
        return [
            (key, mu.weights[tuple(part for part, _ in key)])
            for key in indexing.part_indices(t.k, m)
        ]
    return [(a, mu.weights[len(a) - 1]) for a in indexing.subsets(m, t.k)]


def _old_config_law(mu, m):
    out = [({}, Fraction(1))]
    for key, weights in _old_coordinates(mu, m):
        out = [
            ({**x, key: point}, p * w)
            for x, p in out
            for point, w in enumerate(weights)
            if w != 0
        ]
    return out


def _old_sample_config(mu, m, rng):
    return {
        key: sampler._draw(rng, [float(w) for w in weights])
        for key, weights in _old_coordinates(mu, m)
    }


def _old_setting(mu):
    if mu.template.partite:
        return _old_star_partite, _old_empirical_loss_partite
    return _old_star, _old_empirical_loss_nonpartite


# ---------------------------------------------------------------------------
# instances


def _plain():
    t = templates.Template(2, (2, 3))
    w1 = (Fraction(1, 4), Fraction(3, 4))
    mu = templates.ProbTemplate(t, (w1, (Fraction(0), Fraction(1, 3), Fraction(2, 3))))
    F = Hypothesis(2, t, (0, 1), lambda x: int(x[(1,)] < x[(2,)]) ^ (x[(1, 2)] == 2))
    Hs = [
        Hypothesis(2, t, (0, 1), lambda x: (x[(1,)] + 2 * x[(2,)] + x[(1, 2)]) % 2),
        Hypothesis(2, t, (0, 1), lambda x: x[(2,)]),
        F,
    ]
    ell = losses.LossFn(
        2,
        (0, 1),
        lambda x, y, yp: Fraction(int(y[0] != yp[0]), 3)
        + Fraction(int(y[1] != yp[1]), 2)
        + Fraction(x[(1,)], 5),
    )
    return mu, F, Hs, ell


def _partite():
    t = templates.PartiteTemplate(2, {(1,): 2, (2,): 3, (1, 2): 2})
    weights = {(1,): (1, 2), (2,): (0, 1, 3), (1, 2): (3, 1)}
    mu = templates.ProbTemplate(
        t, {a: tuple(Fraction(w, sum(ws)) for w in ws) for a, ws in weights.items()}
    )
    F = Hypothesis(
        2, t, (0, 1), lambda x: int(x[((1, 1),)] < x[((2, 1),)]) ^ x[((1, 1), (2, 1))]
    )
    Hs = [
        Hypothesis(2, t, (0, 1), lambda x: (x[((2, 1),)] + x[((1, 1), (2, 1))]) % 2),
        Hypothesis(2, t, (0, 1), lambda x: int(x[((2, 1),)] == 2)),
        F,
    ]
    ell = losses.LossFn(
        2,
        (0, 1),
        lambda x, y, yp: Fraction(int(y != yp), 3) + Fraction(x[((1, 1),)], 7),
    )
    return mu, F, Hs, ell


INSTANCES = pytest.mark.parametrize(
    "instance", [_plain, _partite], ids=["plain", "partite"]
)


@INSTANCES
def test_config_law_matches_the_old_bodies(instance):
    mu = instance()[0]
    for m in (1, 2):
        law = templates.config_law(mu, m)
        assert law == _old_config_law(mu, m)
        assert [list(x) for x, _ in law] == [list(x) for x, _ in _old_config_law(mu, m)]
        assert templates.partite_config_law(mu, m) == law


@INSTANCES
def test_sample_config_matches_the_old_bodies(instance):
    mu = instance()[0]
    for m in (3, 5):
        for t in range(5):
            x = sampler.sample_config(mu, m, sampler.stream("rules", t))
            old = _old_sample_config(mu, m, sampler.stream("rules", t))
            assert list(x.items()) == list(old.items())
            assert sampler.sample_partite_config(mu, m, sampler.stream("rules", t)) == x


@INSTANCES
def test_star_and_empirical_loss_match_the_old_bodies(instance):
    mu, F, Hs, ell = instance()
    old_star, old_empirical = _old_setting(mu)
    seen = set()
    for m in (2, 4):
        for t in range(4):
            x = sampler.sample_config(mu, m, sampler.stream("rules", t))
            y = star(F, x, m)
            assert list(y.items()) == list(old_star(F, x, m).items())
            assert star_partite(F, x, m) == y
            for H in Hs:
                got = losses.empirical_loss(x, y, ell, H, m)
                assert type(got) is Fraction and got == old_empirical(x, y, ell, H, m)
                assert losses.empirical_loss_nonpartite(x, y, ell, H, m) == got
                assert losses.empirical_loss_partite(x, y, ell, H, m) == got
                seen.add(got)
    assert len(seen) > 4  # the instance tells the hypotheses and samples apart


def _agnostic(instance):
    """mu' is mu with each weight vector reversed, and F over the product
    template reads the hidden value in an order-sensitive way."""
    mu, _, Hs, ell = instance()
    t = mu.template
    reversed_weights = t.tabulate(lambda a: t.per_space(mu.weights)[a][::-1])
    mu2 = templates.ProbTemplate(t, reversed_weights)
    tt = templates.product_template(t, t)
    first, second = tt.coords(tt.domain(2)[0])[:2]
    F = Hypothesis(2, tt, (0, 1), lambda x: (x[first] + 2 * x[second]) % 3 % 2)
    return sampler.Scenario(mu, F, mu2), Hs, ell


@INSTANCES
def test_agnostic_joined_sample_matches_the_old_bodies(instance):
    sc, Hs, ell = _agnostic(instance)
    old_star, old_empirical = _old_setting(sc.mu)
    t, t2 = sc.mu.template, sc.mu2.template
    for m in (2, 3):
        for s in range(4):
            rng = sampler.stream("rules-ag", s)
            x = _old_sample_config(sc.mu, m, rng)
            joined = templates.join_config(t, t2, x, _old_sample_config(sc.mu2, m, rng))
            y = old_star(sc.F, joined, m)
            got = sampler.labeled_sample(sc, m, sampler.stream("rules-ag", s))
            assert got == (x, y) and list(got[1]) == list(y)
            for H in Hs:
                assert losses.empirical_loss(x, y, ell, H, m) == old_empirical(
                    x, y, ell, H, m
                )
    m, law = t.domain(2)[0], {}  # a domain point: 2 plain vertices, 1 per part
    for x, p in _old_config_law(sc.mu, m):
        for xp, q in _old_config_law(sc.mu2, m):
            y = old_star(sc.F, templates.join_config(t, t2, x, xp), m)
            key = sampler.law_key(x, y)
            law[key] = law.get(key, 0) + p * q
    assert sampler.exact_sample_law(sc, m) == law


# ---------------------------------------------------------------------------
# samples with no unit, and weights that miss or add a space


def test_empirical_loss_refuses_a_sample_without_units():
    mu, F, Hs, ell = _plain()
    x = sampler.sample_config(mu, 1, sampler.stream("tiny", 0))
    with pytest.raises(ValueError, match="m = 1 has no unit of arity k = 2"):
        losses.empirical_loss(x, star(F, x, 1), ell, Hs[0], 1)
    mu, F, Hs, ell = _partite()
    x = sampler.sample_config(mu, 0, sampler.stream("tiny", 0))
    with pytest.raises(ValueError, match="m = 0 has no unit of arity k = 2"):
        losses.empirical_loss(x, star(F, x, 0), ell, Hs[0], 0)


def _partite_weights():
    one, half = (Fraction(1),), (Fraction(1, 2),) * 2
    return {(1,): one, (2,): half, (1, 2): one}


@pytest.mark.parametrize(
    "edit",
    [
        lambda w: w.pop((2,)),
        lambda w: w.update({(3,): (Fraction(1),)}),
        lambda w: w.update({(2,): (Fraction(3, 2), Fraction(-1, 2))}),
        lambda w: w.update({(2,): (Fraction(1, 2), Fraction(1, 3))}),
    ],
    ids=["missing-part-set", "extra-key", "negative-weight", "sum-not-one"],
)
def test_partite_weights_are_checked(edit):
    pt = templates.PartiteTemplate(2, {(1,): 1, (2,): 2, (1, 2): 1})
    mu = templates.ProbTemplate(pt, _partite_weights())
    assert mu.weight((2,), 1) == Fraction(1, 2)
    with pytest.raises(KeyError):
        mu.weight((3,), 0)
    weights = _partite_weights()
    edit(weights)
    with pytest.raises(ValueError):
        templates.ProbTemplate(pt, weights)


def test_plain_weights_missing_or_adding_an_arity_are_refused():
    t = templates.Template(2, (1, 2))
    one, half = (Fraction(1),), (Fraction(1, 2),) * 2
    for weights in [(one,), (one, half, one)]:
        with pytest.raises(ValueError):
            templates.ProbTemplate(t, weights)


def test_one_product_template_for_both_settings():
    plain = templates.product_template(
        templates.Template(2, (2, 3)), templates.Template(1, (5,))
    )
    assert plain == templates.Template(2, (10, 3))
    pt = templates.PartiteTemplate(1, {(1,): 2})
    assert templates.product_template(pt, pt).sizes == {(1,): 4}
    with pytest.raises(ValueError, match="equal k"):
        templates.product_template(pt, _partite()[0].template)
    for pair in ((pt, templates.Template(1, (5,))), (templates.Template(1, (5,)), pt)):
        with pytest.raises(ValueError, match="one setting"):
            templates.product_template(*pair)
