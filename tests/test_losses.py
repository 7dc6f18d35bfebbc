from fractions import Fraction
from itertools import product

import pytest

from harity import families, indexing, losses, templates
from harity.hypotheses import (
    Hypothesis,
    canonical_key,
    constant_hypothesis,
    pattern,
    perms,
    star,
)


def _two_point_unary():
    return templates.Template(1, (2,))


def test_zero_one_basics():
    ell = losses.zero_one_loss((0, 1), 2)
    x = {(1,): 0, (2,): 0, (1, 2): 0}
    assert ell(x, (0, 1), (0, 1)) == 0
    assert ell(x, (0, 1), (1, 0)) == 1
    assert ell.sup_norm == 1 and ell.separation == 1 and ell.symmetric


def test_loss_metadata_matches_cache():
    ell = losses.zero_one_loss((0, 1), 2)
    t = templates.Template(2, (2, 1))
    sup, sep, sym = losses.loss_metadata(ell, t)
    assert (sup, sep, sym) == (ell.sup_norm, ell.separation, ell.symmetric)


def test_total_loss_trivia():
    t = _two_point_unary()
    mu = templates.uniform_prob(t)
    ell = losses.zero_one_loss((0, 1), 1)
    F = Hypothesis(1, t, (0, 1), lambda x: x[(1,)], name="id")
    assert losses.total_loss(mu, F, ell, F) == 0
    H = Hypothesis(1, t, (0, 1), lambda x: 1 - x[(1,)], name="flip")
    assert losses.total_loss(mu, F, ell, H) == 1
    # disagree on exactly one of the two points
    G = constant_hypothesis(1, t, (0, 1), 0)
    assert losses.total_loss(mu, F, ell, G) == Fraction(1, 2)


def test_total_loss_dirac():
    t = _two_point_unary()
    mu = templates.ProbTemplate(t, ((Fraction(1), Fraction(0)),))
    ell = losses.zero_one_loss((0, 1), 1)
    F = constant_hypothesis(1, t, (0, 1), 1)
    H = constant_hypothesis(1, t, (0, 1), 0)
    assert losses.total_loss(mu, F, ell, H) == 1


def test_empirical_partite_hand_values():
    ell = losses.zero_one_loss((0, 1), 1, setting="partite")
    x = {((1, 1),): 0, ((1, 2),): 1}
    t = templates.PartiteTemplate(1, {(1,): 2})
    H = Hypothesis(1, t, (0, 1), lambda z: z[((1, 1),)], name="id")
    y = {(1,): 0, (2,): 0}  # one disagreement with H
    assert losses.empirical_loss_partite(x, y, ell, H, 2) == Fraction(1, 2)
    assert losses.empirical_loss_partite(
        {((1, 1),): 1}, {(1,): 1}, ell, H, 1
    ) == 0


def test_empirical_nonpartite_m_equals_k():
    ell = losses.zero_one_loss((0, 1), 2)
    t = templates.Template(2, (2, 1))
    H = constant_hypothesis(2, t, (0, 1), 0)
    x = {(1,): 0, (2,): 1, (1, 2): 0}
    y = {(1, 2): 0, (2, 1): 1}
    val = losses.empirical_loss_nonpartite(x, y, ell, H, 2)
    assert val == 1  # pattern (0,0) vs (0,1)


def test_order_choice_invariance_symmetric():
    # symmetric loss: reading each 2-subset through either of its two
    # injections (an order choice) gives the library's empirical loss
    ell = losses.zero_one_loss((0, 1), 2)
    spec = families.matching_family(2)
    F, H = spec.cls.members[1], spec.cls.members[2]
    x = {(1,): 0, (2,): 1, (3,): 2, (1, 2): 0, (1, 3): 0, (2, 3): 0}
    y = star(F, x, 3)
    expected = losses.empirical_loss_nonpartite(x, y, ell, H, 3)
    for picks in product((0, 1), repeat=3):
        total = Fraction(0)
        for u, p in zip([(1, 2), (1, 3), (2, 3)], picks):
            alpha = u if p == 0 else (u[1], u[0])
            xa = indexing.pullback(alpha, x)
            ya = tuple(y[indexing.compose(alpha, tau)] for tau in perms(2))
            total += ell(xa, pattern(H, xa), ya)
        assert total / 3 == expected


def test_wrap_agnostic():
    ell = losses.zero_one_loss((0, 1), 2)
    ag = losses.wrap_agnostic(ell)
    t = templates.Template(2, (2, 1))
    H = constant_hypothesis(2, t, (0, 1), 0)
    x = {(1,): 0, (2,): 1, (1, 2): 0}
    assert ag(H, x, (0, 0)) == ell(x, pattern(H, x), (0, 0))
    assert ag.regularizer(H) == 0
    assert ag.sup_norm == ell.sup_norm


def test_flexibility_constants():
    assert losses.flexibility_witness_01((0, 1), 1).constant == Fraction(1, 2)
    assert losses.flexibility_witness_01(
        (0, 1, 2), 1, setting="partite"
    ).constant == Fraction(2, 3)
    # a uniformly random full pattern misses a fixed one with prob 1 - L^{-k!}
    assert losses.flexibility_witness_01((0, 1), 2).constant == Fraction(3, 4)


def test_flexibility_noise_uniform_law():
    # the noise source enumerates exactly the uniform label tensors
    w = losses.flexibility_witness_01((0, 1), 2)
    m = 2
    assert w.r_n(m) == 2 ** 2  # (m)_k = 2 injections
    seen = set()
    for b in range(w.r_n(m)):
        tensor = w.noise({}, b, m)
        assert set(tensor) == {(1, 2), (2, 1)}
        seen.add(tuple(sorted(tensor.items())))
    assert len(seen) == 4
    with pytest.raises(ValueError):
        w.noise({}, w.r_n(m), m)


def test_flexibility_noise_partite_count():
    w = losses.flexibility_witness_01((0, 1), 2, setting="partite")
    assert w.r_n(2) == 2 ** 4
    tensor = w.noise({}, 0, 2)
    assert set(tensor) == {(i, j) for i in (1, 2) for j in (1, 2)}


def test_extend_with_neutral():
    ell = losses.zero_one_loss((0, 1), 2)
    ag = losses.wrap_agnostic(ell)
    w = losses.flexibility_witness_01((0, 1), 2)
    ext, info = losses.extend_with_neutral(ag, w)
    t = templates.Template(2, (2, 1))
    x = {(1,): 0, (2,): 1, (1, 2): 0}
    H0 = constant_hypothesis(2, t, (0, 1), 0)
    H1 = constant_hypothesis(2, t, (0, 1), 1)
    # bottom anywhere in the pattern: constant, independent of H
    for y in [(losses.BOTTOM, 0), (1, losses.BOTTOM)]:
        assert ext(H0, x, y) == w.constant
        assert ext(H1, x, y) == w.constant
    # bottom-free: original value
    assert ext(H0, x, (0, 0)) == ag(H0, x, (0, 0))
    assert info.bottom == losses.BOTTOM


def test_bayes_deterministic_f():
    t = _two_point_unary()
    mu = templates.uniform_prob(t)
    mu2 = templates.ProbTemplate(templates.Template(1, (1,)), ((Fraction(1),),))
    tj = templates.product_template(t, templates.Template(1, (1,)))
    F = Hypothesis(1, tj, (0, 1), lambda x: x[(1,)], name="id")
    ell = losses.zero_one_loss((0, 1), 1)
    B = losses.bayes_predictor(mu, mu2, F, ell)
    ag = losses.wrap_agnostic(ell)
    assert losses.total_loss_ag(mu, mu2, F, ag, B) == 0


def test_bayes_beats_class_members():
    t = templates.Template(2, (2, 1))
    t2 = templates.Template(2, (2, 1))
    mu = templates.uniform_prob(t)
    mu2 = templates.ProbTemplate(
        t2, ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1),))
    )
    tj = templates.product_template(t, t2)
    F = Hypothesis(
        2, tj, (0, 1), lambda x: (x[(1,)] + x[(2,)] + x[(1, 2)]) % 2, name="F"
    )
    ell = losses.zero_one_loss((0, 1), 2)
    ag = losses.wrap_agnostic(ell)
    B = losses.bayes_predictor(mu, mu2, F, ell)
    bloss = losses.total_loss_ag(mu, mu2, F, ag, B)
    for v in (0, 1):
        H = constant_hypothesis(2, t, (0, 1), v)
        assert bloss <= losses.total_loss_ag(mu, mu2, F, ag, H)


def test_bayes_partite():
    pt = templates.PartiteTemplate(1, {(1,): 2})
    pt2 = templates.PartiteTemplate(1, {(1,): 2})
    mu = templates.uniform_partite_prob(pt)
    mu2 = templates.PartiteProbTemplate(
        pt2, {(1,): (Fraction(9, 10), Fraction(1, 10))}
    )
    tj = templates.product_partite_template(pt, pt2)
    F = Hypothesis(
        1, tj, (0, 1), lambda x: x[((1, 1),)] % 2, name="F"
    )
    ell = losses.zero_one_loss((0, 1), 1, setting="partite")
    ag = losses.wrap_agnostic(ell)
    B = losses.bayes_predictor(mu, mu2, F, ell)
    bloss = losses.total_loss_ag(mu, mu2, F, ag, B)
    for v in (0, 1):
        H = constant_hypothesis(1, pt, (0, 1), v)
        assert bloss <= losses.total_loss_ag(mu, mu2, F, ag, H)


def _bayes_plain():
    t = templates.Template(2, (2, 1))
    mu = templates.ProbTemplate(t, ((Fraction(2, 3), Fraction(1, 3)), (Fraction(1),)))
    mu2 = templates.ProbTemplate(t, ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1),)))
    # the joined value at {1} is 2a + b for the learner's a and the hidden b;
    # F reads a + b mod 2, so an orbit's two points get different labels
    F = Hypothesis(
        2,
        templates.product_template(t, t),
        (0, 1),
        lambda x: (x[(1,)] // 2 + x[(1,)]) % 2,
    )
    return mu, mu2, F, losses.zero_one_loss((0, 1), 2)


def _bayes_partite():
    pt = templates.PartiteTemplate(1, {(1,): 2})
    mu = templates.PartiteProbTemplate(pt, {(1,): (Fraction(2, 3), Fraction(1, 3))})
    mu2 = templates.PartiteProbTemplate(pt, {(1,): (Fraction(1, 4), Fraction(3, 4))})
    F = Hypothesis(
        1,
        templates.product_partite_template(pt, pt),
        (0, 1),
        lambda x: (x[((1, 1),)] // 2 + x[((1, 1),)]) % 2,
    )
    return mu, mu2, F, losses.zero_one_loss((0, 1), 1, setting="partite")


@pytest.mark.parametrize(
    "instance", [_bayes_plain, _bayes_partite], ids=["plain", "partite"]
)
def test_bayes_loss_is_the_minimum_over_the_domain(instance):
    # brute force: the Bayes predictor's loss is the least total loss of
    # every function on the domain (16 plain, 4 partite)
    mu, mu2, F, ell = instance()
    ag = losses.wrap_agnostic(ell)
    t = mu.template
    keys = [canonical_key(x) for x in templates.domain_points(t, ell.k)]
    totals = []
    for values in product(ell.labels, repeat=len(keys)):
        table = dict(zip(keys, values))
        H = Hypothesis(ell.k, t, ell.labels, lambda x, tab=table: tab[canonical_key(x)])
        totals.append(losses.total_loss_ag(mu, mu2, F, ag, H))
    assert len(totals) == {2: 16, 1: 4}[ell.k]
    B = losses.bayes_predictor(mu, mu2, F, ell)
    assert losses.total_loss_ag(mu, mu2, F, ag, B) == min(totals) < max(totals)


def test_permute_pattern_identity():
    y = (0, 1)
    assert losses.permute_pattern(y, (1, 2), 2) == (0, 1)
    assert losses.permute_pattern(y, (2, 1), 2) == (1, 0)
