import time
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from harity import families, indexing, losses, sampler, templates
from harity.hypotheses import (
    Hypothesis,
    canonical_key,
    constant_hypothesis,
    pattern,
    perms,
    star,
    star_partite,
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
    ell = losses.zero_one_loss((0, 1), 1)
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


def _thirds_loss(k, partite):
    # a Fraction-valued loss: a third per disagreeing label
    def fn(x, y, yp):
        if partite:
            return Fraction(int(y != yp), 3)
        return Fraction(sum(a != b for a, b in zip(y, yp)), 3)

    return losses.LossFn(k, (0, 1), fn, name="thirds")


def test_empirical_losses_equal_the_per_term_fraction_sum():
    spec = families.matching_family(2)
    mu = templates.uniform_prob(spec.cls.template)
    F = spec.cls.members[1]
    H = Hypothesis(2, spec.cls.template, (0, 1), lambda z: z[(1,)] % 2)
    m = 6
    x = sampler.sample_config(mu, m, sampler.stream("thirds", 0))
    y = star(F, x, m)
    ell = _thirds_loss(2, False)
    expected = Fraction(0)
    for u in combinations(range(1, m + 1), 2):
        xu = indexing.pullback(u, x)
        yu = tuple(y[indexing.compose(u, tau)] for tau in perms(2))
        expected += Fraction(ell(xu, pattern(H, xu), yu))
    got = losses.empirical_loss_nonpartite(x, y, ell, H, m)
    assert got == expected / comb(m, 2) and 0 < got < 1

    ho = families.highorder_family(3).cls
    mu = templates.uniform_partite_prob(ho.template)
    F, H = ho.members[-1], ho.members[1]
    x = sampler.sample_partite_config(mu, 4, sampler.stream("thirds", 1))
    y = star_partite(F, x, 4)
    ell = _thirds_loss(2, True)
    expected = Fraction(0)
    for alpha in product(range(1, 5), repeat=2):
        xa = indexing.pullback_partite(alpha, x)
        expected += Fraction(ell(xa, H(xa), y[alpha]))
    got = losses.empirical_loss_partite(x, y, ell, H, 4)
    assert got == expected / 4**2 and 0 < got < 1


# the per-atom definitions the exact totals had before ``losses.totals``


def _old_total_loss(mu, F, ell, H):
    total = Fraction(0)
    for x, p in templates.config_law(mu, ell.k):
        total += p * Fraction(ell(x, pattern(H, x), pattern(F, x)))
    return total


def _old_total_loss_partite(mu, F, ell, H):
    total = Fraction(0)
    for x, p in templates.partite_config_law(mu, 1):
        total += p * Fraction(ell(x, H(x), F(x)))
    return total


def _old_total_loss_ag(mu, mu2, F, ell_ag, H):
    if mu.template.partite:
        law, m, labels = templates.partite_config_law, 1, F
    else:
        law, m, labels = templates.config_law, ell_ag.k, lambda z: pattern(F, z)
    total = Fraction(0)
    for x, p in law(mu, m):
        for xp, q in law(mu2, m):
            y = labels(templates.join_config(mu.template, mu2.template, x, xp))
            total += p * q * Fraction(ell_ag(H, x, y))
    return total


def _totals_plain():
    # a zero-weight point at arity 2, an order-sensitive F and H, and losses
    # that read the pattern asymmetrically or in thirds
    t = templates.Template(2, (2, 2))
    mu = templates.ProbTemplate(
        t, ((Fraction(1, 4), Fraction(3, 4)), (Fraction(0), Fraction(1)))
    )
    F = Hypothesis(2, t, (0, 1), lambda x: x[(1,)])
    Hs = [
        Hypothesis(2, t, (0, 1), lambda x: int(x[(1,)] < x[(2,)]) ^ x[(1, 2)]),
        constant_hypothesis(2, t, (0, 1), 1),
        F,
    ]
    second = losses.LossFn(2, (0, 1), lambda x, y, yp: int(y[1] != yp[1]))
    ells = [second, losses.zero_one_loss((0, 1), 2), _thirds_loss(2, False)]
    return mu, None, F, ells, Hs


def _totals_partite():
    pt = templates.PartiteTemplate(2, {(1,): 2, (2,): 3, (1, 2): 2})
    weights = {(1,): (1, 2), (2,): (0, 1, 3), (1, 2): (3, 1)}
    mu = templates.ProbTemplate(
        pt, {a: tuple(Fraction(w, sum(ws)) for w in ws) for a, ws in weights.items()}
    )
    F = Hypothesis(2, pt, (0, 1), lambda x: (x[((1, 1),)] + x[((1, 1), (2, 1))]) % 2)
    Hs = [Hypothesis(2, pt, (0, 1), lambda x: int(x[((2, 1),)] == 2)), F]
    ells = [losses.zero_one_loss((0, 1), 2), _thirds_loss(2, True)]
    return mu, None, F, ells, Hs


def _with_mu2(instance):
    # the agnostic total of an instance: mu' is mu with each weight vector
    # reversed, and F over the product template reads the hidden value too
    def build():
        mu, _, F, ells, Hs = instance()
        t = mu.template
        tt = templates.product_template(t, t)
        if t.partite:
            mu2 = templates.ProbTemplate(
                t, {a: w[::-1] for a, w in mu.weights.items()}
            )
        else:
            mu2 = templates.ProbTemplate(t, tuple(w[::-1] for w in mu.weights))
        G = Hypothesis(F.k, tt, F.labels, lambda x: sum(x.values()) % 2)
        return mu, mu2, G, [losses.wrap_agnostic(ell) for ell in ells], Hs

    return build


@pytest.mark.parametrize(
    "instance",
    [_totals_plain, _totals_partite, _with_mu2(_totals_plain), _with_mu2(_totals_partite)],
    ids=["plain", "partite", "agnostic-plain", "agnostic-partite"],
)
def test_totals_equal_the_per_atom_sums(instance):
    mu, mu2, F, ells, Hs = instance()
    seen = set()
    for ell in ells:
        total = losses.totals(mu, F, ell, mu2)
        for H in Hs:
            if mu2 is not None:
                expected = _old_total_loss_ag(mu, mu2, F, ell, H)
                wrapped = losses.total_loss_ag(mu, mu2, F, ell, H)
            elif mu.template.partite:
                expected = _old_total_loss_partite(mu, F, ell, H)
                wrapped = losses.total_loss_partite(mu, F, ell, H)
            else:
                expected = _old_total_loss(mu, F, ell, H)
                wrapped = losses.total_loss(mu, F, ell, H)
            got = total(H)
            assert type(got) is Fraction and got == wrapped == expected
            seen.add(got)
    assert len(seen) > 2  # the instance tells the hypotheses and losses apart


def test_totals_refuse_float_values():
    mu, _, F, _, Hs = _totals_plain()
    half = losses.LossFn(2, (0, 1), lambda x, y, yp: 0.5)
    with pytest.raises(TypeError):
        losses.total_loss(mu, F, half, Hs[0])
    mu, mu2, G, _, Hs = _with_mu2(_totals_partite)()
    half = losses.LossFn(2, (0, 1), lambda x, y, yp: 0.5)
    with pytest.raises(TypeError):
        losses.totals(mu, G, losses.wrap_agnostic(half), mu2)(Hs[0])


def test_totals_pull_each_atom_back_once_per_orbit_point(monkeypatch):
    # F's labels are read over the stored orbit, not pulled back again
    cls = families.matching_family(4).cls
    mu = templates.uniform_prob(cls.template)
    pull = indexing.pullback
    calls = []
    monkeypatch.setattr(indexing, "pullback", lambda *a: calls.append(a) or pull(*a))
    losses.totals(mu, cls.members[-1], losses.zero_one_loss(cls.labels, 2))
    atoms = len(templates.config_law(mu, 2))
    assert len(calls) == atoms * len(perms(2))


def test_totals_refuse_a_law_above_the_cap():
    # 10^7 atoms for the plain total, 1,100^2 for the agnostic one
    mu = templates.uniform_prob(templates.Template(3, (10, 10, 10)))
    F = constant_hypothesis(3, mu.template, (0, 1), 0)
    mu2 = templates.uniform_prob(templates.Template(2, (10, 11)))
    G = constant_hypothesis(2, mu2.template, (0, 1), 0)
    ag = losses.wrap_agnostic(losses.zero_one_loss((0, 1), 2))
    started = time.perf_counter()
    with pytest.raises(ValueError, match="exact law"):
        losses.total_loss(mu, F, losses.zero_one_loss((0, 1), 3), F)
    with pytest.raises(ValueError, match="exact law"):
        losses.total_loss_ag(mu2, mu2, G, ag, G)
    assert time.perf_counter() - started < 1


def test_bayes_refuses_a_product_above_the_cap():
    # 64,000 points of the learner's template times 64,000 atoms of mu'
    t = templates.Template(2, (40, 40))
    mu = templates.uniform_prob(t)
    F = constant_hypothesis(2, templates.product_template(t, t), (0, 1), 0)
    started = time.perf_counter()
    with pytest.raises(ValueError, match="exact law"):
        losses.bayes_predictor(mu, mu, F, losses.zero_one_loss((0, 1), 2))
    assert time.perf_counter() - started < 1


def test_empirical_loss_refuses_float_values():
    t = templates.Template(2, (2, 1))
    H = constant_hypothesis(2, t, (0, 1), 0)
    ell = losses.LossFn(2, (0, 1), lambda x, y, yp: 0.5)
    x = {(1,): 0, (2,): 1, (1, 2): 0}
    with pytest.raises(TypeError):
        losses.empirical_loss_nonpartite(x, {(1, 2): 0, (2, 1): 1}, ell, H, 2)


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
    assert ag.sup_norm == ell.sup_norm


PLAIN_1, PLAIN_2 = templates.Template(1, (1,)), templates.Template(2, (1, 1))


def test_flexibility_constants():
    assert losses.flexibility_witness_01((0, 1), PLAIN_1).constant == Fraction(1, 2)
    partite = templates.partize_template(PLAIN_1, 1)
    assert losses.flexibility_witness_01((0, 1, 2), partite).constant == Fraction(2, 3)
    # a uniformly random full pattern misses a fixed one with prob 1 - L^{-k!}
    assert losses.flexibility_witness_01((0, 1), PLAIN_2).constant == Fraction(3, 4)


def test_flexibility_noise_uniform_law():
    # the noise source enumerates exactly the uniform label tensors
    w = losses.flexibility_witness_01((0, 1), PLAIN_2)
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
    w = losses.flexibility_witness_01((0, 1), templates.partize_template(PLAIN_2, 2))
    assert w.r_n(2) == 2 ** 4
    tensor = w.noise({}, 0, 2)
    assert set(tensor) == {(i, j) for i in (1, 2) for j in (1, 2)}


def test_extend_with_neutral():
    ell = losses.zero_one_loss((0, 1), 2)
    ag = losses.wrap_agnostic(ell)
    w = losses.flexibility_witness_01((0, 1), PLAIN_2)
    ext = losses.extend_with_neutral(ag, w)
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
    assert ext.labels == (0, 1, losses.BOTTOM)
    # on the witness's partite template the symbol touches a single label
    pt = templates.partize_template(PLAIN_2, 2)
    w = losses.flexibility_witness_01((0, 1), pt)
    ext = losses.extend_with_neutral(ag, w)
    assert ext(H0, x, losses.BOTTOM) == w.constant == Fraction(1, 2)
    assert ext(H0, x, (0, 0)) == ag(H0, x, (0, 0))


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
    mu2 = templates.ProbTemplate(
        pt2, {(1,): (Fraction(9, 10), Fraction(1, 10))}
    )
    tj = templates.product_template(pt, pt2)
    F = Hypothesis(
        1, tj, (0, 1), lambda x: x[((1, 1),)] % 2, name="F"
    )
    ell = losses.zero_one_loss((0, 1), 1)
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
    mu = templates.ProbTemplate(pt, {(1,): (Fraction(2, 3), Fraction(1, 3))})
    mu2 = templates.ProbTemplate(pt, {(1,): (Fraction(1, 4), Fraction(3, 4))})
    F = Hypothesis(
        1,
        templates.product_template(pt, pt),
        (0, 1),
        lambda x: (x[((1, 1),)] // 2 + x[((1, 1),)]) % 2,
    )
    return mu, mu2, F, losses.zero_one_loss((0, 1), 1)


def _bayes_plain_second_entry():
    # an asymmetric loss: it reads only the pattern entry at the swap (2, 1),
    # so an orbit's two points weigh the two labels differently
    mu, mu2, F, ell = _bayes_plain()
    second = lambda x, y, yp: int(y[1] != yp[1])  # noqa: E731
    return mu, mu2, F, losses.LossFn(2, ell.labels, second)


@pytest.mark.parametrize(
    "instance",
    [_bayes_plain, _bayes_partite, _bayes_plain_second_entry],
    ids=["plain", "partite", "plain-asymmetric"],
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
