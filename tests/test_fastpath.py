from fractions import Fraction

import pytest

from harity import families, fastpath, losses, sampler, templates
from harity.hypotheses import star, star_partite


def _matching_ctx(n=2):
    spec = families.matching_family(n)
    cls = spec.cls
    mu = templates.uniform_prob(cls.template)
    F = cls.members[-1]
    ell = losses.zero_one_loss(cls.labels, 2)
    return cls, mu, F, fastpath.PairContext(mu, F, ell), ell


def test_pair_empirical_matches_generic():
    # the fast route reads the same stream prefix the generic route reads,
    # so both see identical unary values and identical empirical losses
    cls, mu, F, ctx, ell = _matching_ctx()
    sc = sampler.Scenario(mu, F)
    tables = [ctx.loss_table(H) for H in cls.members]
    for t in range(25):
        u = ctx.draw_unary(sampler.stream("fp", t), 6)
        x, y = sampler.labeled_sample(sc, 6, sampler.stream("fp", t))
        assert u == [x[(i,)] for i in range(1, 7)]
        for H, V in zip(cls.members, tables):
            assert ctx.empirical(V, u) == losses.empirical_loss_nonpartite(
                x, y, ell, H, 6
            )


def test_pair_rejects_wrong_shape():
    cls, mu, F, ctx, _ = _matching_ctx()
    with pytest.raises(ValueError):
        fastpath.PairContext(mu, F, losses.zero_one_loss((0, 1), 1))


def test_pair_rejects_asymmetric_loss():
    from harity.hypotheses import Hypothesis

    cls, mu, F, _, _ = _matching_ctx()
    bad = losses.LossFn(
        2,
        "nonpartite",
        (0, 1),
        lambda x, y, yp: 1 if y[0] != yp[0] else 0,
        name="left-only",
        sup_norm=Fraction(1),
    )
    ctx = fastpath.PairContext(mu, F, bad)
    # an order-sensitive hypothesis breaks the unordered-pair symmetry
    H = Hypothesis(
        2,
        cls.template,
        (0, 1),
        lambda x: 1 if x[(1,)] < x[(2,)] else 0,
        name="lt",
        declared_rank=1,
    )
    with pytest.raises(ValueError):
        ctx.loss_table(H)


def test_lazy_pair_labels():
    cls, mu, F, ctx, _ = _matching_ctx()
    u = [0, 1, 2]
    lazy = fastpath.LazyPairLabels(ctx.ftable, u)
    x = {(i,): v for i, v in enumerate(u, start=1)}
    y = star(F, {**x, (1, 2): 0, (1, 3): 0, (2, 3): 0}, 3)
    for alpha in y:
        assert lazy[alpha] == y[alpha]


def _two_partite_setup():
    spec = families.highorder_family(3)
    cls = spec.cls
    mu = templates.uniform_partite_prob(cls.template)
    F = cls.members[-1]
    H = cls.members[1]
    ell = losses.zero_one_loss(cls.labels, 2, setting="partite")
    return cls, mu, F, H, ell


def test_two_partite_draw_matches_generic():
    cls, mu, F, H, ell = _two_partite_setup()
    ctx = fastpath.TwoPartiteContext(mu, F, ell)
    V = ctx.loss_table(H)
    sc = sampler.Scenario(mu, F)
    for t in range(20):
        s1, s2, p = ctx.draw(sampler.stream("tp", t), 3)
        x = sampler.sample_partite_config(mu, 3, sampler.stream("tp", t))
        for j in range(1, 4):
            assert s1[j - 1] == x[((1, j),)]
            assert s2[j - 1] == x[((2, j),)]
        for i in range(1, 4):
            for j in range(1, 4):
                assert p[i - 1, j - 1] == x[((1, i), (2, j))]
        y = star_partite(F, x, 3)
        assert ctx.empirical(V, (s1, s2, p)) == losses.empirical_loss_partite(
            x, y, ell, H, 3
        )


def test_two_partite_rejects_nonpartite_loss():
    cls, mu, F, H, _ = _two_partite_setup()
    with pytest.raises(ValueError):
        fastpath.TwoPartiteContext(mu, F, losses.zero_one_loss((0, 1), 2))


def test_contexts_refuse_a_sample_without_units():
    cls, mu, F, ctx, ell = _matching_ctx()
    V = ctx.loss_table(cls.members[0])
    with pytest.raises(ValueError, match="m = 1 has no unit of arity k = 2"):
        ctx.empirical(V, ctx.draw(sampler.stream("tiny", 0), 1))
    cls, mu, F, H, ell = _two_partite_setup()
    ctx = fastpath.TwoPartiteContext(mu, F, ell)
    with pytest.raises(ValueError, match="m = 0 has no unit of arity k = 2"):
        ctx.empirical(ctx.loss_table(H), ctx.draw(sampler.stream("tiny", 0), 0))
