import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from harity import families, fastpath, learners, losses, sampler, templates
from harity.hypotheses import Hypothesis, star, star_partite


def _matching_ctx(n=2):
    spec = families.matching_family(n)
    cls = spec.cls
    mu = templates.uniform_prob(cls.template)
    F = cls.members[-1]
    ell = losses.zero_one_loss(cls.labels, 2)
    return cls, mu, F, fastpath.PairContext(mu, F, ell), ell


def _streams(seed, trials):
    return [sampler.stream(seed, t) for t in range(trials)]


def _ordered_pairs(ranks, n):
    """The count of ordered pairs of distinct sample points by their unary
    support ranks (a, b), a-major."""
    counts = [0] * (n * n)
    for a, b in permutations(ranks, 2):
        counts[a * n + b] += 1
    return counts


def test_pair_empirical_matches_generic():
    # the fast route reads the same stream prefix the generic route reads,
    # so both see identical unary values and identical empirical losses
    cls, mu, F, ctx, ell = _matching_ctx()
    sc = sampler.Scenario(mu, F)
    tables = [ctx.loss_table(H) for H in cls.members]
    blocks = list(ctx.counts(_streams("fp", 25), 6))
    assert {units for _, units in blocks} == {6 * 5}
    counts = np.vstack([c for c, _ in blocks])
    for t in range(25):
        u = ctx.draw_unary(sampler.stream("fp", t), 6)
        x, y = sampler.labeled_sample(sc, 6, sampler.stream("fp", t))
        assert u == [x[(i,)] for i in range(1, 7)]
        # uniform mu: each unary value is its own support rank
        assert counts[t].tolist() == _ordered_pairs(u, ctx.n)
        unary = np.bincount(u, minlength=ctx.n).tolist()
        for H, (D, V) in zip(cls.members, tables):
            expected = losses.empirical_loss_nonpartite(x, y, ell, H, 6)
            assert ctx.empirical((D, V), unary) == expected
            assert Fraction(int(counts[t] @ np.ravel(V)), D * 6 * 5) == expected


def test_empirical_refuses_counts_of_the_wrong_length():
    cls, mu, F, ctx, ell = _matching_ctx()
    V = ctx.loss_table(cls.members[0])
    u = ctx.draw_unary(sampler.stream("len", 0), 6)
    # raw values in place of counts are refused, not read as counts
    with pytest.raises(ValueError, match="need 4 value counts, got 6"):
        ctx.empirical(V, u)
    cls, mu, F, H, ell = _two_partite_setup()
    ctx = fastpath.TwoPartiteContext(mu, F, ell)
    counts = ctx.draw(sampler.stream("len", 0), 3)
    with pytest.raises(ValueError, match="value counts"):
        ctx.empirical(ctx.loss_table(H), counts[:-1])


def test_pair_rejects_wrong_shape():
    cls, mu, F, ctx, _ = _matching_ctx()
    with pytest.raises(ValueError):
        fastpath.PairContext(mu, F, losses.zero_one_loss((0, 1), 1))


def test_pair_rejects_asymmetric_loss():
    from harity.hypotheses import Hypothesis

    cls, mu, F, _, _ = _matching_ctx()
    bad = losses.LossFn(
        2,
        (0, 1),
        lambda x, y, yp: 1 if y[0] != yp[0] else 0,
        name="left-only",
        sup_norm=Fraction(1),
    )
    ctx = fastpath.PairContext(mu, F, bad)
    # an order-sensitive hypothesis breaks the unordered-pair symmetry, so
    # its table does not qualify and the check reads the generic sample
    H = Hypothesis(2, cls.template, (0, 1), lambda x: 1 if x[(1,)] < x[(2,)] else 0)
    assert ctx.loss_table(H) is None
    sc = sampler.Scenario(mu, F)
    _, read = learners._trial_losses(sc, [H], bad)
    ((sums, den),) = read(_streams("asym", 5), 6)
    for t in range(5):
        x, y = sampler.labeled_sample(sc, 6, sampler.stream("asym", t))
        assert [Fraction(int(s), den) for s in sums[t]] == [
            losses.empirical_loss(x, y, bad, H, 6)
        ]


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
    ell = losses.zero_one_loss(cls.labels, 2)
    return cls, mu, F, H, ell


def test_two_partite_draw_matches_generic():
    cls, mu, F, H, ell = _two_partite_setup()
    ctx = fastpath.TwoPartiteContext(mu, F, ell)
    V = ctx.loss_table(H)
    sc = sampler.Scenario(mu, F)
    n2, n12 = cls.template.size((2,)), cls.template.size((1, 2))
    blocked, generic_rngs = _streams("tp", 20), _streams("tp", 20)
    blocks = list(ctx.counts(blocked, 3))
    assert {units for _, units in blocks} == {3 * 3}
    rows = np.vstack([c for c, _ in blocks]).tolist()
    for t in range(20):
        counts = ctx.draw(sampler.stream("tp", t), 3)
        assert rows[t] == counts
        x = sampler.sample_partite_config(mu, 3, sampler.stream("tp", t))
        # the count of each (part-1, part-2, cross) value triple, cross fastest
        expect = [0] * len(counts)
        for i in range(1, 4):
            for j in range(1, 4):
                a, b = x[((1, i),)], x[((2, j),)]
                expect[(a * n2 + b) * n12 + x[((1, i), (2, j))]] += 1
        assert counts == expect
        fast, generic = sampler.stream("tp", t), sampler.stream("tp", t)
        ctx.draw(fast, 3)
        sampler.sample_partite_config(mu, 3, generic)
        assert fast.getstate() == generic.getstate()
        sampler.sample_partite_config(mu, 3, generic_rngs[t])
        assert blocked[t].getstate() == generic_rngs[t].getstate()
        y = star_partite(F, x, 3)
        assert ctx.empirical(V, counts) == losses.empirical_loss_partite(
            x, y, ell, H, 3
        )


def test_contexts_reject_the_other_setting():
    # the setting is mu's template's; a loss names none
    cls, mu, F, H, ell = _two_partite_setup()
    with pytest.raises(ValueError, match="loss on a"):
        fastpath.PairContext(mu, F, ell)
    with pytest.raises(ValueError, match="loss on a"):
        fastpath.TwoPartiteContext(mu, F, losses.zero_one_loss((0, 1), 1))
    _, mu, F, _, ell = _matching_ctx()
    with pytest.raises(ValueError, match="loss on a"):
        fastpath.TwoPartiteContext(mu, F, ell)


def test_contexts_refuse_a_sample_without_units():
    cls, mu, F, ctx, ell = _matching_ctx()
    V = ctx.loss_table(cls.members[0])
    with pytest.raises(ValueError, match="m = 1 has no unit of arity k = 2"):
        ctx.empirical(V, [1, 0, 0, 0])
    pair = ctx
    cls, mu, F, H, ell = _two_partite_setup()
    ctx = fastpath.TwoPartiteContext(mu, F, ell)
    zeros = [0] * len(ctx.draw(sampler.stream("tiny", 0), 1))
    with pytest.raises(ValueError, match="m = 0 has no unit of arity k = 2"):
        ctx.empirical(ctx.loss_table(H), zeros)
    with pytest.raises(ValueError, match="m = 0 has no unit of arity k = 2"):
        ctx.draw(sampler.stream("tiny", 0), 0)
    # a block reader refuses before it reads any stream
    for context, m in ((pair, 1), (pair, 0), (ctx, 0)):
        rng = sampler.stream("tiny", 0)
        with pytest.raises(ValueError, match=f"m = {m} has no unit of arity k = 2"):
            next(context.counts([rng], m))
        assert rng.getstate() == sampler.stream("tiny", 0).getstate()


@pytest.mark.parametrize("n", [0, 1, 2, 7, 63, 64, 65, 1088])
def test_uniforms_read_the_stream_as_random_does(n):
    # one stream is one block of n keys, each random()'s 53-bit numerator K:
    # K * 2^-53 is exact, so it equals random() bit for bit
    bulk, one_by_one = sampler.stream("u", n), sampler.stream("u", n)
    K, *rest = sampler._uniform_blocks((bulk,), n)
    assert not rest and K.shape == (1, n) and K.dtype == np.uint64
    assert [k * 2**-53 for k in K[0].tolist()] == [one_by_one.random() for _ in range(n)]
    assert bulk.getstate() == one_by_one.getstate()


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1088, 4097])
def test_uniform_blocks_read_each_stream_as_uniforms_does(n):
    block = max(1, sampler.BLOCK_UNIFORMS // max(n, 1))
    for trials in (block - 1, block, block + 1):
        blocked, one_by_one = _streams(("b", n), trials), _streams(("b", n), trials)
        blocks = list(sampler._uniform_blocks(blocked, n))
        # whole blocks of at most BLOCK_UNIFORMS uniforms, and one rng at least
        assert [len(u) for u in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert all(u.shape[1] == n for u in blocks) and len(blocks) == -(-trials // block)
        rows = [[k * 2**-53 for k in row.tolist()] for K in blocks for row in K]
        assert rows == [[rng.random() for _ in range(n)] for rng in one_by_one]
        assert [r.getstate() for r in blocked] == [r.getstate() for r in one_by_one]


class _Fixed:
    """A stub rng whose random() returns r."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


@pytest.mark.parametrize(
    "weights, r, expected",
    [
        # r equal to a cumulative weight moves on to the next value
        ((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)), 0.25, 1),
        # ten 0.1s sum to 1 - 2^-53, the largest random() value: r at or
        # above the last cumulative float falls back to the last value
        ((Fraction(1, 10),) * 10, 1 - 2.0**-53, 9),
        ((Fraction(1, 10),) * 10, 1.0, 9),
        # a zero-weight value is never drawn
        ((Fraction(1, 2), Fraction(0), Fraction(1, 2)), 0.5, 2),
        # not even past the float sum, where the last positive weight is drawn
        ((Fraction(1, 10),) * 10 + (Fraction(0),), 1 - 2.0**-53, 9),
    ],
)
def test_decode_agrees_with_the_generic_draw_at_boundaries(weights, r, expected):
    floats = [float(w) for w in weights]
    # the fast route decodes support ranks of keys K = r * 2^53; values maps
    # them to the draws
    values, T = sampler._support(weights)
    K = int(r * 2**53)
    assert K / 2**53 == r and sampler._draw(_Fixed(r), floats) == expected
    assert values[sampler._decode(T, np.array([K], np.uint64))].tolist() == [expected]
    # and on the random() grid points next to every cumulative weight, and
    # at both ends of the grid
    assert _decodes_as_drawn(weights)


def _decodes_as_drawn(weights):
    """Whether ``_decode`` draws what ``_draw`` draws at 0, at 2^53 - 1 and at
    the random() grid points K / 2^53 on both sides of every cumulative
    float weight c: ceil(c * 2^53) - 1 and ceil(c * 2^53)."""
    floats = [float(w) for w in weights]
    values, T = sampler._support(weights)
    keys, c = [0, 2**53 - 1], 0.0
    for w in floats:
        c += w
        keys += [max(math.ceil(c * 2**53) - 1, 0), math.ceil(c * 2**53)]
    decoded = values[sampler._decode(T, np.array(keys, np.uint64))].tolist()
    return decoded == [sampler._draw(_Fixed(k / 2**53), floats) for k in keys]


@pytest.mark.parametrize("size", [1, 2, 3, 64, 65, 300])
def test_decode_agrees_with_the_generic_draw_on_random_weights(size):
    # supports on both sides of the switch to a sorted search (64 values),
    # with zero weights between and after the positive ones
    rng = random.Random(f"decode/{size}")
    for _ in range(5):
        weights = [Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000)) for _ in range(size)]
        weights += [Fraction(0)] * rng.randrange(3)
        rng.shuffle(weights)
        total = sum(weights)
        weights = [w / total for w in weights]
        assert len(sampler._support(weights)[1]) == size - 1
        assert _decodes_as_drawn(weights)


def _skewed(n):
    """n positive weights 1, 3, 5, ... over n^2, which sum to 1."""
    return tuple(Fraction(2 * i + 1, n * n) for i in range(n))


def test_two_partite_counts_past_256_atoms_equal_the_atom_counts():
    # 2 * 17 * 17 = 578 atoms: each rank fits in a byte, a triple's code does not
    t = templates.PartiteTemplate(2, {(1,): 2, (2,): 17, (1, 2): 17})
    mu = templates.ProbTemplate(t, t.tabulate(lambda a: _skewed(t.size(a))))
    F = Hypothesis(2, t, (0, 1), lambda x: x[(1, 2)] % 2)
    ctx = fastpath.TwoPartiteContext(mu, F, losses.zero_one_loss((0, 1), 2))
    sc = sampler.Scenario(mu, F)
    for m in (1, 6):
        fast = list(ctx.counts(_streams("wide", 9), m))
        generic = list(sampler._atom_counts(sc, 2, _streams("wide", 9), m))
        assert [units for _, units in fast] == [units for _, units in generic]
        fast, generic = (np.vstack([c for c, _ in blocks]) for blocks in (fast, generic))
        assert fast.shape == generic.shape == (9, 578)
        assert fast.tolist() == generic.tolist()
    assert (generic[:, 256:] > 0).any()


def test_pair_draw_matches_generic_on_a_skewed_mu():
    cls = families.matching_family(2).cls
    tmpl = cls.template
    w1 = (Fraction(1, 2), Fraction(0), Fraction(1, 3), Fraction(1, 6))
    mu = templates.ProbTemplate(tmpl, (w1, *templates.uniform_prob(tmpl).weights[1:]))
    ctx = fastpath.PairContext(mu, cls.members[-1], losses.zero_one_loss(cls.labels, 2))
    floats = [float(w) for w in w1]
    for t in range(30):
        fast, generic = sampler.stream("skew", t), sampler.stream("skew", t)
        u = ctx.draw_unary(fast, 9)
        x = sampler.sample_config(mu, 9, sampler.stream("skew", t))
        assert u == [x[(i,)] for i in range(1, 10)]
        assert u == [sampler._draw(generic, floats) for _ in range(9)]
        assert fast.getstate() == generic.getstate()
        assert 1 not in u


def _table_loss(partite, labels, table):
    """A binary loss read from table[(H's label, F's label)] at the unit's
    first entry (partite losses get single labels)."""

    def first(y):
        return y if partite else y[0]

    return losses.LossFn(
        2,
        labels,
        lambda x, y, yp: table[(first(y), first(yp))],
        name="table",
        sup_norm=Fraction(1),
    )


MIXED = {(0, 0): 0, (1, 1): Fraction(1, 3), (0, 1): Fraction(1, 2), (1, 0): Fraction(3, 4)}
FLOAT = {(0, 0): 0, (1, 1): 0, (0, 1): 0.1, (1, 0): 0.1}


def test_pair_empirical_scales_mixed_denominators():
    cls = families.matching_family(2).cls
    mu = templates.uniform_prob(cls.template)
    F = cls.members[1]
    ell = _table_loss(False, cls.labels, MIXED)
    ctx = fastpath.PairContext(mu, F, ell)
    sc = sampler.Scenario(mu, F)
    for t in range(10):
        # uniform mu: each unary value is its own support rank
        u = ctx.draw_unary(sampler.stream("mix", t), 7)
        counts = np.bincount(u, minlength=ctx.n).tolist()
        x, y = sampler.labeled_sample(sc, 7, sampler.stream("mix", t))
        for H in cls.members:
            assert ctx.empirical(ctx.loss_table(H), counts) == losses.empirical_loss(
                x, y, ell, H, 7
            )


def test_two_partite_empirical_scales_mixed_denominators():
    cls, mu, F, _, _ = _two_partite_setup()
    F = cls.members[3]
    ell = _table_loss(True, cls.labels, MIXED)
    ctx = fastpath.TwoPartiteContext(mu, F, ell)
    sc = sampler.Scenario(mu, F)
    for t in range(10):
        sample = ctx.draw(sampler.stream("mix", t), 4)
        x, y = sampler.labeled_sample(sc, 4, sampler.stream("mix", t))
        for H in cls.members:
            assert ctx.empirical(ctx.loss_table(H), sample) == losses.empirical_loss(
                x, y, ell, H, 4
            )


def test_pair_refuses_a_float_loss():
    cls = families.matching_family(2).cls
    mu = templates.uniform_prob(cls.template)
    ell = _table_loss(False, cls.labels, FLOAT)
    ctx = fastpath.PairContext(mu, cls.members[-1], ell)
    with pytest.raises(TypeError):
        ctx.loss_table(cls.members[0])


def test_two_partite_refuses_a_float_loss():
    cls, mu, F, H, _ = _two_partite_setup()
    ctx = fastpath.TwoPartiteContext(mu, F, _table_loss(True, cls.labels, FLOAT))
    with pytest.raises(TypeError):
        ctx.loss_table(cls.members[0])
