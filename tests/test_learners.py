import dataclasses
import math
import random
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harity import (
    adversaries,
    fastpath,
    families,
    hypotheses,
    learners,
    losses,
    sampler,
    templates,
)
from harity.hypotheses import (
    Hypothesis,
    HypothesisClass,
    canonical_key,
    constant_hypothesis,
    partize_class,
    pattern,
    star,
    star_partite,
)


def _labels(sc, ell):
    """F's labels at every atom's orbit pullbacks, atom by atom, as the PAC
    sweep hands them to its reader."""
    law = losses.law_plan(sc.mu, ell.k, sc.mu2)  # the joined points, then pullbacks
    return [sc.F(law[1][i]) for i in law[6][0].ravel().tolist()]


def _m_rand(e, d):
    return 8 / min(e, d)


PLAIN_2 = templates.Template(2, (1, 1))


def test_size_helpers():
    assert learners.sample_size({(1,): 0, (2,): 0, (1, 2): 0}) == 2
    x = {((1, 1),): 0, ((2, 3),): 0, ((1, 1), (2, 3)): 0}
    assert learners.sample_size(x) == 3


def test_learner_randomness_range():
    A = learners.Learner(1, lambda x, y, b: None, lambda m: 2)
    x = {(1,): 0}
    A(x, {}, 1)
    with pytest.raises(ValueError):
        A(x, {}, 2)


def test_c_uc_bracket():
    assert 1.865 < learners.C_UC < 1.866


def test_loss_scale_clamps():
    floor = 1 / (2 * math.sqrt(2) * learners.C_UC)
    assert learners.loss_scale(Fraction(1, 100)) == floor
    assert learners.loss_scale(2) == 2.0


def test_m_uc_frozen_values():
    assert learners.m_uc(1, 2, 2, 1, 0.2, 0.2) == pytest.approx(
        2856706.3701174734, rel=1e-9
    )
    # zero dimension: only the ln 2 term survives ("0 ln 0" vanishes)
    assert learners.m_uc(0, 1, 2, 1, 0.5, 0.5) == pytest.approx(
        154.85132405516376, rel=1e-9
    )
    with pytest.raises(ValueError):
        learners.m_uc(1, 2, 2, 1, 0.0, 0.5)


def test_m_uc_monotone():
    base = learners.m_uc(1, 2, 2, 1, 0.2, 0.2)
    assert learners.m_uc(1, 2, 2, 1, 0.1, 0.2) > base
    assert learners.m_uc(1, 2, 2, 1, 0.2, 0.1) > base
    assert learners.m_uc(2, 2, 2, 1, 0.2, 0.2) > base


def test_xi_frozen():
    assert learners.xi(0.5, 0.3) == Fraction(1, 7)
    assert learners.xi(0.2, 0.2) == Fraction(1, 10)


def test_concentration_bound_frozen():
    assert learners.concentration_constant(2, PLAIN_2) == 4
    assert learners.concentration_constant(2, templates.partize_template(PLAIN_2, 2)) == 2
    assert learners.concentration_bound(0.25, 32, 1, PLAIN_2) == (
        pytest.approx(0.7357588823428847, rel=1e-12)
    )


def _first_argmin(cls, ell, x, y, m):
    """The reference ERM: the first member of least empirical loss."""
    emp = [losses.empirical_loss(x, y, ell, H, m) for H in cls.members]
    return cls.members[emp.index(min(emp))]


def test_erm_routes_agree():
    # the one ERM is the reference argmin, on realizable samples a fit
    spec = families.matching_family(2)
    cls = spec.cls
    ell = losses.zero_one_loss(cls.labels, 2)
    mu = templates.uniform_prob(cls.template)
    A = learners.erm(cls, ell)
    for t in range(10):
        rng = sampler.stream("erm-agree", t)
        F = cls.members[rng.randrange(len(cls))]
        x = sampler.sample_config(mu, 5, rng)
        y = star(F, x, 5)
        H = A(x, y, 0)
        assert H is _first_argmin(cls, ell, x, y, 5)
        assert losses.empirical_loss_nonpartite(x, y, ell, H, 5) == 0
    # a class without members has nothing to minimise over
    empty = HypothesisClass(1, templates.Template(1, (2,)), (0, 1), ())
    with pytest.raises(ValueError, match="no members"):
        learners.erm(empty, losses.zero_one_loss((0, 1), 1))


def test_erm_reads_only_the_class_table():
    # no member is called while the ERM runs, its loss columns included
    for cls in (
        partize_class(families.matching_family(2).cls),
        families.bounded_degree_family(4, 2).cls,
    ):
        ell = losses.zero_one_loss(cls.labels, 2)
        mu = templates.uniform_prob(cls.template)
        A = learners.erm(cls, ell)
        for t in range(5):
            rng = sampler.stream("table-only", t)
            F = cls.members[rng.randrange(len(cls))]
            x = sampler.sample_config(mu, 4, rng)
            y = star(F, x, 4)
            expected = _first_argmin(cls, ell, x, y, 4)
            called = AssertionError("ERM called a member")
            with mock.patch.object(Hypothesis, "__call__", side_effect=called):
                H = A(x, y)
            assert H is expected


def test_erm_sums_exactly():
    # Fractions stay exact, int totals past int64 fall back to Python ints,
    # a float loss value is refused, and a sample with no unit gives member 0
    cls = families.matching_family(2).cls
    mu = templates.uniform_prob(cls.template)
    rng = sampler.stream("erm-exact", 0)
    x = sampler.sample_config(mu, 6, rng)
    y = star(cls.members[2], x, 6)
    for scale in (Fraction(1, 3), 2**60, 2**70):
        ell = losses.LossFn(2, (0, 1), lambda x, y, yp, s=scale: s * (y != yp))
        assert learners.erm(cls, ell)(x, y) is cls.members[2]
    ell = losses.LossFn(2, (0, 1), lambda x, y, yp: 0.5 * (y != yp))
    with pytest.raises(TypeError):
        learners.erm(cls, ell)(x, y)
    ell = losses.zero_one_loss(cls.labels, 2)
    assert learners.erm(cls, ell)({(1,): 3}, {}) is cls.members[0]
    # a unit key (the column, then 3! labels out of 1,500) would pass int64
    t3, wide = templates.Template(3, (1, 1, 1)), tuple(range(1500))
    one = HypothesisClass(3, t3, wide, (constant_hypothesis(3, t3, wide, 0),))
    with pytest.raises(ValueError, match="overflow int64"):
        learners.erm(one, losses.LossFn(3, wide, lambda x, y, yp: 0))


def test_erm_finds_distinct_rows_with_the_one_helper(monkeypatch):
    # each loss column finds the table's distinct rows with
    # hypotheses.distinct_rows, once per unit key the samples bring, and no
    # np.unique call sorts rows (axis=)
    cls = families.bounded_degree_family(4, 2).cls
    t, k = cls.template, cls.k
    ell = losses.zero_one_loss(cls.labels, 2)
    mu = templates.uniform_prob(t)
    calls, axes = [], []
    distinct_rows, unique = hypotheses.distinct_rows, np.unique
    monkeypatch.setattr(
        hypotheses, "distinct_rows", lambda table: calls.append(1) or distinct_rows(table)
    )
    monkeypatch.setattr(
        np, "unique", lambda *a, **kw: axes.append("axis" in kw) or unique(*a, **kw)
    )
    place, keys = templates.places(t, k), set()
    A = learners.erm(cls, ell)
    for trial in range(6):
        rng = sampler.stream("one-helper", trial)
        F = cls.members[rng.randrange(len(cls))]
        x = sampler.sample_config(mu, 5, rng)
        y = star(F, x, 5)
        assert A(x, y) is _first_argmin(cls, ell, x, y, 5)
        for u in t.units(5, k):
            column = sum(place[a] * v for a, v in t.pull(u, x).items())
            keys.add((column, t.read(y.get, t.orbit(u))))
        assert len(calls) == len(keys)
    assert keys and axes and not any(axes)


def test_uc_report_structure():
    spec = families.matching_family(2)
    cls = spec.cls
    ell = losses.zero_one_loss(cls.labels, 2)
    mu = templates.uniform_prob(cls.template)
    sc = sampler.Scenario(mu, cls.members[-1])
    report = learners.check_uniform_convergence(sc, cls, ell, 12, 0.5, 50, "uc")
    assert report.trials == 50
    assert 0 <= report.frequency <= 1
    assert report.erm_violations == 0


def test_uc_fast_route_equals_manual_generic(monkeypatch):
    # both k = 2 classes take a fastpath context, and its per-trial empirical
    # losses reproduce the generic route exactly
    built = []
    for ctx_cls in (fastpath.PairContext, fastpath.TwoPartiteContext):
        init = ctx_cls.__init__

        def spy(self, *args, _init=init):
            built.append(type(self))
            _init(self, *args)

        monkeypatch.setattr(ctx_cls, "__init__", spy)
    match = families.matching_family(2).cls
    ho = families.highorder_family(3).cls
    setups = [
        (
            fastpath.PairContext,
            sampler.Scenario(templates.uniform_prob(match.template), match.members[2]),
            match,
            losses.zero_one_loss(match.labels, 2),
        ),
        (
            fastpath.TwoPartiteContext,
            sampler.Scenario(
                templates.uniform_partite_prob(ho.template), ho.members[-1]
            ),
            ho,
            losses.zero_one_loss(ho.labels, 2),
        ),
    ]
    m = 8
    for ctx_cls, sc, cls, ell in setups:
        built.clear()
        _, read = learners._trial_losses(sc, cls.members, ell)
        assert built and set(built) == {ctx_cls}
        empirical = (
            losses.empirical_loss_partite
            if sc.partite
            else losses.empirical_loss_nonpartite
        )
        expected = []
        for t in range(10):
            x, y = sampler.labeled_sample(sc, m, sampler.stream("ucfast", t))
            expected.append([empirical(x, y, ell, H, m) for H in cls.members])
        assert _losses(read, _streams("ucfast", 10), m) == expected


def test_two_partite_uc_check_builds_one_context(monkeypatch):
    # one TwoPartiteContext per check, with a loss table per member, and the
    # check's report equals the one the generic route gives
    ho = families.highorder_family(3).cls
    sc = sampler.Scenario(templates.uniform_prob(ho.template), ho.members[-1])
    ell = losses.zero_one_loss(ho.labels, 2)
    args = (sc, ho, ell, 4, Fraction(1, 8), 12, "one-ctx")
    built = []
    init = fastpath.TwoPartiteContext.__init__

    def spy(self, *a):
        built.append(a)
        init(self, *a)

    monkeypatch.setattr(fastpath.TwoPartiteContext, "__init__", spy)
    fast = learners.check_uniform_convergence(*args)
    assert len(built) == 1 and len(ho.members) == 8
    assert 0 < fast.frequency < 1
    monkeypatch.setattr(learners, "_trial_losses", _generic_trial_losses)
    assert learners.check_uniform_convergence(*args) == fast


def _generic_trial_losses(sc, members, ell):
    """``learners._trial_losses`` of a non-agnostic scenario on the generic
    route, with each member's total summed atom by atom over ``config_law``:
    each rng is its own block, whose sums are the members' dict-sample
    empirical losses over their least common denominator."""
    t = sc.mu.template
    law = templates.config_law(sc.mu, t.domain(ell.k)[0])

    def total(H):
        F = sc.F
        return sum(p * Fraction(ell(x, t.label(H, x), t.label(F, x))) for x, p in law)

    def generic(rngs, m):
        for rng in rngs:
            x, y = sampler.labeled_sample(sc, m, rng)
            D, sums = losses.numerators(
                losses.empirical_loss(x, y, ell, H, m) for H in members
            )
            yield np.array([sums], object), D

    return [total(H) for H in members], generic


def _streams(seed, trials):
    return [sampler.stream(seed, t) for t in range(trials)]


def _losses(read, rngs, m):
    """A block reader's empirical losses, one list of Fractions per rng."""
    return [
        [Fraction(int(s), den) for s in row] for sums, den in read(rngs, m) for row in sums
    ]


def _on_both_routes(monkeypatch, run):
    """run()'s result on the chosen route and on the generic one."""
    out = []
    for trial_losses in (learners._trial_losses, _generic_trial_losses):
        monkeypatch.setattr(learners, "_trial_losses", trial_losses)
        out.append(run())
    return out


@contextmanager
def _contexts_built():
    """Counts the fastpath contexts built inside the block."""
    with ExitStack() as stack:
        spies = [
            stack.enter_context(
                mock.patch.object(cls, "__init__", autospec=True, side_effect=cls.__init__)
            )
            for cls in (fastpath.PairContext, fastpath.TwoPartiteContext)
        ]
        yield lambda: sum(spy.call_count for spy in spies)


def test_a_declared_rank_does_not_choose_the_route(monkeypatch):
    # F declares rank 1 but reads the pair value: its pair table varies along
    # the pair value, so the checks must read the generic sample
    t = templates.Template(2, (2, 2))
    F = Hypothesis(2, t, (0, 1), lambda x: x[(1, 2)], name="pair", declared_rank=1)
    consts = [
        Hypothesis(2, t, (0, 1), lambda x, v=v: v, name=f"c{v}", declared_rank=1)
        for v in (0, 1)
    ]
    cls = HypothesisClass(2, t, (0, 1), tuple(consts))
    sc = sampler.Scenario(templates.uniform_prob(t), F)
    ell = losses.zero_one_loss((0, 1), 2)
    eps = Fraction(1, 4)
    with _contexts_built() as built:
        chosen, generic = _on_both_routes(
            monkeypatch,
            lambda: (
                learners.check_concentration(sc, consts[0], ell, 20, eps, 200, "c"),
                learners.check_uniform_convergence(sc, cls, ell, 8, eps, 40, "c"),
            ),
        )
        # a check builds no context for a route it does not take
        assert built() == 0
    assert chosen == generic and chosen[0] == 0
    assert fastpath.PairContext(sc.mu, F, ell).loss_table(consts[0]) is None


def test_a_loss_named_01_that_reads_the_pair_value(monkeypatch):
    # a loss named "01" but counting only units with pair value 0: its table
    # varies along the pair value, so the name cannot choose the fast route
    t = templates.Template(2, (2, 2))
    ell = losses.LossFn(
        2,
        (0, 1),
        lambda x, y, yp: int(y != yp and x[(1, 2)] == 0),
        name="01",
        sup_norm=Fraction(1),
        symmetric=True,
    )
    diff = Hypothesis(2, t, (0, 1), lambda x: int(x[(1,)] != x[(2,)]), declared_rank=1)
    same = Hypothesis(2, t, (0, 1), lambda x: int(x[(1,)] == x[(2,)]), declared_rank=1)
    cls = HypothesisClass(2, t, (0, 1), (same, diff))
    sc = sampler.Scenario(templates.uniform_prob(t), diff)
    eps = Fraction(1, 20)
    chosen, generic = _on_both_routes(
        monkeypatch,
        lambda: (
            learners.check_concentration(sc, same, ell, 12, eps, 100, "named01"),
            learners.check_uniform_convergence(sc, cls, ell, 12, eps, 100, "named01"),
        ),
    )
    assert chosen == generic and 0 < chosen[0] < 1


def test_matching_members_without_declared_rank_take_the_pair_context(monkeypatch):
    built = []
    init = fastpath.PairContext.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(fastpath.PairContext, "__init__", spy)
    match = families.matching_family(3).cls
    bare = [Hypothesis(H.k, H.template, H.labels, H.fn, H.name) for H in match.members]
    assert {H.declared_rank for H in bare} == {None}
    ell = losses.zero_one_loss(match.labels, 2)
    sc = sampler.Scenario(templates.uniform_prob(match.template), bare[-1])
    _, declared = learners._trial_losses(sc, match.members, ell)
    _, read = learners._trial_losses(sc, bare, ell)
    assert len(built) == 2
    _, generic = _generic_trial_losses(sc, bare, ell)
    fast = _losses(read, _streams("bare", 6), 9)
    assert fast == _losses(declared, _streams("bare", 6), 9)
    assert fast == _losses(generic, _streams("bare", 6), 9)


def test_a_binary_loss_on_a_k1_template_takes_the_pair_context(monkeypatch):
    # a k = 1 template stores no pair weights: its pair space is an implicit
    # singleton, which the pair context counts as one value
    t = templates.Template(1, (3,))
    F = Hypothesis(2, t, (0, 1), lambda x: int(x[(1,)] == x[(2,)]))
    members = [
        constant_hypothesis(2, t, (0, 1), 0),
        constant_hypothesis(2, t, (0, 1), 1),
        Hypothesis(2, t, (0, 1), lambda x: int(x[(1,)] + x[(2,)] == 2)),
    ]
    cls = HypothesisClass(2, t, (0, 1), tuple(members))
    sc, ell = sampler.Scenario(templates.uniform_prob(t), F), losses.zero_one_loss((0, 1), 2)
    assert losses.total_loss(sc.mu, F, ell, members[0]) == Fraction(1, 3)
    eps = Fraction(1, 10)
    with _contexts_built() as built:
        chosen, reference = _on_both_routes(
            monkeypatch,
            lambda: (
                learners.check_concentration(sc, members[0], ell, 8, eps, 40, "k1"),
                learners.check_uniform_convergence(sc, cls, ell, 8, eps, 40, "k1"),
            ),
        )
        assert built() == 2
    assert chosen == reference and 0 < chosen[0] < 1


def _random_table(rng, keys, values):
    return {key: rng.choice(values) for key in keys}


def _unary(x):
    """x's unary (or part-singleton) values, in key order."""
    return tuple(v for key, v in sorted(x.items()) if len(key) == 1)


@st.composite
def _k2_instances(draw):
    """A small k = 2 scenario in either setting with random H and F tables
    and a random integer loss table over (x, y, y'); each table may be drawn
    to ignore the pair (or cross) value, and the loss to ignore x and the
    order of the orbit, so that both routes come up."""
    n1, n2, n12 = (draw(st.integers(1, hi)) for hi in (3, 3, 2))
    if draw(st.booleans()):
        t = templates.PartiteTemplate(2, {(1,): n1, (2,): n2, (1, 2): n12})
    else:
        t = templates.Template(2, (n1, n12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    points = templates.domain_points(t, 2)

    def hypothesis(plain):
        read = _unary if plain else canonical_key
        table = _random_table(rng, {read(x) for x in points}, (0, 1))
        return Hypothesis(2, t, (0, 1), lambda x: table[read(x)])

    members = [hypothesis(draw(st.booleans())) for _ in range(draw(st.integers(1, 2)))]
    F = hypothesis(draw(st.booleans()))
    # a partite loss reads one label, wrapped here as a one-entry pattern
    ys = [(0,), (1,)] if t.partite else [(0, 1), (1, 0), (0, 0), (1, 1)]
    if draw(st.booleans()):
        keys = {tuple(sorted(zip(y, yp))) for y in ys for yp in ys}
        table = _random_table(rng, keys, (0, 1, 2))
        fn = lambda x, y, yp: table[tuple(sorted(zip(y, yp)))]  # noqa: E731
    else:
        keys = [(canonical_key(x), y, yp) for x in points for y in ys for yp in ys]
        table = _random_table(rng, keys, (0, 1, 2))
        fn = lambda x, y, yp: table[canonical_key(x), y, yp]  # noqa: E731
    if t.partite:
        fn = lambda x, y, yp, f=fn: f(x, (y,), (yp,))  # noqa: E731
    ell = losses.LossFn(2, (0, 1), fn)

    def weights(n):
        # zero weights allowed, with at least one positive weight per space
        w = [rng.choice((0, 1, 2)) for _ in range(n)]
        w[rng.randrange(n)] += 1
        return tuple(Fraction(v, sum(w)) for v in w)

    mu = templates.ProbTemplate(t, t.tabulate(lambda a: weights(t.size(a))))
    return sampler.Scenario(mu, F), members, ell


def _qualifies(sc, H, ell):
    """Whether H's loss at each unit depends on its unary values alone, and
    symmetrically: read from the loss at every domain point of mu's
    support."""
    t = sc.mu.template
    if t.partite:
        return True
    ones, pairs = ([v for v, p in enumerate(w) if p > 0] for w in sc.mu.weights)
    T = {}
    for a in ones:
        for b in ones:
            for c in pairs:
                x = {(1,): a, (2,): b, (1, 2): c}
                T[a, b, c] = ell(x, pattern(H, x), pattern(sc.F, x))
    return all(T[a, b, c] == T[b, a, pairs[0]] for a, b, c in T)


@settings(max_examples=60, deadline=None)
@given(_k2_instances())
def test_the_route_follows_the_exact_tables(instance):
    sc, members, ell = instance
    generic_totals, generic = _generic_trial_losses(sc, members, ell)
    expected = _losses(generic, _streams("prop", 4), 3)
    with _contexts_built() as built, mock.patch.object(
        sampler, "labeled_sample", wraps=sampler.labeled_sample
    ) as drawn:
        totals, read = learners._trial_losses(sc, members, ell)
        assert totals == generic_totals
        assert _losses(read, _streams("prop", 4), 3) == expected
        fast = all(_qualifies(sc, H, ell) for H in members)
        assert built() == int(fast)
    assert drawn.call_count == 0


@pytest.mark.parametrize("n", [2000, 300])
def test_a_check_reads_only_mus_support(n):
    # n^2 domain points but only 2 unary values of positive weight: the plan
    # reads H at k! orbit points of each of 4 atoms, and the fast route's
    # table is the same row, over the support
    t = templates.Template(2, (n, 1))
    mu = templates.ProbTemplate(t, ((Fraction(1, 2),) * 2 + (0,) * (n - 2), (1,)))
    F = Hypothesis(2, t, (0, 1), lambda x: int(x[(1,)] == x[(2,)]))
    reads = []
    H = Hypothesis(2, t, (0, 1), lambda x: reads.append(x) or 0)
    sc, ell = sampler.Scenario(mu, F), losses.zero_one_loss((0, 1), 2)
    started = time.perf_counter()
    with _contexts_built() as built:
        learners.check_concentration(sc, H, ell, 6, Fraction(1, 4), 20, "cap")
        assert built() == 1 and len(reads) <= 2 * 4
        totals, read = learners._trial_losses(sc, [H], ell)
    assert time.perf_counter() - started < 2
    generic_totals, generic = _generic_trial_losses(sc, [H], ell)
    assert totals == generic_totals
    assert _losses(read, _streams("cap", 5), 6) == _losses(generic, _streams("cap", 5), 6)


def test_a_check_reads_each_member_once_per_atom():
    # the totals and the fast route's tables are the same plan rows: each
    # member is read once per distinct point of the law's atoms' orbits
    match = families.matching_family(2).cls
    reads = []
    t, labels = match.template, match.labels
    counted = [
        Hypothesis(2, t, labels, lambda x, f=H.fn: reads.append(x) or f(x))
        for H in match.members
    ]
    cls = HypothesisClass(2, t, labels, tuple(counted))
    mu = templates.uniform_prob(t)
    sc = sampler.Scenario(mu, match.members[1])
    ell = losses.zero_one_loss(match.labels, 2)
    reads.clear()  # building the class reads every member once
    with _contexts_built() as built:
        learners.check_uniform_convergence(sc, cls, ell, 6, 0.5, 20, "one-plan")
        assert built() == 1
    atoms = len(templates.config_law(mu, 2))
    assert atoms == 16 and len(reads) == len(counted) * atoms


def test_a_check_converts_its_rows_to_integers_once():
    # one losses.numerators call per _trial_losses call, whichever route its
    # integer rows pick: the route reads the integers the sums read
    match, ho = families.matching_family(2).cls, families.highorder_family(3).cls
    cases = [
        (
            sampler.Scenario(templates.uniform_prob(match.template), match.members[-1]),
            list(match.members),
            losses.zero_one_loss(match.labels, 2),
            1,
        ),
        (
            sampler.Scenario(templates.uniform_partite_prob(ho.template), ho.members[-1]),
            list(ho.members),
            losses.zero_one_loss(ho.labels, 2, setting="partite"),
            1,
        ),
        *((sc, members, ell, 0) for sc, members, ell, _ in UNIT_CODE_INSTANCES.values()),
    ]
    for sc, members, ell, contexts in cases:
        losses.law_plan(sc.mu, ell.k, sc.mu2)  # the cached law converts its weights
        with _contexts_built() as built, mock.patch.object(
            losses, "numerators", wraps=losses.numerators
        ) as converted:
            learners._trial_losses(sc, members, ell)
            assert built() == contexts
        assert converted.call_count == 1


def _table_hypothesis(t, k, rng, labels=(0, 1)):
    """A member over t reading a seeded random label table of its domain
    points."""
    points = templates.domain_points(t, k)
    table = _random_table(rng, {canonical_key(x) for x in points}, labels)
    return Hypothesis(k, t, labels, lambda x: table[canonical_key(x)])


def _skewed(t):
    """mu over t with weights 1, 2, ..., n (normalized) on each ground space."""
    n = lambda a: t.size(a)  # noqa: E731
    return templates.ProbTemplate(
        t, t.tabulate(lambda a: tuple(Fraction(2 * i + 2, n(a) * (n(a) + 1)) for i in range(n(a))))
    )


def _unit_code_instances():
    """name -> (scenario, members, loss, sample sizes): checks that take the
    unit-code route, in both settings, at k = 1, 2 and 3, with zero weights,
    with mu', and with sums past int64."""
    rng = random.Random("unit-codes")
    out = {}
    # criterion 05's k = 1 setups
    t1 = templates.Template(1, (2,))
    mu1 = templates.ProbTemplate(t1, ((Fraction(1, 3), Fraction(2, 3)),))
    out["c05-k1-plain"] = (
        sampler.Scenario(mu1, Hypothesis(1, t1, (0, 1), lambda x: x[(1,)])),
        [constant_hypothesis(1, t1, (0, 1), 0)],
        losses.zero_one_loss((0, 1), 1),
        (1, 8, 16),
    )
    pt1 = templates.PartiteTemplate(1, {(1,): 2})
    out["c05-k1-partite"] = (
        sampler.Scenario(
            templates.uniform_prob(pt1),
            Hypothesis(1, pt1, (0, 1), lambda x: x[((1, 1),)]),
        ),
        [Hypothesis(1, pt1, (0, 1), lambda x: 0)],
        losses.zero_one_loss((0, 1), 1),
        (1, 8, 16),
    )
    # k = 3 on a plain template and on its partization
    t3 = templates.Template(3, (2, 1, 2))
    for name, mu in (("k3-plain", _skewed(t3)), ("k3-partite", None)):
        mu = mu or templates.partize_prob(_skewed(t3), 3)
        F, *members = (_table_hypothesis(mu.template, 3, rng) for _ in range(4))
        out[name] = (
            sampler.Scenario(mu, F), members, losses.zero_one_loss((0, 1), 3), (3, 5)
        )
    # a zero-weight unary value at k = 2; F reads the pair value, so the
    # member's table does not qualify for a fastpath context
    t2 = templates.Template(2, (3, 2))
    mu0 = templates.ProbTemplate(
        t2, ((Fraction(1, 2), Fraction(0), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)))
    )
    out["zero-weight"] = (
        sampler.Scenario(mu0, Hypothesis(2, t2, (0, 1), lambda x: x[(1, 2)])),
        [Hypothesis(2, t2, (0, 1), lambda x: int(x[(1,)] < x[(2,)]))],
        losses.zero_one_loss((0, 1), 2),
        (2, 9),
    )
    # agnostic matching(3): mu' flips each pair's label with probability 1/5
    match = families.matching_family(3).cls
    target = match.members[5]
    flip = templates.ProbTemplate(
        templates.Template(2, (1, 2)), ((1,), (Fraction(4, 5), Fraction(1, 5)))
    )
    joined = templates.product_template(match.template, flip.template)
    F = Hypothesis(
        2,
        joined,
        match.labels,
        lambda z: target({(1,): z[(1,)], (2,): z[(2,)], (1, 2): 0}) ^ z[(1, 2)],
    )
    out["agnostic-flip"] = (
        sampler.Scenario(templates.uniform_prob(match.template), F, mu2=flip),
        list(match.members),
        losses.zero_one_loss(match.labels, 2),
        (2, 8),
    )
    # agnostic 2-partite, with a zero weight in mu (part 1) and in mu' (cross)
    pt = templates.PartiteTemplate(2, {(1,): 3, (2,): 2, (1, 2): 2})
    pt2 = templates.PartiteTemplate(2, {(1,): 1, (2,): 2, (1, 2): 3})
    half, third = Fraction(1, 2), Fraction(1, 3)
    mu = templates.ProbTemplate(
        pt, {(1,): (half, 0, half), (2,): (third, 2 * third), (1, 2): (half, half)}
    )
    mu2 = templates.ProbTemplate(
        pt2, {(1,): (1,), (2,): (half, half), (1, 2): (third, 0, 2 * third)}
    )
    F = _table_hypothesis(templates.product_template(pt, pt2), 2, rng)
    out["agnostic-zero-weights"] = (
        sampler.Scenario(mu, F, mu2=mu2),
        [_table_hypothesis(pt, 2, rng) for _ in range(3)],
        losses.zero_one_loss((0, 1), 2),
        (1, 4),
    )
    # a k = 1 loss on a k = 2 template: the units never read the pair values
    out["k1-on-k2"] = (
        sampler.Scenario(_skewed(t2), Hypothesis(1, t2, (0, 1), lambda x: x[(1,)] % 2)),
        [Hypothesis(1, t2, (0, 1), lambda x, v=v: int(x[(1,)] == v)) for v in range(3)],
        losses.zero_one_loss((0, 1), 1),
        (1, 7),
    )
    # loss values whose sums leave int64, and one value that does not fit it
    for name, big in (("sums-past-int64", 2**61), ("values-past-int64", 2**70)):
        ell = losses.LossFn(
            1, (0, 1), lambda x, y, yp, b=big: b * (y != yp) + Fraction(x[(1,)], 3)
        )
        out[name] = (
            sampler.Scenario(_skewed(t2), Hypothesis(1, t2, (0, 1), lambda x: x[(1,)] % 2)),
            [constant_hypothesis(1, t2, (0, 1), v) for v in (0, 1)],
            ell,
            (1, 2, 7),
        )
    return out


UNIT_CODE_INSTANCES = _unit_code_instances()


@pytest.mark.parametrize("name", UNIT_CODE_INSTANCES)
def test_unit_codes_equal_the_generic_route(name):
    # trial for trial, with no dict sample drawn and no context built
    sc, members, ell, ms = UNIT_CODE_INSTANCES[name]
    generic_totals, generic = _generic_trial_losses(sc, members, ell)
    if sc.mu2 is not None:
        ag = losses.wrap_agnostic(ell)
        generic_totals = [losses.totals(sc.mu, sc.F, ag, sc.mu2)(H) for H in members]
    with _contexts_built() as built, mock.patch.object(
        sampler, "labeled_sample", side_effect=AssertionError("dict sample drawn")
    ):
        totals, read = learners._trial_losses(sc, members, ell)
        blocks = [(m, *b) for m in ms for b in read(_streams(name, 6), m)]
        assert built() == 0
    assert totals == generic_totals
    got = [[Fraction(int(s), den) for s in row] for _, sums, den in blocks for row in sums]
    assert got == [e for m in ms for e in _losses(generic, _streams(name, 6), m)]
    # integer sums, in Python ints once their bound leaves int64
    past = name in ("sums-past-int64", "values-past-int64")
    largest = {sums.dtype for m, sums, _ in blocks if m == max(ms)}
    assert largest == {np.dtype(object if past else np.int64)}
    assert past or {sums.dtype for _, sums, _ in blocks} == {np.dtype(np.int64)}
    assert all(isinstance(s, int) for _, sums, _ in blocks for s in sums.ravel().tolist())
    # the reader codes the exact law's atoms, zero weights left out
    d = sc.mu.template.domain(ell.k)[0]
    atoms = {sampler._layout(sc.mu, sc.mu2, ell.k, m).atoms for m in ms}
    assert atoms == {math.prod(templates.law_atoms(nu, d) for nu in (sc.mu, sc.mu2) if nu)}
    assert atoms == {len(losses.law_plan(sc.mu, ell.k, sc.mu2)[1])}


@pytest.mark.parametrize(
    "name",
    ["c05-k1-plain", "k3-plain", "k3-partite", "agnostic-flip", "agnostic-zero-weights"],
)
def test_unit_codes_read_the_stream_as_labeled_sample_does(name):
    sc, members, ell, ms = UNIT_CODE_INSTANCES[name]
    _, read = learners._trial_losses(sc, members, ell)
    for m in ms:
        coded, drawn = _streams(name, 3), _streams(name, 3)
        list(read(coded, m))
        for rng in drawn:
            sampler.labeled_sample(sc, m, rng)
        assert [r.getstate() for r in coded] == [r.getstate() for r in drawn]


@pytest.mark.parametrize("name", ["c05-k1-plain", "k3-plain", "k3-partite", "zero-weight"])
def test_unit_codes_refuse_a_sample_without_units(name):
    sc, members, ell, ms = UNIT_CODE_INSTANCES[name]
    m = 0 if sc.partite else ell.k - 1
    message = f"no empirical loss: m = {m} has no unit of arity k = {ell.k}"
    _, generic = _generic_trial_losses(sc, members, ell)
    _, read = learners._trial_losses(sc, members, ell)
    for route in (generic, read):
        with pytest.raises(ValueError, match=message):
            list(route([sampler.stream("empty", 0)], m))
    # the block reader refuses before it reads any stream
    rng = sampler.stream("empty", 0)
    with pytest.raises(ValueError, match=message):
        next(read([rng], m))
    assert rng.getstate() == sampler.stream("empty", 0).getstate()


def _hashing_learner(candidates, k):
    """A randomized learner whose pick depends on x, on y and on b."""

    def fn(x, y, b):
        pick = sum(x.values()) + sum(map(hash, y.values())) + len(y) + b
        return candidates[pick % len(candidates)]

    return learners.Learner(k, fn, lambda m: 2)


def _pac_instance(name):
    """A unit-code instance as a PAC sweep: the learner above over the
    members (and F, without mu'), and the sizes 0, m < k, m = k and larger."""
    sc, members, ell, ms = UNIT_CODE_INSTANCES[name]
    candidates = members if sc.mu2 else [*members, sc.F]
    small = 0 if sc.partite else ell.k - 1
    return sc, candidates, ell, sorted({0, small, ell.k, *ms})


@pytest.mark.parametrize("name", UNIT_CODE_INSTANCES)
def test_pac_success_equals_the_dict_route(name):
    sc, candidates, ell, ms = _pac_instance(name)
    A = _hashing_learner(candidates, ell.k)
    total = losses.totals(sc.mu, sc.F, losses.wrap_agnostic(ell) if sc.mu2 else ell, sc.mu2)
    target = min(map(total, candidates))
    expected = []
    for m in ms:
        wins = 0
        for t in range(12):
            rng = sampler.stream(name, t)
            x, y = sampler.labeled_sample(sc, m, rng)
            wins += total(A(x, y, rng.randrange(A.r(m)))) <= target
        expected.append(Fraction(wins, 12))
    refuse = {"side_effect": AssertionError("dict sample drawn")}
    with mock.patch.object(sampler, "labeled_sample", **refuse), mock.patch.object(
        hypotheses, "star", **refuse
    ), mock.patch.object(sampler, "star", **refuse):
        got = [
            learners.estimate_pac_success(A, sc, ell, m, 0, 12, name, cls=candidates)
            for m in ms
        ]
    assert got == expected and all(type(f) is Fraction for f in got)


@pytest.mark.parametrize("name", UNIT_CODE_INSTANCES)
def test_labeled_reader_draws_labeled_samples(name):
    # several streams per call: each rng beside its x, y in key order, and
    # left where labeled_sample leaves it
    sc, _, ell, ms = _pac_instance(name)
    draw = sampler._labeled_reader(sc, ell.k, ell.labels, _labels(sc, ell))
    for m in ms:
        coded, drawn = _streams((name, m), 5), _streams((name, m), 5)
        got = list(draw(iter(coded), m))
        assert len(got) == 5 and all(rng is r for (rng, _, _), r in zip(got, coded))
        for (rng, x, y), r in zip(got, drawn):
            x0, y0 = sampler.labeled_sample(sc, m, r)
            assert x == x0 and list(x) == list(x0)
            assert list(y.items()) == list(y0.items())
            assert rng.getstate() == r.getstate()


def _recording(A, calls):
    """A, recording each call's (x, y, b)."""
    return learners.Learner(A.k, lambda x, y, b: calls.append((x, y, b)) or A.fn(x, y, b), A.r)


@pytest.mark.parametrize("name", ["c05-k1-plain", "k3-partite", "agnostic-flip"])
def test_pac_success_reads_its_trials_in_blocks(name, monkeypatch):
    # 7 trials in blocks of two streams, the last one short: the learner sees
    # each trial's sample and index b in trial order, as on the dict route
    sc, candidates, ell, ms = _pac_instance(name)
    A, m = _hashing_learner(candidates, ell.k), max(ms)
    total = losses.totals(sc.mu, sc.F, losses.wrap_agnostic(ell) if sc.mu2 else ell, sc.mu2)
    target = min(map(total, candidates))
    expected, wins = [], 0
    for t in range(7):
        rng = sampler.stream(name, t)
        x, y = sampler.labeled_sample(sc, m, rng)
        expected.append((x, y, rng.randrange(A.r(m))))
        wins += total(A(*expected[-1])) <= target
    n = sampler._layout(sc.mu, sc.mu2, ell.k, m).n
    monkeypatch.setattr(sampler, "BLOCK_UNIFORMS", 2 * n)
    sizes, blocks = [], sampler._uniform_blocks

    def counted(rngs, n):
        for u in blocks(rngs, n):
            sizes.append(len(u))
            yield u

    monkeypatch.setattr(sampler, "_uniform_blocks", counted)
    calls = []
    got = learners.estimate_pac_success(_recording(A, calls), sc, ell, m, 0, 7, name, candidates)
    assert sizes == [2, 2, 2, 1]
    assert calls == expected and got == Fraction(wins, 7)


def _block_spy(monkeypatch, module):
    """The sizes of the blocks module's ``_uniform_blocks`` yields, with the
    widths (n, atoms) it is called with."""
    calls, blocks = [], sampler._uniform_blocks

    def spy(rngs, n, atoms=0):
        calls.append(((n, atoms), sizes := []))
        for K in blocks(rngs, n, atoms):
            sizes.append(len(K))
            yield K

    monkeypatch.setattr(module, "_uniform_blocks", spy)
    return calls


def _skewed_k2_instance(partite):
    """A skewed 2-partite scenario, or a skewed plain k = 2 one whose members
    qualify for a pair context, with its class and loss."""
    if partite:
        cls = families.highorder_family(3).cls
        t = cls.template
        skew = {1: (Fraction(1),), 3: (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))}
        mu = templates.ProbTemplate(t, t.tabulate(lambda a: skew[t.size(a)]))
    else:
        cls = families.matching_family(2).cls
        t = cls.template
        w1 = (Fraction(1, 2), Fraction(0), Fraction(1, 3), Fraction(1, 6))
        mu = templates.ProbTemplate(t, (w1, *templates.uniform_prob(t).weights[1:]))
    return sampler.Scenario(mu, cls.members[-1]), cls, losses.zero_one_loss(cls.labels, 2)


@pytest.mark.parametrize("partite", [True, False])
def test_checks_read_their_trials_in_blocks(partite, monkeypatch):
    # 7 trials through a pair context, in one block, in blocks of one stream
    # and of three (the last one short): equal frequencies
    sc, cls, ell = _skewed_k2_instance(partite)
    m, H, calls = 5, cls.members[1], _block_spy(monkeypatch, fastpath)

    def checks():
        calls.clear()
        return (
            learners.check_concentration(sc, H, ell, m, Fraction(1, 10), 7, "blocks"),
            learners.check_uniform_convergence(sc, cls, ell, m, Fraction(1, 5), 7, "blocks"),
        )

    expected = checks()
    assert [sizes for _, sizes in calls] == [[7], [7]]
    width = max(calls[0][0])  # the widest row: the keys or the count row
    for streams, sizes in ((1, [1] * 7), (3, [3, 3, 1])):
        monkeypatch.setattr(sampler, "BLOCK_UNIFORMS", streams * width)
        assert checks() == expected
        assert [s for _, s in calls] == [sizes, sizes]


def test_atom_counts_read_a_wide_law_one_stream_a_block(monkeypatch):
    # 130 * 130 law atoms: a count row wider than BLOCK_UNIFORMS cells
    t = templates.Template(2, (130, 1))
    sc = sampler.Scenario(templates.uniform_prob(t), constant_hypothesis(2, t, (0, 1), 0))
    assert sampler._layout(sc.mu, None, 2, 3).atoms == 16900 > sampler.BLOCK_UNIFORMS
    calls = _block_spy(monkeypatch, sampler)
    counts = list(sampler._atom_counts(sc, 2, _streams("wide", 4), 3))
    assert calls == [((6, 16900), [1, 1, 1, 1])]
    assert [c.shape for c, _ in counts] == [(1, 16900)] * 4


def test_pac_success_reads_F_once_per_atom():
    # F's labels come from the plan, read once per atom whatever the trials
    match = families.matching_family(2).cls
    ell, G, calls = losses.zero_one_loss(match.labels, 2), match.members[1], []
    F = Hypothesis(2, G.template, G.labels, lambda x: calls.append(x) or G(x))
    sc = sampler.Scenario(templates.uniform_prob(match.template), F)
    A, counts = learners.erm(match, ell), []
    for trials in (1, 50):
        calls.clear()
        learners.estimate_pac_success(A, sc, ell, 6, Fraction(1, 10), trials, "F")
        counts.append(len(calls))
    atoms = len(losses.law_plan(sc.mu, 2, None)[1])
    assert counts == [atoms, atoms]  # one read per atom's joined point


def _agnostic_point_mass_scenarios():
    """A k = 1 and a 2-partite agnostic scenario whose mu' is a point mass
    at 1 and whose F reads the joined value's parity: F is 1 wherever the
    joined sample can land, so H = 1 has empirical and total loss 0 exactly,
    while F on the un-joined sample would be 1 only half the time."""
    t = templates.Template(1, (2,))
    point_mass = (Fraction(0), Fraction(1))
    F = Hypothesis(1, templates.product_template(t, t), (0, 1), lambda x: x[(1,)] % 2)
    sc1 = sampler.Scenario(
        templates.uniform_prob(t), F, mu2=templates.ProbTemplate(t, (point_mass,))
    )
    pt = templates.PartiteTemplate(2, {(1,): 2, (2,): 2, (1, 2): 2})
    pair = ((1, 1), (2, 1))
    Fp = Hypothesis(
        2, templates.product_template(pt, pt), (0, 1), lambda x: x[pair] % 2
    )
    sc2 = sampler.Scenario(
        templates.uniform_partite_prob(pt),
        Fp,
        mu2=templates.ProbTemplate(pt, {a: point_mass for a in pt.sizes}),
    )
    return (sc1, t, losses.zero_one_loss((0, 1), 1)), (
        sc2,
        pt,
        losses.zero_one_loss((0, 1), 2),
    )


def test_agnostic_checks_use_the_joined_total():
    eps = Fraction(1, 1000)
    (sc1, t, ell1), (sc2, pt, ell2) = _agnostic_point_mass_scenarios()
    H1 = constant_hypothesis(1, t, (0, 1), 1)
    assert learners.check_concentration(sc1, H1, ell1, 6, eps, 10, "ag") == 0
    H2 = constant_hypothesis(2, pt, (0, 1), 1)
    assert learners.check_concentration(sc2, H2, ell2, 6, eps, 10, "ag") == 0
    cls = HypothesisClass(2, pt, (0, 1), (constant_hypothesis(2, pt, (0, 1), 0), H2))
    report = learners.check_uniform_convergence(sc2, cls, ell2, 6, eps, 10, "ag")
    assert report.frequency == 1 and report.erm_violations == 0
    assert learners.estimate_pac_success(
        learners.Learner(2, lambda x, y, b: H2, lambda m: 1),
        sc2, ell2, 3, eps, 5, "ag", cls=cls,
    ) == 1


def test_each_check_enumerates_the_law_once(monkeypatch):
    # the exact totals are built once per check, not once per trial or member
    calls = []  # the measures each enumeration reads
    law = sampler.exact_read
    monkeypatch.setattr(
        sampler,
        "exact_read",
        lambda mu, mu2, m: calls.extend(nu for nu in (mu, mu2) if nu) or law(mu, mu2, m),
    )
    nfl = adversaries.shattered_scenario(6)
    ell = losses.zero_one_loss(nfl.labels, 1)
    sc = sampler.Scenario(nfl.mu, nfl.hypothesis(frozenset({0, 3})))
    A = adversaries.erm_learner(nfl)
    losses.law_plan.cache_clear()
    own = learners.estimate_pac_success(A, sc, ell, 3, Fraction(1, 10), 50, "once")
    assert len(calls) == 1
    calls.clear()
    losses.law_plan.cache_clear()
    learners.check_concentration(sc, nfl.hypothesis({4}), ell, 3, 0.5, 50, "once")
    assert len(calls) == 1
    calls.clear()
    match = families.matching_family(2).cls
    sc2 = sampler.Scenario(templates.uniform_prob(match.template), match.members[1])
    ell2 = losses.zero_one_loss(match.labels, 2)
    losses.law_plan.cache_clear()
    learners.check_uniform_convergence(sc2, match, ell2, 4, 0.5, 20, "once")
    assert len(calls) == 1 and len(match.members) > 1
    (ag, t, ell1), _ = _agnostic_point_mass_scenarios()
    consts = [constant_hypothesis(1, t, (0, 1), v) for v in (0, 1)]
    calls.clear()
    losses.law_plan.cache_clear()
    learners.check_concentration(ag, consts[1], ell1, 4, 0.5, 20, "once")
    assert len(calls) == 2 and set(calls) == {ag.mu, ag.mu2}
    calls.clear()
    losses.law_plan.cache_clear()
    learners.estimate_pac_success(
        learners.Learner(1, lambda x, y, b: consts[1], lambda m: 1),
        ag, ell1, 3, Fraction(1, 10), 20, "once", cls=consts,
    )
    assert len(calls) == 2 and set(calls) == {ag.mu, ag.mu2}
    # the no-free-lunch search builds mu's law once for its 64 B and the final
    # measurement
    calls.clear()
    losses.law_plan.cache_clear()
    adversaries.nfl_worst_F(A, nfl, 3, Fraction(1, 10), 20, "once", search_trials=2)
    assert calls == [nfl.mu]
    # a second sweep on mu (an equal one, built apart) enumerates nothing
    calls.clear()
    again = sampler.Scenario(templates.uniform_prob(nfl.mu.template), sc.F)
    shared = learners.estimate_pac_success(A, again, ell, 3, Fraction(1, 10), 50, "once")
    assert calls == []
    assert type(shared) is Fraction and shared == own


def test_check_concentration_within_bound():
    t = templates.Template(1, (2,))
    mu = templates.uniform_prob(t)
    F = constant_hypothesis(1, t, (0, 1), 0)
    H = constant_hypothesis(1, t, (0, 1), 1)
    ell = losses.zero_one_loss((0, 1), 1)
    sc = sampler.Scenario(mu, F)
    trials = 400
    freq = learners.check_concentration(sc, H, ell, 16, 0.5, trials, "conc")
    bound = learners.concentration_bound(0.5, 16, 1, t)
    assert float(freq) <= bound + 3 * math.sqrt(0.25 / trials)


def test_derandomized_sizes_frozen():
    r = lambda m: 4  # noqa: E731
    assert (
        learners.derandomized_sample_size(_m_rand, r, 2, PLAIN_2, 1, 0.25, 0.25)
        == 2194
    )
    assert (
        learners.derandomized_sample_size_simple(_m_rand, r, 2, PLAIN_2, 1, 0.25)
        == 2194
    )
    assert learners.split_for(2194, _m_rand, r, 2, PLAIN_2) == (4, 64)
    assert learners.split_for(10, _m_rand, r, 2, PLAIN_2) is None


def test_split_for_randomness_cap():
    r = lambda m: 2**30  # noqa: E731
    with pytest.raises(ValueError):
        learners.split_for(10**6, _m_rand, r, 2, PLAIN_2)


def test_split_nonpartite_shapes():
    spec = families.matching_family(2)
    mu = templates.uniform_prob(spec.cls.template)
    F = spec.cls.members[1]
    x = sampler.sample_config(mu, 6, sampler.stream("split", 0))
    y = star(F, x, 6)
    x1, y1, x2, y2 = learners._split(x, y, 2, 6, 2)
    assert learners.sample_size(x1) == 2
    assert learners.sample_size(x2) == 4
    assert y1[(1, 2)] == y[(1, 2)]
    assert y2[(1, 2)] == y[(3, 4)]
    assert x2[(1,)] == x[(3,)]


def test_split_stops_at_the_sample_arity():
    # the prefix is a pullback along an injection of length 20; probing
    # every subset size up to that length would enumerate 2^20 subsets
    spec = families.matching_family(2)
    mu = templates.uniform_prob(spec.cls.template)
    sc = sampler.Scenario(mu, spec.cls.members[1])
    x, y = sampler.labeled_sample(sc, 40, sampler.stream("split", 2))
    started = time.perf_counter()
    x1, _, x2, _ = learners._split(x, y, 20, 40, 2)
    assert time.perf_counter() - started < 1
    assert {len(a) for a in x1} == {len(a) for a in x2} == {1, 2}
    assert len(x1) == len(x2) == 20 + 190


def test_split_partite_shapes():
    ho = families.highorder_family(3).cls
    mu = templates.uniform_partite_prob(ho.template)
    x = sampler.sample_partite_config(mu, 5, sampler.stream("split", 1))
    y = star_partite(ho.members[-1], x, 5)
    x1, y1, x2, y2 = learners._split(x, y, 2, 5, 2)
    assert learners.sample_size(x1) == 2
    assert learners.sample_size(x2) == 3
    assert len(y1) == 4 and len(y2) == 9
    assert y2[(1, 2)] == y[(3, 4)]
    assert x2[((1, 1), (2, 3))] == x[((1, 3), (2, 5))]


def test_derandomize_deterministic_and_fallback():
    spec = families.matching_family(2)
    cls = spec.cls
    ell = losses.zero_one_loss(cls.labels, 2)
    mu = templates.uniform_prob(cls.template)
    fallback = cls.members[0]

    def fn(x, y, b):
        return cls.members[b]

    A = learners.Learner(2, fn, lambda m: 4, name="pick")
    F = cls.members[-1]
    ctx = fastpath.PairContext(mu, F, ell)
    tables = [ctx.loss_table(H) for H in cls.members]

    def emp(H, x, y, lo, hi):
        counts = np.bincount(y.u[lo:hi], minlength=ctx.n).tolist()
        return ctx.empirical(tables[cls.members.index(H)], counts)

    D = learners.derandomize(A, _m_rand, ell, fallback, empirical_eval=emp)
    assert D.r(100) == 1
    # infeasible size: fallback
    u = ctx.draw_unary(sampler.stream("dr", 0), 6)
    x = {(i,): v for i, v in enumerate(u, start=1)}
    y = fastpath.LazyPairLabels(ctx.ftable, u)
    assert D(x, y, 0) is fallback
    # feasible size: the holdout argmin, computed twice, is identical
    m = learners.derandomized_sample_size(_m_rand, A.r, 2, cls.template, 1, 0.5, 0.5)
    u = ctx.draw_unary(sampler.stream("dr", 1), m)
    x = {(i,): v for i, v in enumerate(u, start=1)}
    y = fastpath.LazyPairLabels(ctx.ftable, u)
    H1 = D(x, y, 0)
    H2 = D(x, y, 0)
    assert H1 is H2


def test_derandomize_holdout_is_the_argmin():
    # without empirical_eval the wrapper materializes the holdout itself
    sc = adversaries.shattered_scenario(4)
    ell = losses.zero_one_loss(sc.labels, 1)
    F = sc.hypothesis({0, 3})
    # none equals F, and each misses it on a different number of points
    candidates = [sc.hypothesis(B) for B in ({1, 2}, set(), {0}, {1})]
    A = learners.Learner(1, lambda x, y, b: candidates[b], lambda m: 4, name="pick")
    D = learners.derandomize(A, _m_rand, ell, F)
    m = 60
    _, m1 = learners.split_for(m, _m_rand, A.r, 1, sc.template)
    assert 0 < m1 < m
    for t in range(3):
        rng = sampler.stream("dr-holdout", t)
        x, y = sampler.labeled_sample(sampler.Scenario(sc.mu, F), m, rng)
        _, _, x2, y2 = learners._split(x, y, m1, m, 1)
        holdout = [losses.empirical_loss(x2, y2, ell, H, m - m1) for H in candidates]
        best = holdout.index(min(holdout))
        assert best != 0
        assert D(x, y) is candidates[best]


def test_derandomize_reads_k_off_a_partite_fallback():
    # on a 2-partite sample K = k = 2, so m = 60 splits at m1 = 2; the plain
    # K = k^2 = 4 finds no split there and would return the fallback
    ho = families.highorder_family(3).cls
    F = ho.members[-1]
    m_rand = lambda e, d: 1 / e  # noqa: E731
    prefixes = []

    def pick(x, y, b):
        prefixes.append(learners.sample_size(x))
        return (ho.members[1], F)[b]

    A = learners.Learner(2, pick, lambda m: 2, name="pick")
    m = 60
    split = learners.split_for(m, m_rand, A.r, 2, ho.template)
    assert split == (1, 2)
    assert learners.split_for(m, m_rand, A.r, 2, PLAIN_2) is None
    ell = losses.zero_one_loss(ho.labels, 2)
    D = learners.derandomize(A, m_rand, ell, ho.members[0])
    sc = sampler.Scenario(templates.uniform_prob(ho.template), F)
    x, y = sampler.labeled_sample(sc, m, sampler.stream("dr-partite", 0))
    assert D(x, y) is F
    assert prefixes == [split[1]] * 2


def test_infvcn_m_pac_frozen():
    assert learners.infvcn_m_pac(0.2, 0.2) == pytest.approx(
        200.97032471472255, rel=1e-9
    )
    assert math.ceil(learners.infvcn_m_pac(0.2, 0.2)) == 201


def test_infvcn_learner_wiring():
    cls, A, m_pac = learners.infvcn_learner(2)
    assert cls.partite
    assert m_pac is learners.infvcn_m_pac
    # the learner reads the partite sample and fits it exactly
    sc = sampler.Scenario(templates.uniform_partite_prob(cls.template), cls.members[-1])
    x, y = sampler.labeled_sample(sc, 4, sampler.stream("infvcn", 0))
    ell = losses.zero_one_loss(cls.labels, 2)
    assert losses.empirical_loss_partite(x, y, ell, A(x, y), 4) == 0


def test_the_setting_is_read_from_the_data():
    # a partite scenario needs no flag, and a flag that disagrees is refused
    ho = families.highorder_family(3).cls
    mu = templates.uniform_partite_prob(ho.template)
    F, H = ho.members[-1], ho.members[1]
    ell = losses.zero_one_loss(ho.labels, 2)
    read, passed = sampler.Scenario(mu, F), sampler.Scenario(mu, F, partite=True)
    assert read.partite
    eps = Fraction(1, 10)
    assert learners.check_concentration(
        read, H, ell, 8, eps, 20, "flag"
    ) == learners.check_concentration(passed, H, ell, 8, eps, 20, "flag")
    with pytest.raises(ValueError):
        sampler.Scenario(mu, F, partite=False)
    x, y = sampler.labeled_sample(read, 5, sampler.stream("flag", 0))
    m = learners.sample_size(x)
    assert type(m) is int and m == 5
    # every ERM name runs in the class's own setting
    assert learners.erm_nonpartite is learners.erm_partite is learners.erm
    G = learners.erm(ho, ell)(x, y)
    assert G is _first_argmin(ho, ell, x, y, m)
    assert losses.empirical_loss_partite(x, y, ell, G, m) == 0


def test_estimate_pac_success_perfect_learner():
    spec = families.matching_family(2)
    cls = spec.cls
    ell = losses.zero_one_loss(cls.labels, 2)
    mu = templates.uniform_prob(cls.template)
    F = cls.members[1]
    sc = sampler.Scenario(mu, F)
    A = learners.Learner(2, lambda x, y, b: F, lambda m: 1, name="cheat")
    freq = learners.estimate_pac_success(A, sc, ell, 4, 0.1, 20, "pac")
    assert freq == 1


def test_pac_success_totals_each_returned_member_once(monkeypatch):
    # a learner returns one of a few members, so each one is read once per
    # call, at the law's atoms; two members that differ only in fn compare
    # equal, and each is still read
    reads = Counter()
    monkeypatch.setattr(Hypothesis, "__call__", lambda H, x: reads.update([id(H)]) or H.fn(x))
    match = families.matching_family(2).cls
    t, labels = match.template, match.labels
    twins = [Hypothesis(2, t, labels, H.fn, name="twin") for H in match.members[:2]]
    assert twins[0] == twins[1]
    sc = sampler.Scenario(templates.uniform_prob(t), match.members[0])
    ell = losses.zero_one_loss(labels, 2)
    A = learners.Learner(2, lambda x, y, b: twins[b], lambda m: 2)
    freq = learners.estimate_pac_success(A, sc, ell, 4, Fraction(1, 10), 40, "twins")
    # the two twins and the target, each read once, at every atom's joined
    # point (without mu', the distinct points are the atoms)
    points = len(templates.config_law(sc.mu, 2))
    assert reads == dict.fromkeys(map(id, [*twins, sc.F]), points)
    # only twins[0], which is F, has total loss 0 <= 1/10
    picks = []
    for trial in range(40):
        rng = sampler.stream("twins", trial)
        sampler.labeled_sample(sc, 4, rng)
        picks.append(rng.randrange(2))
    assert 0 < picks.count(0) < 40 and freq == Fraction(picks.count(0), 40)
    reads.clear()
    learners.estimate_pac_success(
        A, sc, ell, 4, Fraction(1, 10), 40, "twins", cls=match.members
    )
    assert len(reads) == len(match.members) + 2 and set(reads.values()) == {points}


def test_pac_success_reads_each_h_once_per_distinct_x_given_mu2(monkeypatch):
    # given mu', F is read at each of the 6 joint atoms, and each returned H
    # once per distinct x, at its 3 points, not once per joint atom.  Hs[0]
    # is constant 0 (total 1/3) and Hs[1] = 1[x = 2] (total 2/3), so with
    # eps = 0 a trial succeeds when its index picks Hs[0]
    t, t2 = templates.Template(1, (3,)), templates.Template(1, (2,))
    mu, mu2 = templates.uniform_prob(t), templates.uniform_prob(t2)
    # a joined value is x's value times 2 plus x''s
    F = Hypothesis(1, templates.product_template(t, t2), (0, 1), lambda z: int(z[(1,)] // 2 == z[(1,)] % 2))
    Hs = [Hypothesis(1, t, (0, 1), lambda x, v=v: int(x[(1,)] == v)) for v in (3, 2)]
    sc, ell = sampler.Scenario(mu, F, mu2=mu2), losses.zero_one_loss((0, 1), 1)
    reads = Counter()
    monkeypatch.setattr(Hypothesis, "__call__", lambda H, x: reads.update([id(H)]) or H.fn(x))
    A = learners.Learner(1, lambda x, y, b: Hs[b], lambda m: 2)
    got = learners.estimate_pac_success(A, sc, ell, 3, 0, 30, "mu2", cls=Hs)
    assert reads == {id(F): 6, id(Hs[0]): 3, id(Hs[1]): 3}
    monkeypatch.undo()
    totals = losses.totals(mu, F, losses.wrap_agnostic(ell), mu2)
    assert list(map(totals, Hs)) == [Fraction(1, 3), Fraction(2, 3)]
    wins = 0
    for trial in range(30):
        rng = sampler.stream("mu2", trial)
        sampler.labeled_sample(sc, 3, rng)
        wins += rng.randrange(2) == 0
    assert 0 < got == Fraction(wins, 30) < 1


def test_pac_success_refuses_loss_cells_over_int64():
    # a cell's key is x, then H's and F's labels over the k! = 6 slots of the
    # orbit, in radix 40: 40^12 keys overflow int64
    t = templates.Template(3, (1, 1, 1))
    F = constant_hypothesis(3, t, tuple(range(40)), 0)
    sc, ell = sampler.Scenario(templates.uniform_prob(t), F), losses.zero_one_loss(range(40), 3)
    A = learners.Learner(3, lambda x, y, b: F, lambda m: 1)
    with pytest.raises(ValueError, match="loss cells' keys overflow int64"):
        learners.estimate_pac_success(A, sc, ell, 3, 0, 2, "wide")
    assert learners.estimate_pac_success(
        A, sc, losses.zero_one_loss(range(30), 3), 3, 0, 2, "wide"
    ) == 1


def test_an_erm_over_reversed_labels_learns_as_by_key():
    # the sweep's reader numbers y by (0, 1), the ERM's loss lists (1, 0):
    # its block form renumbers the ids, so a trial learns what the per-trial
    # route (the learner without its block form, reading y by key) learns
    match = families.matching_family(2).cls
    sc = sampler.Scenario(templates.uniform_prob(match.template), match.members[-1])
    A = learners.erm(match, losses.zero_one_loss((1, 0), 2))
    ell, eps = losses.zero_one_loss((0, 1), 2), Fraction(1, 10)
    for A_m in (A, dataclasses.replace(A, block=None)):
        got = [learners.estimate_pac_success(A_m, sc, ell, m, eps, 40, "rev") for m in (4, 10, 20)]
        assert got == [Fraction(3, 40), Fraction(33, 40), 1]


def test_a_block_form_reads_the_blocks_without_a_call_per_trial():
    # with Learner.__call__ and ArraySample refused, the no-free-lunch search
    # and an ERM sweep learn through their block forms, and find what the
    # per-trial route (the learners without their block forms) finds
    sc = adversaries.shattered_scenario(6)
    match = families.matching_family(2).cls
    ell = losses.zero_one_loss(match.labels, 2)
    sc_m = sampler.Scenario(templates.uniform_prob(match.template), match.members[-1])
    eps = Fraction(1, 10)

    def run(block):
        nfl, A = adversaries.erm_learner(sc), learners.erm(match, ell)
        if not block:
            nfl, A = dataclasses.replace(nfl, block=None), dataclasses.replace(A, block=None)
        return (
            adversaries.nfl_worst_F(nfl, sc, 3, eps, 30, "rows", search_trials=4),
            learners.estimate_pac_success(A, sc_m, ell, 10, eps, 30, "rows"),
        )

    expected = run(False)
    refuse = AssertionError("a trial was learned one sample at a time")
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(learners.Learner, "__call__", side_effect=refuse))
        stack.enter_context(mock.patch.object(sampler.ArraySample, "__init__", side_effect=refuse))
        assert run(True) == expected
    assert 0 < expected[0][1] < 1 and 0 < expected[1] < 1


@pytest.mark.parametrize(
    "check", ["check_concentration", "check_uniform_convergence", "estimate_pac_success"]
)
@pytest.mark.parametrize("trials", [0, -3])
def test_checks_refuse_fewer_than_one_trial(check, trials):
    match = families.matching_family(2).cls
    ell = losses.zero_one_loss(match.labels, 2)
    sc = sampler.Scenario(templates.uniform_prob(match.template), match.members[-1])
    first = {
        "check_concentration": match.members[0],
        "check_uniform_convergence": match,
        "estimate_pac_success": learners.erm(match, ell),
    }[check]
    args = (sc, first, ell) if check != "estimate_pac_success" else (first, sc, ell)
    # refused before the plan or any stream is built
    with mock.patch.object(
        losses, "law_plan", side_effect=AssertionError("plan built")
    ), mock.patch.object(sampler, "stream", side_effect=AssertionError("stream built")):
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            getattr(learners, check)(*args, 6, Fraction(1, 10), trials, "none")


def _boundary_setups():
    """name -> (scenario, class, loss, m): one per route (unit codes at k = 1,
    a pair context, a 2-partite context), small enough that deviations repeat."""
    t1 = templates.Template(1, (2,))
    consts = HypothesisClass(
        1, t1, (0, 1), tuple(constant_hypothesis(1, t1, (0, 1), v) for v in (0, 1))
    )
    match = families.matching_family(2).cls
    ho = families.highorder_family(3).cls
    return {
        "unit-codes": (
            sampler.Scenario(
                templates.uniform_prob(t1), Hypothesis(1, t1, (0, 1), lambda x: x[(1,)])
            ),
            consts,
            losses.zero_one_loss((0, 1), 1),
            4,
        ),
        "pair": (
            sampler.Scenario(templates.uniform_prob(match.template), match.members[-1]),
            match,
            losses.zero_one_loss(match.labels, 2),
            3,
        ),
        "two-partite": (
            sampler.Scenario(templates.uniform_prob(ho.template), ho.members[-1]),
            ho,
            losses.zero_one_loss(ho.labels, 2),
            2,
        ),
    }


def _reference_deviations(sc, cls, ell, m, trials, seed):
    """Per trial, each member's dict-sample empirical loss and |empirical -
    total|, in Fractions."""
    total = losses.totals(sc.mu, sc.F, ell)
    totals = [total(H) for H in cls.members]
    out = []
    for t in range(trials):
        x, y = sampler.labeled_sample(sc, m, sampler.stream(seed, t))
        emps = [losses.empirical_loss(x, y, ell, H, m) for H in cls.members]
        out.append((emps, [abs(e - T) for e, T in zip(emps, totals)]))
    return totals, out


@pytest.mark.parametrize("name", ["unit-codes", "pair", "two-partite"])
def test_deviations_equal_to_eps_are_on_the_inclusive_side(name):
    # concentration counts |emp - total| = eps as a hit (>=); uniform
    # convergence counts a worst deviation of eps as good (<=) and one of
    # eps / 2 as checked (2 dev <= eps), with the first least empirical loss
    # as the ERM
    sc, cls, ell, m = _boundary_setups()[name]
    trials, seed = 60, f"edge/{name}"
    totals, ref = _reference_deviations(sc, cls, ell, m, trials, seed)
    devs = [d[0] for _, d in ref]
    worst = [max(d) for _, d in ref]
    erms = [min(range(len(e)), key=lambda i: (e[i], i)) for e, _ in ref]
    eps = max(set(devs) - {0}, key=devs.count)
    assert 0 < devs.count(eps) < trials
    with _contexts_built() as built:
        got = learners.check_concentration(sc, cls.members[0], ell, m, eps, trials, seed)
        assert got == Fraction(sum(d >= eps for d in devs), trials)
        for eps in (max(set(worst) - {0}, key=worst.count), 2 * min(set(worst) - {0})):
            report = learners.check_uniform_convergence(sc, cls, ell, m, eps, trials, seed)
            representative = [2 * w <= eps for w in worst]
            assert report == learners.UCReport(
                Fraction(sum(w <= eps for w in worst), trials),
                trials,
                sum(representative),
                sum(r and totals[i] > min(totals) + eps for r, i in zip(representative, erms)),
            )
            # eps sits on a worst deviation, or on twice one: strict comparisons
            # would count differently
            assert sum(w == eps or 2 * w == eps for w in worst) > 0
        assert built() == (0 if name == "unit-codes" else 3)


def _wide_loss(partite, labels):
    """A binary loss from a table of (H's label, F's label) at the unit's
    first entry, with numerators over 12 far past 2^63."""
    table = {
        (0, 0): 0,
        (1, 1): Fraction(1, 3),
        (0, 1): 2**62 + Fraction(1, 2),
        (1, 0): 2**61 + Fraction(3, 4),
    }

    def fn(x, y, yp):
        return table[(y, yp) if partite else (y[0], yp[0])]

    return losses.LossFn(2, labels, fn, name="wide", sup_norm=Fraction(2**63))


@pytest.mark.parametrize("name", ["pair", "two-partite", "values-past-int64"])
def test_sums_past_int64_take_python_ints_on_every_route(name, monkeypatch):
    if name == "values-past-int64":
        sc, members, ell, ms = UNIT_CODE_INSTANCES[name]
        cls, m, contexts = HypothesisClass(1, sc.mu.template, (0, 1), tuple(members)), 7, 0
    else:
        sc, cls, _, m = _boundary_setups()[name]
        ell, m, contexts = _wide_loss(sc.partite, cls.labels), 4, 1
    with _contexts_built() as built:
        _, read = learners._trial_losses(sc, cls.members, ell)
        assert built() == contexts
    blocks = list(read(_streams("wide", 8), m))
    assert {sums.dtype for sums, _ in blocks} == {np.dtype(object)}
    assert max(abs(s) for sums, _ in blocks for s in sums.ravel()) >= 2**63
    _, generic = _generic_trial_losses(sc, cls.members, ell)
    assert _losses(read, _streams("wide", 8), m) == _losses(generic, _streams("wide", 8), m)
    eps = Fraction(1, 7)
    chosen, reference = _on_both_routes(
        monkeypatch,
        lambda: (
            learners.check_concentration(sc, cls.members[0], ell, m, eps, 30, "wide"),
            learners.check_uniform_convergence(sc, cls, ell, m, eps, 30, "wide"),
        ),
    )
    assert chosen == reference
