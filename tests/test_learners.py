import math
import random
import time
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harity import adversaries, fastpath, families, learners, losses, sampler, templates
from harity.hypotheses import (
    Hypothesis,
    HypothesisClass,
    canonical_key,
    constant_hypothesis,
    pattern,
    star,
    star_partite,
)


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


def test_erm_routes_agree():
    spec = families.matching_family(2)
    cls = spec.cls
    ell = losses.zero_one_loss(cls.labels, 2)
    mu = templates.uniform_prob(cls.template)
    oracle = learners.erm(cls, ell)
    argmin = learners.erm(replace(cls, erm=None), ell)
    for t in range(10):
        rng = sampler.stream("erm-agree", t)
        F = cls.members[rng.randrange(len(cls))]
        x = sampler.sample_config(mu, 5, rng)
        y = star(F, x, 5)
        a = oracle(x, y, 0)
        b = argmin(x, y, 0)
        ea = losses.empirical_loss_nonpartite(x, y, ell, a, 5)
        eb = losses.empirical_loss_nonpartite(x, y, ell, b, 5)
        assert ea == eb == 0
    # a class without members has nothing to minimise over
    empty = HypothesisClass(1, templates.Template(1, (2,)), (0, 1), ())
    with pytest.raises(ValueError, match="no members"):
        learners.erm(empty, losses.zero_one_loss((0, 1), 1))


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
        _, trial = learners._trial_losses(sc, cls.members, ell)
        assert built and set(built) == {ctx_cls}
        empirical = (
            losses.empirical_loss_partite
            if sc.partite
            else losses.empirical_loss_nonpartite
        )
        for t in range(10):
            x, y = sampler.labeled_sample(sc, m, sampler.stream("ucfast", t))
            assert trial(sampler.stream("ucfast", t), m) == [
                empirical(x, y, ell, H, m) for H in cls.members
            ]


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
    route, with each member's total summed atom by atom over ``config_law``."""
    t = sc.mu.template
    law = templates.config_law(sc.mu, t.domain(ell.k)[0])

    def total(H):
        F = sc.F
        return sum(p * Fraction(ell(x, t.label(H, x), t.label(F, x))) for x, p in law)

    def generic(rng, m):
        x, y = sampler.labeled_sample(sc, m, rng)
        return [losses.empirical_loss(x, y, ell, H, m) for H in members]

    return [total(H) for H in members], generic


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
    _, trial = learners._trial_losses(sc, bare, ell)
    assert len(built) == 2
    _, generic = _generic_trial_losses(sc, bare, ell)
    for t in range(6):
        fast = trial(sampler.stream("bare", t), 9)
        assert fast == declared(sampler.stream("bare", t), 9)
        assert fast == generic(sampler.stream("bare", t), 9)


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
    expected = [generic(sampler.stream("prop", t), 3) for t in range(4)]
    with _contexts_built() as built, mock.patch.object(
        sampler, "labeled_sample", wraps=sampler.labeled_sample
    ) as drawn:
        totals, trial = learners._trial_losses(sc, members, ell)
        assert totals == generic_totals
        assert [trial(sampler.stream("prop", t), 3) for t in range(4)] == expected
        fast = all(_qualifies(sc, H, ell) for H in members)
        assert built() == int(fast)
    assert drawn.call_count == (0 if fast else 4)


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
        totals, trial = learners._trial_losses(sc, [H], ell)
    assert time.perf_counter() - started < 2
    generic_totals, generic = _generic_trial_losses(sc, [H], ell)
    assert totals == generic_totals
    for t in range(5):
        assert trial(sampler.stream("cap", t), 6) == generic(sampler.stream("cap", t), 6)


def test_a_check_reads_each_member_once_per_atom():
    # the totals and the fast route's tables are the same plan rows: each
    # member is read once per orbit point of each of the law's atoms
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
    assert atoms == 16 and len(reads) == len(counted) * 2 * atoms


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
    calls = []
    law = templates.config_law
    monkeypatch.setattr(
        templates, "config_law", lambda mu, m: calls.append(mu) or law(mu, m)
    )
    nfl = adversaries.shattered_scenario(6)
    ell = losses.zero_one_loss(nfl.labels, 1)
    sc = sampler.Scenario(nfl.mu, nfl.hypothesis(frozenset({0, 3})))
    A = adversaries.erm_learner(nfl)
    learners.estimate_pac_success(A, sc, ell, 3, Fraction(1, 10), 50, "once")
    assert len(calls) == 1
    calls.clear()
    learners.check_concentration(sc, nfl.hypothesis({4}), ell, 3, 0.5, 50, "once")
    assert len(calls) == 1
    calls.clear()
    match = families.matching_family(2).cls
    sc2 = sampler.Scenario(templates.uniform_prob(match.template), match.members[1])
    ell2 = losses.zero_one_loss(match.labels, 2)
    learners.check_uniform_convergence(sc2, match, ell2, 4, 0.5, 20, "once")
    assert len(calls) == 1 and len(match.members) > 1
    (ag, t, ell1), _ = _agnostic_point_mass_scenarios()
    consts = [constant_hypothesis(1, t, (0, 1), v) for v in (0, 1)]
    calls.clear()
    learners.check_concentration(ag, consts[1], ell1, 4, 0.5, 20, "once")
    assert len(calls) == 2 and set(calls) == {ag.mu, ag.mu2}
    calls.clear()
    learners.estimate_pac_success(
        learners.Learner(1, lambda x, y, b: consts[1], lambda m: 1),
        ag, ell1, 3, Fraction(1, 10), 20, "once", cls=consts,
    )
    assert len(calls) == 2 and set(calls) == {ag.mu, ag.mu2}


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
    G = learners.erm(replace(ho, erm=None), ell)(x, y)
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
