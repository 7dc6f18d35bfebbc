import math
import time
from fractions import Fraction

import pytest

from harity import adversaries, fastpath, families, learners, losses, sampler, templates
from harity.hypotheses import (
    Hypothesis,
    HypothesisClass,
    constant_hypothesis,
    star,
    star_partite,
)


def _m_rand(e, d):
    return 8 / min(e, d)


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
    assert learners.concentration_constant(2, "nonpartite") == 4
    assert learners.concentration_constant(2, "partite") == 2
    assert learners.concentration_bound(0.25, 32, 1, "nonpartite") == (
        pytest.approx(0.7357588823428847, rel=1e-12)
    )


def test_erm_routes_agree():
    spec = families.matching_family(2)
    cls = spec.cls
    ell = losses.zero_one_loss(cls.labels, 2)
    mu = templates.uniform_prob(cls.template)
    oracle = learners.erm(cls, ell)
    explicit = learners.erm(cls, ell, use_oracle=False)
    for t in range(10):
        rng = sampler.stream("erm-agree", t)
        F = cls.members[rng.randrange(len(cls))]
        x = sampler.sample_config(mu, 5, rng)
        y = star(F, x, 5)
        a = oracle(x, y, 0)
        b = explicit(x, y, 0)
        ea = losses.empirical_loss_nonpartite(x, y, ell, a, 5)
        eb = losses.empirical_loss_nonpartite(x, y, ell, b, 5)
        assert ea == eb == 0


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
            losses.zero_one_loss(ho.labels, 2, setting="partite"),
        ),
    ]
    m = 8
    for ctx_cls, sc, cls, ell in setups:
        built.clear()
        trial = learners._trial_losses(sc, cls.members, ell)
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
    ell = losses.zero_one_loss(ho.labels, 2, setting="partite")
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
    def generic(rng, m):
        x, y = sampler.labeled_sample(sc, m, rng)
        return [losses.empirical_loss(x, y, ell, H, m) for H in members]

    return generic


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
        losses.zero_one_loss((0, 1), 2, setting="partite"),
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
        sc2, ell2, 3, eps, 5, "ag", agnostic=True, cls=cls,
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
    learners.check_concentration(sc, nfl.cls.members[5], ell, 3, 0.5, 50, "once")
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
        ag, ell1, 3, Fraction(1, 10), 20, "once", agnostic=True, cls=consts,
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
    bound = learners.concentration_bound(0.5, 16, 1, "nonpartite")
    assert float(freq) <= bound + 3 * math.sqrt(0.25 / trials)


def test_derandomized_sizes_frozen():
    r = lambda m: 4  # noqa: E731
    assert (
        learners.derandomized_sample_size(_m_rand, r, 2, "nonpartite", 1, 0.25, 0.25)
        == 2194
    )
    assert (
        learners.derandomized_sample_size_simple(_m_rand, r, 2, "nonpartite", 1, 0.25)
        == 2194
    )
    assert learners.split_for(2194, _m_rand, r, 2, "nonpartite") == (4, 64)
    assert learners.split_for(10, _m_rand, r, 2, "nonpartite") is None


def test_split_for_randomness_cap():
    r = lambda m: 2**30  # noqa: E731
    with pytest.raises(ValueError):
        learners.split_for(10**6, _m_rand, r, 2, "nonpartite")


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
        return ctx.empirical(tables[cls.members.index(H)], y.u[lo:hi])

    D = learners.derandomize(A, _m_rand, ell, fallback, empirical_eval=emp)
    assert D.r(100) == 1
    # infeasible size: fallback
    u = ctx.draw_unary(sampler.stream("dr", 0), 6)
    x = {(i,): v for i, v in enumerate(u, start=1)}
    y = fastpath.LazyPairLabels(ctx.ftable, u)
    assert D(x, y, 0) is fallback
    # feasible size: the holdout argmin, computed twice, is identical
    m = learners.derandomized_sample_size(_m_rand, A.r, 2, "nonpartite", 1, 0.5, 0.5)
    u = ctx.draw_unary(sampler.stream("dr", 1), m)
    x = {(i,): v for i, v in enumerate(u, start=1)}
    y = fastpath.LazyPairLabels(ctx.ftable, u)
    H1 = D(x, y, 0)
    H2 = D(x, y, 0)
    assert H1 is H2


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
    ell = losses.zero_one_loss(cls.labels, 2, setting="partite")
    assert losses.empirical_loss_partite(x, y, ell, A(x, y), 4) == 0


def test_the_setting_is_read_from_the_data():
    # a partite scenario needs no flag, and a flag that disagrees is refused
    ho = families.highorder_family(3).cls
    mu = templates.uniform_partite_prob(ho.template)
    F, H = ho.members[-1], ho.members[1]
    ell = losses.zero_one_loss(ho.labels, 2, setting="partite")
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
    G = learners.erm(ho, ell, use_oracle=False)(x, y)
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
