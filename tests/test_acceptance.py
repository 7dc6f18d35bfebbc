"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``CRITERION n: PASS/FAIL`` line (visible with
``pytest -s``) and asserts the same condition, with the tolerance stated
inline.  Monte Carlo tolerances use the conservative binomial deviation
sigma = sqrt(0.25 / trials) and a 3 sigma slack.
"""

import math
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from harity import (
    adversaries,
    dims,
    families,
    fastpath,
    indexing,
    learners,
    losses,
    reductions,
    sampler,
    templates,
)
from harity.hypotheses import (
    Hypothesis,
    constant_hypothesis,
    partize_hypothesis,
    pattern,
)


def _report(n, ok, detail=""):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    print(line)
    assert ok, line


def _sigma(trials):
    return math.sqrt(0.25 / trials)


def test_criterion_01_dimension_oracles():
    started = time.time()
    ok = True
    for n in range(2, 7):
        spec = families.matching_family(n)
        ok = ok and int(dims.vcn_k(spec.cls)) == 1
        fam = dims.family_on_full_domain(spec.cls)
        ok = ok and int(dims.vc_dim(fam, cap=n + 1)) == n
    for n in range(2, 6):
        for d in range(1, 5):
            spec = families.bounded_degree_family(n, d)
            ok = ok and int(dims.vcn_k(spec.cls)) == min(d, n - 1)
    elapsed = time.time() - started
    _report(1, ok and elapsed < 10, f"elapsed {elapsed:.2f}s (< 10s)")


def test_criterion_02_growth_bound():
    specs = [
        families.matching_family(2),
        families.bounded_degree_family(3, 2),
        families.distance_family(4),
        families.max_family(4),
        families.highorder_family(3),
    ]
    ok = True
    for spec in specs:
        cls = spec.cls
        vcn = int(dims.vcn_k(cls))
        L = len(cls.labels)
        for m in range(1, 6):
            tau = dims.growth_function(cls, m)
            tight, loose = dims.growth_bound(vcn, m, L)
            ok = ok and tau <= tight <= loose
    _report(2, ok, "tau(m) <= falling-factorial bound, exact, m <= 5")


def test_criterion_03_sauer_shelah_perles():
    rng = sampler.stream("accept-ssp", 0)
    ok = True
    for trial in range(50):
        n = rng.randrange(2, 9)
        count = rng.randrange(1, min(2**n, 60) + 1)
        fns = set()
        while len(fns) < count:
            fns.add(tuple(rng.randrange(2) for _ in range(n)))
        fam = dims.FunctionFamily(tuple(range(n)), tuple(sorted(fns)))
        nat = int(dims.natarajan_dim(fam, cap=8, domain_cap=8))
        ok = ok and len(fns) <= dims.ssp_bound(nat, n, 2) == (n + 1) ** nat
    _report(3, ok, "50 random binary families, |F| <= (n+1)^Nat")


def test_criterion_04_uniform_convergence():
    started = time.time()
    spec = families.matching_family(4)
    cls = spec.cls
    ell = losses.zero_one_loss(cls.labels, 2)
    sc = sampler.Scenario(templates.uniform_prob(cls.template), cls.members[-1])
    eps = delta = Fraction(1, 5)
    trials = 1000
    # the uniform-convergence sample size formula exceeds the cap
    m_formula = learners.m_uc(1, 2, 2, 1, float(eps), float(delta))
    m = min(math.ceil(m_formula), 400)
    rep = learners.check_uniform_convergence(sc, cls, ell, m, eps, trials, "c4")
    need = 1 - float(delta) - 3 * _sigma(trials)
    freqs = [
        learners.check_uniform_convergence(sc, cls, ell, mm, eps, trials, "c4").frequency
        for mm in (10, 20, 40, 80)
    ]
    monotone = all(a <= b for a, b in zip(freqs, freqs[1:]))
    elapsed = time.time() - started
    ok = (
        m == 400
        and float(rep.frequency) >= need
        and rep.erm_violations == 0
        and monotone
        and elapsed < 120
    )
    _report(
        4,
        ok,
        f"freq {float(rep.frequency):.3f} >= {need:.3f}, sweep "
        f"{[float(f) for f in freqs]} non-decreasing, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_05_concentration():
    eps = 0.25
    trials = 10_000
    slack = 3 * _sigma(trials)

    t1 = templates.Template(1, (2,))
    mu1 = templates.ProbTemplate(t1, ((Fraction(1, 3), Fraction(2, 3)),))
    sc_n1 = sampler.Scenario(mu1, Hypothesis(1, t1, (0, 1), lambda x: x[(1,)]))
    H_n1 = constant_hypothesis(1, t1, (0, 1), 0)

    pt1 = templates.PartiteTemplate(1, {(1,): 2})
    mup1 = templates.uniform_partite_prob(pt1)
    sc_p1 = sampler.Scenario(mup1, Hypothesis(1, pt1, (0, 1), lambda x: x[((1, 1),)]))
    H_p1 = Hypothesis(1, pt1, (0, 1), lambda x: 0)

    m2 = families.matching_family(2).cls
    sc_n2 = sampler.Scenario(templates.uniform_prob(m2.template), m2.members[-1])

    ho = families.highorder_family(3).cls
    sc_p2 = sampler.Scenario(
        templates.uniform_partite_prob(ho.template), ho.members[-1]
    )

    setups = [
        ("k1-nonpartite", sc_n1, H_n1, losses.zero_one_loss((0, 1), 1), 1),
        ("k1-partite", sc_p1, H_p1, losses.zero_one_loss((0, 1), 1), 1),
        ("k2-nonpartite", sc_n2, m2.members[0], losses.zero_one_loss(m2.labels, 2), 2),
        (
            "k2-partite",
            sc_p2,
            ho.members[1],
            losses.zero_one_loss(ho.labels, 2),
            2,
        ),
    ]
    ok = True
    worst = ""
    for name, sc, H, ell, k in setups:
        for m in (8, 16, 32):
            freq = learners.check_concentration(sc, H, ell, m, eps, trials, f"c5/{name}")
            bound = learners.concentration_bound(eps, m, k, sc.mu.template)
            if float(freq) > min(bound, 1.0) + slack:
                ok = False
                worst = f"{name} m={m}: {float(freq):.4f} > {bound:.4f}+{slack:.4f}"
    _report(5, ok, worst or "all 12 setups within 2 exp(-eps^2 m / 2K) + 3 sigma")


def test_criterion_06_partization_exactness():
    started = time.time()
    ok = True
    for s1, s2 in product((1, 2), repeat=2):
        t = templates.Template(2, (s1, s2))
        pts = [dict(p) for p in templates.config_points(t, 2)]
        for x in pts:
            ok = ok and indexing.iota_kpart(indexing.phi_k(x)) == x
        for bits in product((0, 1), repeat=len(pts)):
            table = dict(zip([tuple(sorted(p.items())) for p in pts], bits))
            F = Hypothesis(2, t, (0, 1), lambda z, tb=table: tb[tuple(sorted(z.items()))])
            Fp = partize_hypothesis(F)
            for x in pts:
                ok = ok and Fp(indexing.phi_k(x)) == pattern(F, x)
        w1 = tuple(Fraction(i + 1, s1 * (s1 + 1) // 2) for i in range(s1))
        w2 = tuple(Fraction(i + 2, sum(range(2, s2 + 2))) for i in range(s2))
        mu = templates.ProbTemplate(t, (w1, w2))
        image = {}
        for x, p in templates.config_law(mu, 2):
            key = tuple(sorted(indexing.phi_k(dict(x)).items()))
            image[key] = image.get(key, Fraction(0)) + p
        target = {
            tuple(sorted(dict(x).items())): p
            for x, p in templates.partite_config_law(templates.partize_prob(mu, 2), 1)
        }
        ok = ok and image == target
    elapsed = time.time() - started
    _report(6, ok and elapsed < 1, f"exhaustive 2-point spaces, {elapsed:.2f}s (< 1s)")


def test_criterion_07_departization_oracle():
    t = templates.Template(2, (2, 1))
    mu = templates.ProbTemplate(t, ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1),)))
    mu2 = templates.ProbTemplate(t, ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1),)))
    tj = templates.product_template(t, t)
    F = Hypothesis(
        2, tj, (0, 1), lambda x: (x[(1,)] + x[(2,)]) % 2, name="par", declared_rank=1
    )
    Fp = partize_hypothesis(F)
    mup, mu2p = templates.partize_prob(mu, 2), templates.partize_prob(mu2, 2)
    law_a = reductions.departize_construction_law(mup, mu2p, Fp, 2, 2)
    law_b = reductions.departize_discrete_law(mu, mu2, Fp, 2, 2)

    H = Hypothesis(2, t, (0, 1), lambda x: x[(1,)], name="left")
    Ht = reductions.untagged_hypothesis(H, 2, reductions.tagged_template(t, 2))
    C = Fraction(3, 4)  # 0/1 flexibility constant at k = 2, two labels
    lhs = Fraction(0)
    survived = Fraction(0)
    for (xh, yh), p in law_a.items():
        yd = dict(yh)
        y12, y21 = yd[(1, 2)], yd[(2, 1)]
        if y12 == reductions.BOTTOM or y21 == reductions.BOTTOM:
            lhs += p * C
        else:
            survived += p
            lhs += p * (0 if pattern(Ht, dict(xh)) == (y12, y21) else 1)
    pk = reductions.departize_p(2)
    ag = losses.wrap_agnostic(losses.zero_one_loss(Fp.labels, 2))
    l_kpart = losses.total_loss_ag(mup, mu2p, Fp, ag, partize_hypothesis(H))
    rhs = (1 - pk) * C + pk * l_kpart
    ok = law_a == law_b and survived == pk == Fraction(1, 16) and lhs == rhs
    _report(
        7,
        ok,
        f"laws equal exactly; decomposition {lhs} == (1-p)C + p*{l_kpart} with p=1/16",
    )


def test_criterion_08_no_free_lunch():
    d, m, trials = 20, 5, 10_000
    eps = Fraction(1, 10)
    sc = adversaries.shattered_scenario(d)
    A = adversaries.erm_learner(sc)
    _, freq = adversaries.nfl_worst_F(A, sc, m, eps, trials, "c8")
    bound = adversaries.nfl_lower_bound(eps, m, d)
    need = float(bound) - 3 * _sigma(trials)
    ok = bound == Fraction(11, 36) and float(freq) >= need
    _report(8, ok, f"measured {float(freq):.4f} >= {need:.4f} (bound 11/36)")


def test_criterion_09_clean_subsets():
    ok = True
    for n, rho in ((3, 6), (4, 15), (5, 33)):
        assert adversaries.ramsey_rho(n) == rho
        for trial in range(100):
            rng = sampler.stream("c9", f"{n}/{trial}")
            f1 = [rng.randrange(10 * rho) for _ in range(rho)]
            f2 = {
                frozenset(p): rng.randrange(3 * rho)
                for p in combinations(range(rho), 2)
            }
            U = adversaries.find_clean_subset(f1, f2, n)
            ok = ok and len(U) == n and adversaries.verify_clean_subset(f1, f2, U)
    _report(9, ok, "300 random instances, clean subset found within rho(n)")


def test_criterion_10_rank2_pac():
    # the library's PAC sweep: its own sampler, streams and ERM
    started = time.time()
    eps = delta = Fraction(1, 5)
    m_pac = learners.infvcn_m_pac(float(eps), float(delta))
    m = math.ceil(m_pac)
    cls, A, _ = learners.infvcn_learner(8)
    F = next(H for H in cls.members if H.name == "ho[0, 2, 3, 5, 7]")
    sc = sampler.Scenario(templates.uniform_prob(cls.template), F)
    ell = losses.zero_one_loss(cls.labels, 2)
    trials = 400
    freq = learners.estimate_pac_success(A, sc, ell, m, eps, trials, "c10")
    need = 1 - float(delta) - 3 * _sigma(trials)
    elapsed = time.time() - started
    ok = m == 201 and m <= 1000 and freq >= need and elapsed < 15
    _report(
        10,
        ok,
        f"m = ceil({m_pac:.2f}) = {m} <= 1000, freq {float(freq):.3f} >= {need:.3f}, "
        f"{elapsed:.2f}s (< 15s)",
    )


def test_criterion_11_bayes_optimality():
    ell = losses.zero_one_loss((0, 1), 2)
    ag = losses.wrap_agnostic(ell)
    ok = True
    for trial in range(20):
        rng = sampler.stream("c11", trial)
        s1 = rng.choice((2, 3))
        s2 = rng.choice((1, 2))
        t = templates.Template(2, (s1, s2))

        def rand_prob():
            rows = []
            for size in (s1, s2):
                raw = [rng.randrange(1, 5) for _ in range(size)]
                rows.append(tuple(Fraction(v, sum(raw)) for v in raw))
            return templates.ProbTemplate(t, tuple(rows))

        mu, mu2 = rand_prob(), rand_prob()
        tj = templates.product_template(t, t)
        table = {}

        def f_fn(x, tb=table, r=rng):
            key = tuple(sorted(x.items()))
            if key not in tb:
                tb[key] = r.randrange(2)
            return tb[key]

        F = Hypothesis(2, tj, (0, 1), f_fn, name="rand-F")
        members = []
        for i in range(6):
            mtab = {
                tuple(sorted(dict(p).items())): rng.randrange(2)
                for p in templates.config_points(t, 2)
            }
            members.append(
                Hypothesis(2, t, (0, 1), lambda x, tb=mtab: tb[tuple(sorted(x.items()))])
            )
        bayes = losses.bayes_predictor(mu, mu2, F, ell)
        b_total = losses.total_loss_ag(mu, mu2, F, ag, bayes)
        for H in members:
            ok = ok and b_total <= losses.total_loss_ag(mu, mu2, F, ag, H)
    _report(11, ok, "Bayes total <= every member total, exact, 20 random scenarios")


def test_criterion_12_derandomization():
    cls = families.matching_family(3).cls
    ell = losses.zero_one_loss(cls.labels, 2)
    mu = templates.uniform_prob(cls.template)
    F = cls.members[0]
    sc = sampler.Scenario(mu, F)
    ctx = fastpath.PairContext(mu, F, ell)
    const1 = constant_hypothesis(2, cls.template, (0, 1), 1)
    erm = learners.erm(cls, ell)

    def a_fn(x, y, b):
        if b < 3:
            return const1
        # the derandomized run's x holds unary values only; its pair
        # coordinates read 0, which matching ignores and ctx.ftable uses
        pairs = combinations(range(1, learners.sample_size(x) + 1), 2)
        return erm({**dict.fromkeys(pairs, 0), **x}, y)

    A = learners.Learner(2, a_fn, lambda m: 4, name="mixed")
    m_rand = lambda e, d: 8 / min(e, d)  # noqa: E731
    eps = delta = 0.25
    trials = 300
    freq_rand = learners.estimate_pac_success(
        A, sc, ell, math.ceil(m_rand(eps, delta)), eps, trials, "c12-rand"
    )

    m_der = learners.derandomized_sample_size(
        m_rand, A.r, 2, const1.template, 1, eps, delta
    )
    tables = {}

    def emp(H, x, y, lo, hi):
        if id(H) not in tables:
            tables[id(H)] = ctx.loss_table(H)
        counts = np.bincount(y.u[lo:hi], minlength=ctx.n).tolist()
        return ctx.empirical(tables[id(H)], counts)

    D = learners.derandomize(A, m_rand, ell, const1, empirical_eval=emp)
    successes = 0
    deterministic = D.r(m_der) == 1
    for t in range(trials):
        rng = sampler.stream("c12-der", t)
        u = ctx.draw_unary(rng, m_der)
        x = {(i,): v for i, v in enumerate(u, start=1)}
        y = fastpath.LazyPairLabels(ctx.ftable, u)
        H = D(x, y, 0)
        if t == 0:
            deterministic = deterministic and D(x, y, 0) is H
        if losses.total_loss(mu, F, ell, H) <= Fraction(1, 4):
            successes += 1
    freq_der = Fraction(successes, trials)
    slack = 3 * _sigma(trials)
    ok = (
        m_der == 2194
        and learners.split_for(m_der, m_rand, A.r, 2, const1.template) == (4, 64)
        and deterministic
        and float(freq_der) >= float(freq_rand) - slack
    )
    _report(
        12,
        ok,
        f"derandomized {float(freq_der):.3f} at m={m_der} >= randomized "
        f"{float(freq_rand):.3f} at m=32 minus {slack:.3f}",
    )
