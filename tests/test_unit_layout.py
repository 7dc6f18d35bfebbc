"""Properties of the readers that share ``sampler._units``, the one layout of
a sample's units, over random scenarios in both settings: the PAC sweep's
reader, the checks' trial losses, the ERM, the PAC sweep itself, and the
exact totals; and the sampling axioms, exchangeability and projectivity, on
the exact sample law, with the equivariance of F*.  Each property compares
a route with the dict-sample or brute-force reference on every draw of
``scenarios()``; the named instances in ``test_learners``
(``UNIT_CODE_INSTANCES``, ``_k2_instances``) stay as regressions."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from harity import families, fastpath, indexing, learners, losses, sampler, templates
from harity.hypotheses import Hypothesis, HypothesisClass, star

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _weights(rng, n):
    """n rational weights, zeros allowed, at least one positive."""
    w = [rng.choice((0, 1, 2)) for _ in range(n)]
    w[rng.randrange(n)] += 1
    return tuple(Fraction(v, sum(w)) for v in w)


def _measure(t, rng):
    return templates.ProbTemplate(t, t.tabulate(lambda a: _weights(rng, t.size(a))))


def _template(draw, partite, k, unary, higher):
    """A template of the setting with its unary (or part-singleton) spaces
    drawn from 1..unary points and the others from 1..higher."""
    def size(arity):
        return draw(st.integers(1, unary if arity == 1 else higher))

    if partite:
        return templates.PartiteTemplate(k, {a: size(len(a)) for a in indexing.subsets(k, k)})
    return templates.Template(k, tuple(size(i) for i in range(1, k + 1)))


def _hashed(kl, t, labels, seed, unary):
    """A hypothesis over t whose label at a point is a seeded hash of it, or
    of its unary (part-singleton) values alone: deterministic, and read
    lazily, so F may live over a large product."""

    def fn(x):
        read = [(key, v) for key, v in x.items() if len(key) == 1 or not unary]
        return labels[hash((seed, tuple(sorted(read)))) % len(labels)]

    return Hypothesis(kl, t, labels, fn)


def _asymmetric_loss(kl, labels, seed):
    """A Fraction loss that reads x's first coordinate and the first entry of
    each label pattern (a partite label is its own first entry), so it is
    neither symmetric in (y, y') nor under S_k."""

    def head(y):
        return y[0] if isinstance(y, tuple) else y

    def fn(x, y, yp):
        key = (seed, min(x.items()), head(y), head(yp))
        return Fraction(hash(key) % 5, 1 + hash(key[1:]) % 3)

    return losses.LossFn(kl, labels, fn, name="asym")


@st.composite
def scenarios(draw):
    """(scenario, class, loss).  A plain or partite template with k in
    {1, 2, 3} (unary spaces of up to 3 points, or 2 at k = 3, the others of
    up to 2), zero weights allowed, 2 or 3 labels, the 0/1 loss or an
    asymmetric Fraction loss of arity at most k (exactly k on a partite
    template, whose units have one vertex per part), a class of 1 to 3
    hashed members (in half the draws F and the members read only the unary
    values, so that a fastpath context can qualify), and in about a third of
    draws a mu' on its own template of the same setting and arity, F then
    living over the product."""
    partite, k = draw(st.booleans()), draw(st.integers(1, 3))
    kl = k if partite else draw(st.integers(1, k))
    labels = tuple(range(draw(st.integers(2, 3))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    t = _template(draw, partite, k, 2 if k == 3 else 3, 2)
    mu, mu2, ft = _measure(t, rng), None, t
    if draw(st.integers(0, 2)) == 0:
        t2 = _template(draw, partite, k, 2, 1 if k == 3 else 2)
        mu2, ft = _measure(t2, rng), templates.product_template(t, t2)
    members, unary = {}, draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        H = _hashed(kl, t, labels, rng.random(), unary)
        members.setdefault(tuple(map(H, templates.domain_points(t, kl))), H)
    cls = HypothesisClass(kl, t, labels, tuple(members.values()))
    if draw(st.booleans()):
        ell = losses.zero_one_loss(labels, kl)
    else:
        ell = _asymmetric_loss(kl, labels, rng.random())
    sc = sampler.Scenario(mu, _hashed(kl, ft, labels, rng.random(), unary), mu2=mu2)
    return sc, cls, ell


def _size(sc, ell, extra):
    """A sample size with at least one unit of arity ell.k."""
    return (1 if sc.partite else ell.k) + extra


def _labels(sc, ell):
    """F's labels at every atom's orbit pullbacks, atom by atom, as the PAC
    sweep hands them to its reader."""
    law = losses.law_plan(sc.mu, ell.k, sc.mu2)  # the joined points, then pullbacks
    return [sc.F(law[1][i]) for i in law[6][0].ravel().tolist()]


def _streams(seed, n=3):
    return [sampler.stream(seed, t) for t in range(n)]


@PROPERTY
@given(scenarios(), st.integers(0, 2))
def test_labeled_reader_yields_labeled_samples(instance, extra):
    sc, _, ell = instance
    m = _size(sc, ell, extra)
    draw = sampler._labeled_reader(sc, ell.k, ell.labels, _labels(sc, ell))
    coded, drawn = _streams("reader"), _streams("reader")
    got = list(draw(iter(coded), m))
    assert [rng for rng, _, _ in got] == coded
    for (rng, x, y), r in zip(got, drawn):
        x0, y0 = sampler.labeled_sample(sc, m, r)
        assert list(x.items()) == list(x0.items())
        assert list(y.items()) == list(y0.items())
        assert rng.getstate() == r.getstate()


@PROPERTY
@given(scenarios(), st.integers(0, 2))
def test_trial_losses_equal_empirical_losses_on_every_route(instance, extra):
    # the route the members' rows pick, and the unit-code route forced
    sc, cls, ell = instance
    m, members = _size(sc, ell, extra), list(cls.members)
    expected = []
    for r in _streams("trials"):
        x, y = sampler.labeled_sample(sc, m, r)
        expected.append([losses.empirical_loss(x, y, ell, H, m) for H in members])
    for forced in (False, True):
        route = {"return_value": False} if forced else {"wraps": fastpath.qualifies}
        with mock.patch.object(fastpath, "qualifies", **route):
            _, read = learners._trial_losses(sc, members, ell)
            got = [
                [Fraction(int(s), den) for s in row]
                for sums, den in read(_streams("trials"), m)
                for row in sums
            ]
        assert got == expected


@PROPERTY
@given(scenarios(), st.integers(0, 2))
def test_erm_is_the_first_argmin(instance, extra):
    sc, cls, ell = instance
    m, A = _size(sc, ell, extra), learners.erm(cls, ell)
    for r in _streams("erm"):
        x, y = sampler.labeled_sample(sc, m, r)
        emp = [losses.empirical_loss(x, y, ell, H, m) for H in cls.members]
        assert A(x, y, 0) is cls.members[emp.index(min(emp))]


@PROPERTY
@given(scenarios(), st.integers(0, 2), st.integers(0, 2))
def test_pac_sweep_equals_the_dict_route(instance, extra, j):
    # the array route (the reader's samples, the ERM reading their rows)
    # against labeled_sample's dicts, the ERM reading them by key, and the
    # exact totals; the target is a member's total, so the ERM's pick counts
    sc, cls, ell = instance
    m, A = _size(sc, ell, extra), learners.erm(cls, ell)
    total = losses.totals(sc.mu, sc.F, losses.wrap_agnostic(ell) if sc.mu2 else ell, sc.mu2)
    eps = total(cls.members[j % len(cls.members)])
    wins = sum(
        total(A(*sampler.labeled_sample(sc, m, r), 0)) <= eps for r in _streams("pac", 6)
    )
    assert learners.estimate_pac_success(A, sc, ell, m, eps, 6, "pac") == Fraction(wins, 6)


def _hashing_learner(cls):
    """A learner with two randomness indices that picks a member by a hash
    of the sample, read by key, and of b."""

    def fn(x, y, b):
        return cls.members[hash((tuple(x.items()), tuple(y.items()), b)) % len(cls.members)]

    return learners.Learner(cls.k, fn, lambda m: 2, name="hashing")


@PROPERTY
@given(
    scenarios(),
    st.integers(0, 2),
    st.integers(2, 3),
    st.integers(0, 2**32),
    st.booleans(),
    st.booleans(),
)
def test_pac_successes_equal_a_loop_per_target(instance, extra, n, seed, agnostic, randomized):
    # 2 or 3 targets sharing mu (and mu'), each against the reference loop
    # labeled_sample -> A -> losses.totals on its own streams; the ERM, or a
    # learner that hashes the sample and its index b, reads every y, so a
    # row labeled by another target's F shows in the frequencies
    sc, cls, ell = instance
    m, rng = _size(sc, ell, extra), random.Random(seed)
    targets = [sc] + [
        sampler.Scenario(sc.mu, _hashed(ell.k, sc.F.template, cls.labels, rng.random(), False), sc.mu2)
        for _ in range(n - 1)
    ]
    A = _hashing_learner(cls) if randomized else learners.erm(cls, ell)
    agnostic_ell = losses.wrap_agnostic(ell) if sc.mu2 else ell
    totals = [losses.totals(t.mu, t.F, agnostic_ell, t.mu2) for t in targets]
    eps = Fraction(0) if agnostic else totals[0](cls.members[seed % len(cls.members)])
    seeds = [f"targets/{i}" for i in range(n)]
    expected = []
    for target, total, tag in zip(targets, totals, seeds):
        bar = eps + (min(map(total, cls)) if agnostic else 0)
        wins = 0
        for t in range(5):
            r = sampler.stream(tag, t)
            x, y = sampler.labeled_sample(target, m, r)
            wins += total(A(x, y, r.randrange(A.r(m)))) <= bar
        expected.append(Fraction(wins, 5))
    got = learners.pac_successes(A, targets, ell, m, eps, 5, seeds, cls if agnostic else None)
    assert got == expected


@PROPERTY
@given(scenarios())
def test_totals_equal_the_brute_force_sum(instance):
    # each atom's mass is rebuilt from mu's (and mu''s) weights coordinate by
    # coordinate, over the points the uniform law lists
    sc, cls, ell = instance
    t, d = sc.mu.template, sc.mu.template.domain(ell.k)[0]
    uniform = [templates.uniform_prob(nu.template) for nu in (sc.mu, sc.mu2) if nu]

    def mass(nu, x):
        tn = nu.template
        return math.prod(nu.weight(tn.space(key), v) for key, v in x.items())

    atoms = []
    for x, z, _ in sampler.joint_law(uniform[0], d, uniform[1] if sc.mu2 else None):
        p = mass(sc.mu, x)
        if sc.mu2:
            p *= mass(sc.mu2, templates.split_config(t, sc.mu2.template, z)[1])
        atoms.append((x, t.label(sc.F, z), p))
    agnostic = losses.wrap_agnostic(ell) if sc.mu2 else ell
    total = losses.totals(sc.mu, sc.F, agnostic, sc.mu2)
    for H in cls.members:
        expected = sum(p * Fraction(ell(x, t.label(H, x), y)) for x, y, p in atoms)
        assert total(H) == expected


@PROPERTY
@given(scenarios(), st.integers(0, 2))
def test_the_erm_reads_an_array_sample_by_its_rows(instance, extra):
    # with the view's dict build refused, the ERM and sample_size read the
    # reader's samples as they read labeled_sample's dicts; the views read
    # as those dicts, in order, and the rows behind them are read-only
    sc, cls, ell = instance
    m, A = _size(sc, ell, extra), learners.erm(cls, ell)
    draw = sampler._labeled_reader(sc, ell.k, ell.labels, _labels(sc, ell))
    got = [(x, y) for _, x, y in draw(_streams("rows"), m)]
    coords = sampler._units(sc.mu.template, ell.k, m).coords
    assert not any(sampler.values(x, coords).flags.writeable for x, _ in got)
    refuse = AssertionError("a key was read")
    with mock.patch.object(sampler.ArraySample, "_items", side_effect=refuse):
        picked = [A(x, y) for x, y in got]
        sizes = [learners.sample_size(x) for x, _ in got]
    for (x, y), r, H, size in zip(got, _streams("rows"), picked, sizes):
        x0, y0 = sampler.labeled_sample(sc, m, r)
        assert H is A(dict(x), dict(y)) and size == learners.sample_size(x0)
        assert list(x.items()) == list(x0.items()) and x == x0
        assert list(y.items()) == list(y0.items()) and y == y0


def test_a_label_the_loss_lacks_is_refused_on_either_route():
    # F labels matched pairs 2, which the 0/1 loss over (0, 1) lacks: on each
    # sample the ERM raises KeyError on the reader's arrays iff on the dicts,
    # and iff its block form does on the sample's row
    match = families.matching_family(2).cls
    G = match.members[-1]
    F = Hypothesis(2, G.template, (0, 2), lambda x: 2 * G(x))
    sc = sampler.Scenario(templates.uniform_prob(match.template), F)
    ell = losses.zero_one_loss((0, 1), 2)
    A = learners.erm(match, ell)
    draw = sampler._labeled_reader(sc, 2, ell.labels, _labels(sc, ell))
    (xs, ys), = draw.blocks(_streams("missing", 12), 3)
    outcomes = []
    for (_, x, y), r, i in zip(draw(_streams("missing", 12), 3), _streams("missing", 12), range(12)):
        routes = []
        for learn in (
            lambda: A(x, y),
            lambda: A(*sampler.labeled_sample(sc, 3, r)),
            lambda: A.block(3, xs[i : i + 1], ys[i : i + 1], draw.alphabet)[0],
        ):
            try:
                routes.append(learn() is not None)
            except KeyError as e:
                routes.append(e.args)
        assert routes[0] == routes[1] == routes[2]
        outcomes.append(routes[0])
    assert (2,) in outcomes and True in outcomes


def _scaled(ell, e):
    """ell times 2^e: at e = 50 a row's sums pass 2^53 from eight units on, at
    e = 61 they pass 2^63 from four."""
    return losses.LossFn(ell.k, ell.labels, lambda x, y, yp: 2**e * ell(x, y, yp), name="big")


@PROPERTY
@given(scenarios(), st.integers(0, 4), st.sampled_from((0, 50, 61)))
def test_the_erm_block_form_picks_as_the_dict_route(instance, m, e):
    # each row of the reader's blocks against labeled_sample's dicts from the
    # same stream: the one-row call and the empirical losses' first argmin,
    # so ties go to the first member, a row without a unit (m < k) gives
    # member 0, and sums are multiplied in float64 below 2^53, in int64 below
    # 2^63 and in Python ints past it
    sc, cls, ell = instance
    ell = _scaled(ell, e)
    A = learners.erm(cls, ell)
    draw = sampler._labeled_reader(sc, ell.k, ell.labels, _labels(sc, ell))
    blocks = draw.blocks(_streams("block", 6), m)
    picked = [H for xs, ys in blocks for H in A.block(m, xs, ys, draw.alphabet)]
    units = len(sampler._units(sc.mu.template, ell.k, m).at)
    for H, r in zip(picked, _streams("block", 6), strict=True):
        x, y = sampler.labeled_sample(sc, m, r)
        best = cls.members[0]
        if units:
            emp = [losses.empirical_loss(x, y, ell, G, m) for G in cls.members]
            best = cls.members[emp.index(min(emp))]
        assert H is A(x, y) is best


@PROPERTY
@given(scenarios(), st.integers(0, 2), st.permutations(range(3)), st.integers(0, 2))
def test_the_reader_numbers_y_by_the_loss_labels(instance, extra, order, cut):
    # the reader's y ids are positions in the alphabet it is given (here some
    # of the labels, in a drawn order); a label F yields outside it takes the
    # next id, in the order the plan's atoms first show it
    sc, _, ell = instance
    m, labels = _size(sc, ell, extra), _labels(sc, ell)
    alphabet = tuple(ell.labels[i] for i in order if i < len(ell.labels))[cut:]
    shown = [a for a in dict.fromkeys(labels) if a not in alphabet]
    draw = sampler._labeled_reader(sc, ell.k, alphabet, labels)
    for (_, _, y), r in zip(draw(_streams("ids"), m), _streams("ids")):
        _, y0 = sampler.labeled_sample(sc, m, r)
        assert y._alphabet == alphabet + tuple(shown)
        assert [y._alphabet[i] for i in y._row.tolist()] == list(y0.values())


@PROPERTY
@given(scenarios(), st.integers(0, 2))
def test_a_learner_over_the_labels_in_another_order_reads_y_by_key(instance, extra):
    # the reader numbers y by the loss's labels; an ERM whose loss lists them
    # in another order picks on the reader's samples what it picks on
    # labeled_sample's dicts, reading y by key and x by its row
    sc, cls, ell = instance
    m = _size(sc, ell, extra)
    A = learners.erm(cls, dataclasses.replace(ell, labels=ell.labels[::-1]))
    draw = sampler._labeled_reader(sc, ell.k, ell.labels, _labels(sc, ell))
    for (_, x, y), r in zip(draw(_streams("order"), m), _streams("order")):
        assert A(x, y) is A(*sampler.labeled_sample(sc, m, r))
        assert y._dict is not None and x._dict is None


# ---------------------------------------------------------------------------
# the sampling axioms, on the exact sample law: exchangeability and
# projectivity; and the equivariance of F*

# the exact laws these properties enumerate hold at most this many atoms, so
# m falls below 3 on the larger templates
AXIOM_ATOMS = 400


def _axiom_size(sc):
    """The largest m <= 3 whose exact sample law is under AXIOM_ATOMS."""
    def atoms(m):
        return math.prod(templates.law_atoms(nu, m) for nu in (sc.mu, sc.mu2) if nu)

    return max(m for m in range(4) if m == 0 or atoms(m) <= AXIOM_ATOMS)


def _image(law, read):
    """The law of read(x, y) for (x, y) drawn from law."""
    out = {}
    for (x, y), p in law.items():
        key = sampler.law_key(*read(dict(x), dict(y)))
        out[key] = out.get(key, 0) + p
    return out


def _actions(t, m):
    """sigma's action on a sample's x keys and y keys, for every sigma in
    S_m, or on a partite template for each part's own permutation, the
    other parts fixed."""
    if not t.partite:
        for s in itertools.permutations(range(1, m + 1)):
            yield (lambda A, s=s: tuple(sorted(s[v - 1] for v in A))), (
                lambda a, s=s: tuple(s[v - 1] for v in a)
            )
        return
    for part, s in itertools.product(range(1, t.k + 1), itertools.permutations(range(1, m + 1))):
        def act(p, v, part=part, s=s):
            return s[v - 1] if p == part else v

        yield (lambda f, act=act: tuple((p, act(p, v)) for p, v in f)), (
            lambda a, act=act: tuple(act(p, v) for p, v in enumerate(a, 1))
        )


AXIOMS = settings(max_examples=40, deadline=None, derandomize=True)


@AXIOMS
@given(scenarios())
def test_the_sample_law_is_exchangeable(instance):
    # (sigma*(x), sigma*(y)) has the law of (x, y), mu' included
    sc, _, _ = instance
    m = _axiom_size(sc)
    law = sampler.exact_sample_law(sc, m)
    for on_x, on_y in _actions(sc.mu.template, m):
        def act(x, y):
            return {A: x[on_x(A)] for A in x}, {a: y[on_y(a)] for a in y}

        assert _image(law, act) == law


@AXIOMS
@given(scenarios())
def test_the_sample_law_is_projective(instance):
    # the first m' points of a size-m sample have the size-m' law
    sc, _, _ = instance
    m, partite = _axiom_size(sc), sc.mu.template.partite
    law = sampler.exact_sample_law(sc, m)
    for mp in range(m):
        def first(x, y, mp=mp):
            def within(A):
                return max(v for _, v in A) <= mp if partite else max(A) <= mp

            return {A: v for A, v in x.items() if within(A)}, {
                a: v for a, v in y.items() if max(a) <= mp
            }

        assert _image(law, first) == sampler.exact_sample_law(sc, mp)


@AXIOMS
@given(scenarios(), st.integers(0, 2**32))
def test_star_is_equivariant(instance, seed):
    # star(F, sigma*x) = sigma*star(F, x) for every sigma in S_3, or each
    # part's own permutation on a partite template, at points x drawn over
    # F's template (the product with mu''s, given mu')
    sc, _, _ = instance
    F, m, rng = sc.F, 3, random.Random(seed)
    nu = templates.uniform_prob(F.template)
    for _ in range(3):
        x = sampler.sample_config(nu, m, rng)
        y = star(F, x, m)
        for on_x, on_y in _actions(F.template, m):
            assert star(F, {A: x[on_x(A)] for A in x}, m) == {a: y[on_y(a)] for a in y}


# ---------------------------------------------------------------------------
# one layout per (template, k, m)


def test_a_sweep_and_a_check_lay_the_units_out_once(monkeypatch):
    # a PAC sweep with the ERM and a check on one k = 1 scenario and m (the
    # check takes the unit-code route) enumerate the units once between them
    t = templates.Template(1, (3,))
    mu = templates.ProbTemplate(t, ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),))
    members = [Hypothesis(1, t, (0, 1), lambda x, v=v: int(x[(1,)] == v)) for v in range(3)]
    cls = HypothesisClass(1, t, (0, 1), tuple(members))
    sc = sampler.Scenario(mu, Hypothesis(1, t, (0, 1), lambda x: x[(1,)] % 2))
    ell, m = losses.zero_one_loss((0, 1), 1), 9
    sampler._units.cache_clear()
    sampler._layout.cache_clear()
    calls, units = [], templates.Template.units
    monkeypatch.setattr(templates.Template, "units", lambda *a: calls.append(a) or units(*a))
    learners.estimate_pac_success(learners.erm(cls, ell), sc, ell, m, 0, 4, "once")
    learners.check_concentration(sc, members[0], ell, m, Fraction(1, 10), 4, "once")
    assert calls == [(t, m, 1)]
