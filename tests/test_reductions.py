import time
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harity import dims, families, indexing, learners, losses, reductions, sampler, templates
from harity.hypotheses import (
    Hypothesis,
    partize_class,
    partize_hypothesis,
    star,
    star_partite,
)


def _base():
    t = templates.Template(2, (2, 1))
    mu = templates.ProbTemplate(t, ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1),)))
    return t, mu


# ---------------------------------------------------------------------------
# partization


def test_phi_m_example():
    x = {(i,): 10 + i for i in range(1, 5)}
    x.update({a: 0 for a in indexing.subsets(4, 2) if len(a) == 2})
    px = reductions.phi_m(x, 4, 2)
    assert px[((1, 1),)] == 11
    assert px[((1, 2),)] == 12
    assert px[((2, 1),)] == 13
    assert px[((2, 2),)] == 14
    assert px[((1, 2), (2, 1))] == x[(2, 3)]
    with pytest.raises(ValueError):
        reductions.phi_m({(1,): 0}, 1, 2)


def test_phi_m_preserves_measure():
    # pushing the product law through phi_m gives the partized product law
    t, mu = _base()
    image = {}
    for x, p in templates.config_law(mu, 4):
        key = tuple(sorted(reductions.phi_m(dict(x), 4, 2).items()))
        image[key] = image.get(key, Fraction(0)) + p
    target = {
        tuple(sorted(dict(x).items())): p
        for x, p in templates.partite_config_law(templates.partize_prob(mu, 2), 2)
    }
    assert image == target


def test_phi_commuting_square():
    # folding the labels of F equals labelling the folded sample with F^part
    cls = families.matching_family(2).cls
    F = cls.members[-1]
    Fp = partize_hypothesis(F)
    mu = templates.uniform_prob(cls.template)
    import harity.sampler as sampler

    for trial in range(5):
        x = sampler.sample_config(mu, 4, sampler.stream("square", trial))
        y = star(F, x, 4)
        left = reductions.phi_m_labels(y, 4, 2)
        right = star_partite(Fp, reductions.phi_m(x, 4, 2), 2)
        assert left == right


def test_nonpartite_from_partite_learner():
    cls = families.matching_family(2).cls
    pcls = partize_class(cls)
    G = pcls.members[2]

    A2 = learners.Learner(2, lambda x, y, b: G, lambda m: 3)
    A = reductions.nonpartite_from_partite_learner(A2, cls.template, cls.labels)
    assert A.r(9) == 3
    mu = templates.uniform_prob(cls.template)
    import harity.sampler as sampler

    x = sampler.sample_config(mu, 4, sampler.stream("npfp", 0))
    y = star(cls.members[0], x, 4)
    H = A(x, y, 0)
    assert H.table() == cls.members[2].table()
    # the randomness range is checked on the non-partite sample
    A(x, y, 2)
    with pytest.raises(ValueError):
        A(x, y, 3)
    assert reductions.nonpartite_sample_size(2.5, 2) == 6


# ---------------------------------------------------------------------------
# finite disintegration


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 2),
            st.fractions(min_value=Fraction(1, 10), max_value=Fraction(3)),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_disintegrate_reconstructs(entries):
    nu = {}
    for x, j, w in entries:
        nu[(x, j)] = nu.get((x, j), Fraction(0)) + w
    marginal, kernel = reductions.disintegrate_finite(nu, 3)
    for (x, j), w in nu.items():
        assert marginal[x] * kernel[x][j] == w
    for x, ker in kernel.items():
        assert sum(ker) == 1


# ---------------------------------------------------------------------------
# tagged ground spaces


def test_tag_encoding_roundtrip():
    for arity in (1, 2):
        for tag in range(reductions.tag_count(2, arity)):
            assert reductions.tag_index(2, reductions.tag_subset(2, arity, tag)) == tag
        for value in range(3):
            for tag in range(reductions.tag_count(2, arity)):
                point = reductions.encode_tagged(value, tag, 2, arity)
                assert reductions.decode_tagged(point, 2, arity) == (value, tag)


def test_tagged_template_and_prob():
    t, mu = _base()
    tt = reductions.tagged_template(t, 2)
    assert tt.size(1) == 4 and tt.size(2) == 1
    tmu = reductions.tagged_prob(mu, 2)
    for row in tmu.weights:
        assert sum(row) == 1
    # tag marginal is uniform, value marginal is mu
    assert tmu.weights[0][0] + tmu.weights[0][1] == mu.weights[0][0]


def test_untag_pushforward_recovers_base_law():
    t, mu = _base()
    tmu = reductions.tagged_prob(mu, 2)
    image = {}
    for x, p in templates.config_law(tmu, 2):
        key = tuple(sorted(reductions.untag_config(dict(x), 2).items()))
        image[key] = image.get(key, Fraction(0)) + p
    base = {tuple(sorted(dict(x).items())): p for x, p in templates.config_law(mu, 2)}
    assert image == base


def test_untagged_hypothesis_ignores_tags():
    t, mu = _base()
    H = Hypothesis(2, t, (0, 1), lambda x: x[(1,)], name="left")
    tt = reductions.tagged_template(t, 2)
    Ht = reductions.untagged_hypothesis(H, 2, tt)
    for v1, tag1 in product(range(2), range(2)):
        for v2, tag2 in product(range(2), range(2)):
            xhat = {
                (1,): reductions.encode_tagged(v1, tag1, 2, 1),
                (2,): reductions.encode_tagged(v2, tag2, 2, 1),
                (1, 2): 0,
            }
            assert Ht(xhat) == v1


def test_tag_class_and_tag_zero():
    cls = families.matching_family(2).cls
    tcls = tag_cls = reductions.tag_class(cls, 2)
    assert len(tag_cls) == len(cls)
    x = {(1,): 1, (2,): 0, (1, 2): 0}
    xhat = reductions.tag_zero(x, 2)
    for H, Ht in zip(cls.members, tcls.members):
        assert Ht(xhat) == H(x)


# ---------------------------------------------------------------------------
# departization


def test_sigma_alpha_is_sorting_permutation():
    for sigma in indexing.injections(3, 3):
        inv = indexing.invert(sigma)
        for alpha in indexing.injections(3, 2):
            tau = sigma_sorted = reductions.sigma_alpha(sigma, alpha)
            vals = [inv[alpha[tau[i] - 1] - 1] for i in range(2)]
            assert vals == sorted(vals)


def test_departize_p_values():
    assert reductions.departize_p(1) == 1
    assert reductions.departize_p(2) == Fraction(1, 16)


def test_departize_r_frozen():
    assert reductions.departize_r(lambda m: 1, 2, 2) == 32
    assert reductions.departize_r(lambda m: 5, 2, 2) == 160


def test_decode_mixed_roundtrip():
    radices = [3, 2, 4]
    seen = set()
    for idx in range(24):
        digits = reductions.decode_mixed(idx, radices)
        assert all(0 <= d < r for d, r in zip(digits, radices))
        seen.add(tuple(digits))
    assert len(seen) == 24
    with pytest.raises(ValueError):
        reductions.decode_mixed(24, radices)


def test_decode_departize_randomness_covers_everything():
    r_a = lambda m: 2  # noqa: E731
    total = reductions.departize_r(r_a, 2, 2)
    seen = set()
    for idx in range(total):
        b, sigma, U, Uprime = reductions.decode_departize_randomness(idx, r_a, 2, 2)
        assert 0 <= b < 2
        assert sorted(sigma) == [1, 2]
        assert set(U) == set(Uprime) == set(indexing.subsets(2, 2))
        seen.add((b, sigma, tuple(sorted(U.items())), tuple(sorted(Uprime.items()))))
    assert len(seen) == total


def test_decode_departize_randomness_unranks_sigma_at_m16():
    # the last index has every digit at its maximum; sigma is the last
    # permutation of [16] in lexicographic order, i.e. the reversed one
    r_a = lambda m: 3  # noqa: E731
    last = reductions.departize_r(r_a, 16, 2) - 1
    b, sigma, U, Uprime = reductions.decode_departize_randomness(last, r_a, 16, 2)
    assert b == 2
    assert sigma == tuple(range(16, 0, -1))
    assert U[(1,)] == Uprime[(1,)] == (2,)


def test_confidence_discounts():
    assert reductions.delta_tilde(Fraction(1, 2), Fraction(2, 5), 1) == Fraction(1, 10)
    assert reductions.delta_tilde(1, 1, Fraction(1, 100)) == Fraction(1, 2)
    assert reductions.delta_hat(Fraction(1, 2), Fraction(1, 2), 1, 2) == Fraction(
        1, 1024
    )


def test_departize_sample_size_plumbing():
    calls = []

    def m_a(eps, delta):
        calls.append((eps, delta))
        return 7

    assert reductions.neutral_sample_size(m_a, Fraction(1, 2), Fraction(2, 5), 1) == 7
    assert calls[-1] == (Fraction(1, 4), Fraction(1, 10))
    assert (
        reductions.departize_sample_size(m_a, Fraction(1, 2), Fraction(1, 2), 1, 2)
        == 7
    )
    assert calls[-1] == (Fraction(1, 64), Fraction(1, 1024))


def _departize_instances():
    """Two (mu, mu') pairs, the second with a zero-weight point and a larger
    space for mu, times three F: criterion 07's parity, and two that tell
    the vertex order apart (one of them with three labels)."""
    t, mu = _base()
    mu2 = templates.ProbTemplate(
        t, ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1),))
    )
    t3 = templates.Template(2, (3, 1))
    nu = templates.ProbTemplate(
        t3, ((Fraction(1, 2), Fraction(0), Fraction(1, 2)), (Fraction(1),))
    )
    nu2 = templates.ProbTemplate(
        t, ((Fraction(1, 5), Fraction(4, 5)), (Fraction(1),))
    )
    out = []
    for a, b in ((mu, mu2), (nu, nu2)):
        tj = templates.product_template(a.template, b.template)
        n = b.template.size(1)
        for F in (
            Hypothesis(
                2, tj, (0, 1), lambda x: (x[(1,)] + x[(2,)]) % 2, name="par",
                declared_rank=1,
            ),
            Hypothesis(
                2, tj, (0, 1), lambda x, n=n: int(x[(1,)] // n > x[(2,)] % n),
                name="cross",
            ),
            Hypothesis(
                2, tj, (0, 1, 2), lambda x, n=n: min(2, x[(1,)] // n + x[(2,)] % n),
                name="three",
            ),
        ):
            out.append((a, b, partize_hypothesis(F)))
    return out


DEPARTIZE_INSTANCES = _departize_instances()
DEPARTIZE_IDS = [
    f"{pair}-{name}"
    for pair in ("criterion-07", "zero-weight")
    for name in ("par", "cross", "three")
]


@pytest.mark.parametrize("mu,mu2,Fp", DEPARTIZE_INSTANCES, ids=DEPARTIZE_IDS)
def test_departize_laws_agree_exactly(mu, mu2, Fp):
    lawA = reductions.departize_construction_law(
        templates.partize_prob(mu, 2), templates.partize_prob(mu2, 2), Fp, 2, 2
    )
    lawB = reductions.departize_discrete_law(mu, mu2, Fp, 2, 2)
    assert sum(lawA.values()) == 1
    assert lawA == lawB


def test_departize_laws_refuse_past_the_cap():
    # criterion 07's measures at m = 3: 64 * 64 partite samples times 384
    # randomness atoms; the discrete law passes the cap at m = 4.  Both are
    # refused before anything is enumerated.
    mu, mu2, Fp = DEPARTIZE_INSTANCES[0]
    mup, mu2p = templates.partize_prob(mu, 2), templates.partize_prob(mu2, 2)
    assert templates.law_atoms(mup, 3) == 64
    assert reductions.departize_r(lambda m: 1, 3, 2) == 384
    started = time.perf_counter()
    with pytest.raises(ValueError):
        reductions.departize_construction_law(mup, mu2p, Fp, 3, 2)
    with pytest.raises(ValueError):
        reductions.departize_discrete_law(mu, mu2, Fp, 4, 2)
    assert time.perf_counter() - started < 1


def test_departize_learner_decodes_and_partizes():
    # the inner learner sees departize_sample at the decoded (sigma, U, U')
    # and b's own digit; its hypothesis comes back partized
    cls = families.matching_family(2).cls
    tagged = reductions.tag_class(cls, 2).members
    seen = []

    def record(x, y, b):
        seen.append((x, y, b))
        return tagged[b]

    A = learners.Learner(2, record, lambda m: 2)
    D = reductions.departize_learner(A, 2, cls.template, cls.labels)
    assert D.r(2) == 2 * reductions.departize_r(lambda m: 1, 2, 2)
    mu = templates.partize_prob(templates.uniform_prob(cls.template), 2)
    x = sampler.sample_partite_config(mu, 2, sampler.stream("departize-learner", 0))
    y = star_partite(partize_hypothesis(cls.members[1]), x, 2)
    for b in range(D.r(2)):
        G = D(x, y, b)
        ba, sigma, U, Uprime = reductions.decode_departize_randomness(b, A.r, 2, 2)
        xhat, yhat = reductions.departize_sample(x, y, sigma, U, Uprime, 2)
        assert seen[-1] == (xhat, yhat, ba)
        assert G.template.partite
        assert G.table() == partize_hypothesis(cls.members[ba]).table()
    # the randomness range is read at the partite size 2
    with pytest.raises(ValueError):
        D(x, y, D.r(2))


def test_departize_survival_probability():
    # over all randomness atoms, a fixed injection's labels survive with
    # probability exactly p = departize_p(k)
    mu, mu2, Fp = DEPARTIZE_INSTANCES[0]
    lawA = reductions.departize_construction_law(
        templates.partize_prob(mu, 2), templates.partize_prob(mu2, 2), Fp, 2, 2
    )
    survived = Fraction(0)
    for (xhat, yhat), p in lawA.items():
        if dict(yhat)[(1, 2)] != reductions.BOTTOM:
            survived += p
    assert survived == reductions.departize_p(2)


# ---------------------------------------------------------------------------
# neutral symbol, dummies, codomain


def test_neutral_symbol_learner_replaces_bottom():
    witness = losses.flexibility_witness_01((0, 1), templates.Template(2, (2, 1)))
    received = {}

    def record(x, y, b):
        received["y"] = dict(y)
        received["b"] = b
        return None

    A = learners.Learner(2, record, lambda m: 1)
    N = reductions.neutral_symbol_learner(A, witness)
    assert N.r(2) == witness.r_n(2)
    x = {(1,): 0, (2,): 1, (1, 2): 0}
    y = {(1, 2): reductions.BOTTOM, (2, 1): 0}
    for b in range(N.r(2)):
        N(x, y, b)
        got = received["y"]
        assert received["b"] == 0
        # both orders over the affected image are resampled from the source
        assert got[(1, 2)] in (0, 1) and got[(2, 1)] in (0, 1)
    clean = {(1, 2): 1, (2, 1): 0}
    N(x, clean, 0)
    assert received["y"] == clean


def test_strip_dummy():
    seen = []
    A = learners.Learner(2, lambda x, y, b: seen.append(dict(x)), lambda m: 1)
    S = reductions.strip_dummy(A, {2: 9})
    xa = {(1,): 0, (2,): 1, (1, 2): 5}
    xb = {(1,): 0, (2,): 1, (1, 2): 7}
    S(xa, {}, 0)
    S(xb, {}, 0)
    assert seen[0] == seen[1] == {(1,): 0, (2,): 1, (1, 2): 9}


def test_extend_codomain():
    cls = families.matching_family(2).cls
    cls2, transfer = reductions.extend_codomain(cls, (2,))
    assert cls2.labels == (0, 1, 2)
    assert len(cls2) == len(cls)
    assert dims.vcn_k(cls2) == dims.vcn_k(cls)
    seen = []
    A = learners.Learner(2, lambda x, y, b: seen.append(dict(y)), lambda m: 1)
    A2 = transfer(A)
    A2({(1,): 0, (2,): 0, (1, 2): 0}, {(1, 2): 2, (2, 1): 1}, 0)
    assert seen[0] == {(1, 2): 0, (2, 1): 1}


def test_extend_codomain_refuses_a_repeated_or_known_label():
    cls = families.matching_family(2).cls
    for extra in [(1,), (2, 2), (2, 0)]:
        with pytest.raises(ValueError, match="repeats or is already a class label"):
            reductions.extend_codomain(cls, extra)


def test_extend_codomain_oracle_answers_with_an_extended_member():
    cls = families.matching_family(2).cls
    cls2, _ = reductions.extend_codomain(cls, (2,))
    ell = losses.zero_one_loss(cls2.labels, 2)
    mu = templates.uniform_prob(cls.template)
    oracle = learners.erm(cls2, ell)
    argmin = learners.erm(replace(cls2, erm=None), ell)
    for t in range(5):
        rng = sampler.stream("ext-erm", t)
        F = cls2.members[rng.randrange(len(cls2))]
        x = sampler.sample_config(mu, 4, rng)
        y = star(F, x, 4)
        H = oracle(x, y)
        assert any(H is G for G in cls2.members)
        assert H.labels == cls2.labels
        G = argmin(x, y)
        assert losses.empirical_loss(x, y, ell, H, 4) == losses.empirical_loss(
            x, y, ell, G, 4
        )
