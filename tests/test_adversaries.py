from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest

from harity import adversaries, dims, families, learners, losses, sampler
from harity.hypotheses import Hypothesis, partize_class


# ---------------------------------------------------------------------------
# no free lunch


def _labels(sc, ell):
    """F's labels at every atom's orbit pullbacks, atom by atom, as the PAC
    sweep hands them to its reader."""
    law = losses.law_plan(sc.mu, ell.k, sc.mu2)  # the joined points, then pullbacks
    return [sc.F(law[1][i]) for i in law[6][0].ravel().tolist()]


def test_nfl_lower_bound_values():
    assert adversaries.nfl_lower_bound(Fraction(1, 10), 5, 20) == Fraction(11, 36)
    assert adversaries.nfl_lower_bound(0, 0, 1) == Fraction(1, 2)
    # vacuous when the sample covers the shattered set
    assert adversaries.nfl_lower_bound(Fraction(1, 10), 20, 20) < 0
    with pytest.raises(ValueError):
        adversaries.nfl_lower_bound(0.1, 5, 0)
    with pytest.raises(ValueError):
        adversaries.nfl_lower_bound(1, 5, 20, B=1)


def test_shattered_scenario_structure():
    sc = adversaries.shattered_scenario(4)
    tables = {
        tuple(sc.hypothesis(B).table().items())
        for r in range(5)
        for B in combinations(range(4), r)
    }
    assert len(tables) == 2**4
    H = sc.hypothesis({1, 3})
    for a in range(4):
        assert H({(1,): a}) == (1 if a in {1, 3} else 0)
    with pytest.raises(ValueError):
        adversaries.shattered_scenario(2, f0=lambda a: 0, f1=lambda a: a)


def test_shattered_erm_is_consistent():
    # d = 13 is above EXPLICIT_CAP, where the search samples B
    for d in (5, 13):
        sc = adversaries.shattered_scenario(d)
        ell = losses.zero_one_loss(sc.labels, 1)
        for t in range(10):
            rng = sampler.stream("nfl-erm", t)
            B = {a for a in range(d) if rng.random() < 0.5}
            F = sc.hypothesis(B)
            scen = sampler.Scenario(sc.mu, F)
            x, y = sampler.labeled_sample(scen, 3, rng)
            H = sc.erm(x, y)
            assert losses.empirical_loss_nonpartite(x, y, ell, H, 3) == 0


def test_nfl_hypotheses_are_built_once_per_b(monkeypatch):
    # the ERM returns F_B' for B' = B ∩ the sample's points, and each B' is
    # one object, so estimate_pac_success reads each B' once: at the law's
    # six atoms, the target F_B's read serving its return too
    reads = Counter()
    monkeypatch.setattr(Hypothesis, "__call__", lambda H, x: reads.update([id(H)]) or H.fn(x))
    sc = adversaries.shattered_scenario(6)
    scen = sampler.Scenario(sc.mu, sc.hypothesis({0, 3}))
    ell = losses.zero_one_loss(sc.labels, 1)
    A = adversaries.erm_learner(sc)
    freq = learners.estimate_pac_success(A, scen, ell, 5, Fraction(1, 10), 100, 4)
    # B' is one of the 4 subsets of {0, 3}; only B' = B has loss <= 1/10
    assert len(reads) == 4 and set(reads.values()) == {6} and freq == Fraction(8, 25)
    assert sc.hypothesis([3, 0]) is sc.hypothesis({0, 3})


def test_the_shattered_erm_reads_an_array_sample_by_its_rows():
    # with the view's dict build refused, the ERM picks from the reader's
    # rows the F_B it picks from labeled_sample's dicts; the atoms first show
    # the labels in another order than the loss's
    sc = adversaries.shattered_scenario(
        5, ("a", "b", "c"), lambda a: "abc"[a % 3], lambda a: "abc"[(a + 1) % 3]
    )
    ell = losses.zero_one_loss(sc.labels, 1)
    refuse = AssertionError("a key was read")
    for B, m in product(({1, 4}, {0, 2, 3}), (0, 1, 3, 6)):
        scen = sampler.Scenario(sc.mu, sc.hypothesis(B))
        draw = sampler._labeled_reader(scen, 1, ell.labels, _labels(scen, ell))
        streams = [sampler.stream(("erm", m), t) for t in range(8)]
        got = [(x, y) for _, x, y in draw(streams, m)]
        with mock.patch.object(sampler.ArraySample, "_items", side_effect=refuse):
            picked = [sc.erm(x, y) for x, y in got]
        for H, t in zip(picked, range(8)):
            x0, y0 = sampler.labeled_sample(scen, m, sampler.stream(("erm", m), t))
            point = {i: v for (i,), v in x0.items()}
            carried = {point[i] for (i,), v in y0.items() if v == sc.f1(point[i])}
            assert H is sc.erm(x0, y0) is sc.hypothesis(carried)


def test_the_shattered_erm_block_form_picks_as_on_the_dicts():
    # a reader block's rows at m in {0, 1, d, d + 3} against sc.erm on
    # labeled_sample's dicts from the same streams; F_B is built once per B
    sc = adversaries.shattered_scenario(
        5, ("a", "b", "c"), lambda a: "abc"[a % 3], lambda a: "abc"[(a + 1) % 3]
    )
    ell = losses.zero_one_loss(sc.labels, 1)
    scen = sampler.Scenario(sc.mu, sc.hypothesis({0, 3}))
    draw = sampler._labeled_reader(scen, 1, ell.labels, _labels(scen, ell))
    for m in (0, 1, sc.d, sc.d + 3):
        streams = [sampler.stream(("block", m), t) for t in range(12)]
        (xs, ys), = draw.blocks(streams, m)
        picked = sc.erm_block(m, xs, ys, draw.alphabet)
        for H, t in zip(picked, range(12), strict=True):
            x0, y0 = sampler.labeled_sample(scen, m, sampler.stream(("block", m), t))
            assert H is sc.erm(x0, y0)
        assert len(set(map(id, picked))) == len({H.name for H in picked})


def test_the_nfl_erm_over_reversed_labels_learns_as_by_key():
    # the sweep numbers y by its loss's labels, here the reverse of F_B's:
    # the block form renumbers them, as the per-trial route reads y by key
    for sc, B, labels, expected in (
        (adversaries.shattered_scenario(6), {0, 2, 3}, (1, 0), ["0", "1/40", "7/40", "17/40"]),
        (
            adversaries.shattered_scenario(
                5, ("a", "b", "c"), lambda a: "abc"[a % 3], lambda a: "abc"[(a + 1) % 3]
            ),
            {1, 4},
            ("c", "b", "a"),
            ["0", "1/8", "1/2", "13/20"],
        ),
    ):
        target, ell = sampler.Scenario(sc.mu, sc.hypothesis(B)), losses.zero_one_loss(labels, 1)
        for A in (adversaries.erm_learner(sc), learners.Learner(1, lambda x, y, b: sc.erm(x, y), lambda m: 1)):
            got = [
                learners.estimate_pac_success(A, target, ell, m, Fraction(1, 10), 40, "rev")
                for m in (1, 3, 6, 9)
            ]
            assert got == list(map(Fraction, expected))


def test_nfl_search_reads_its_trials_in_two_passes(monkeypatch):
    # every candidate B's trials in one reader pass, then the final
    # measurement of the worst B in another
    built, reader = [], sampler._labeled_reader

    def counted(sc, k, alphabet, *labels):
        built.append(len(labels))
        return reader(sc, k, alphabet, *labels)

    monkeypatch.setattr(sampler, "_labeled_reader", counted)
    sc = adversaries.shattered_scenario(6)
    A = adversaries.erm_learner(sc)
    adversaries.nfl_worst_F(A, sc, 3, Fraction(1, 10), 20, "passes", search_trials=2)
    assert built == [64, 1]


def test_nfl_search_keeps_no_hypothesis():
    sc = adversaries.shattered_scenario(8)
    A = adversaries.erm_learner(sc)
    adversaries.nfl_worst_F(A, sc, 3, Fraction(1, 10), 20, "built", search_trials=2)
    assert sc._built == {}


def test_nfl_worst_F_returns_hard_instance():
    sc = adversaries.shattered_scenario(4)
    A = adversaries.erm_learner(sc)
    B, freq = adversaries.nfl_worst_F(
        A, sc, 2, Fraction(1, 10), 50, "nfl", search_trials=10
    )
    assert isinstance(B, frozenset)
    assert 0 <= freq <= 1
    # m = 2 of d = 4 points: the worst B must leave frequent failures
    assert freq > 0


# ---------------------------------------------------------------------------
# slice non-learnability


def _slice_scenario():
    pcls = partize_class(families.bounded_degree_family(4, 3).cls)
    return adversaries.vcn_nonlearn_scenario(pcls, 3)


def test_nonlearn_scenario_realizes_every_subset():
    sc = _slice_scenario()
    assert len(sc.idxs) == 3
    for r in range(4):
        for B in combinations(range(3), r):
            F = sc.realizing_member(set(B))
            R = sc.restrict(F)
            for i in range(3):
                want = sc.g1[i] if i in B else sc.g0[i]
                assert R({(1,): i}) == want


def test_nonlearn_assemble_shapes():
    sc = _slice_scenario()
    xp = sc.assemble([0, 2], 2)
    from harity import indexing

    assert set(xp) == set(indexing.part_indices(sc.cls.k, 2))
    # coordinates not touching the missing part repeat the fixed slice point
    for f, v in xp.items():
        if sc.a_missing not in {p for p, _ in f}:
            assert v == sc.x0[tuple((p, 1) for p, _ in f)]


def test_nonlearn_wrap_roundtrip():
    sc = _slice_scenario()
    B = {0, 2}
    F = sc.realizing_member(B)
    A2 = learners.Learner(sc.cls.k, lambda x, y, b: F, lambda m: 1)
    A = sc.wrap(A2)
    x = {(1,): 0, (2,): 1, (3,): 2}
    y = {(i + 1,): (sc.g1[i] if i in B else sc.g0[i]) for i in range(3)}
    H = A(x, y, 0)
    for i in range(3):
        assert H({(1,): i}) == (sc.g1[i] if i in B else sc.g0[i])


@pytest.mark.parametrize(
    "build, vcn",
    [
        (lambda: families.matching_family(2), 1),
        (lambda: families.bounded_degree_family(3, 1), 1),
        (lambda: families.bounded_degree_family(4, 3), 3),
        (lambda: families.distance_family(4), 3),
    ],
    ids=["matching(2)", "bdeg(3,1)", "bdeg(4,3)", "dist(4)"],
)
def test_the_slice_scenario_exists_up_to_vcn(build, vcn):
    # the partization keeps VCN_2; a slice of that dimension gives a scenario
    # in which a member realizes every (g0, g1)-mixture, and none is larger
    pcls = partize_class(build().cls)
    assert dims.vcn_k(pcls) == vcn
    sc = adversaries.vcn_nonlearn_scenario(pcls, vcn)
    assert len(sc.idxs) == vcn and all(a != b for a, b in zip(sc.g0, sc.g1))
    for r in range(vcn + 1):
        for B in combinations(range(vcn), r):
            R = sc.restrict(sc.realizing_member(set(B)))
            assert [R({(1,): i}) for i in range(vcn)] == [
                sc.g1[i] if i in B else sc.g0[i] for i in range(vcn)
            ]
    with pytest.raises(ValueError, match="no slice of dimension >= d"):
        adversaries.vcn_nonlearn_scenario(pcls, vcn + 1)


def test_nonlearn_loss_prime_capped():
    sc = _slice_scenario()
    base = losses.zero_one_loss(sc.cls.labels, sc.cls.k)
    ell = sc.loss_prime(base)
    u = sc.cls.labels[0]
    up = sc.cls.labels[-1]
    assert ell({(1,): 0}, u, u) == 0
    assert 0 <= ell({(1,): 0}, u, up) <= 1


# ---------------------------------------------------------------------------
# clean subsets


def test_ramsey_rho_values():
    assert [adversaries.ramsey_rho(n) for n in (0, 1, 2, 3, 4, 5)] == [
        0,
        1,
        2,
        6,
        15,
        33,
    ]
    with pytest.raises(ValueError):
        adversaries.ramsey_rho(-1)


def test_verify_clean_subset_detects_violation():
    f1 = [0, 1, 2]
    f2 = {frozenset((0, 1)): 2, frozenset((0, 2)): 9, frozenset((1, 2)): 9}
    assert not adversaries.verify_clean_subset(f1, f2, (0, 1, 2))
    f2[frozenset((0, 1))] = 0  # endpoint value: allowed
    assert adversaries.verify_clean_subset(f1, f2, (0, 1, 2))


def test_find_clean_subset_handcrafted():
    # all pair values outside the f1 range: everything is clean
    f1 = [0, 1, 2, 3, 4, 5]
    f2 = {frozenset(p): 99 for p in combinations(range(6), 2)}
    U = adversaries.find_clean_subset(f1, f2, 3)
    assert len(U) == 3
    with pytest.raises(ValueError):
        adversaries.find_clean_subset(f1[:5], f2, 3)


def test_find_clean_subset_random_instances():
    for t in range(30):
        rng = sampler.stream("clean", t)
        n = rng.choice([3, 4])
        rho = adversaries.ramsey_rho(n)
        f1 = [rng.randrange(3 * rho) for _ in range(rho)]
        f2 = {
            frozenset(p): rng.randrange(3 * rho)
            for p in combinations(range(rho), 2)
        }
        U = adversaries.find_clean_subset(f1, f2, n)
        assert len(U) == n
        assert adversaries.verify_clean_subset(f1, f2, U)


# ---------------------------------------------------------------------------
# partition-family adversary


def _dist_adversary():
    spec = families.distance_family(7)
    return spec, adversaries.partition_adversary(spec, 0, 3)


def test_chi_maps():
    spec, adv = _dist_adversary()
    assert adv.chi1(0) is None
    assert adv.chi1(4) == 4
    assert adv.chi2(3, 3) is None
    assert adv.chi2(2, 5) == 3


def test_g_matches_and_ties():
    spec, adv = _dist_adversary()
    # |2 - 4| = 2 = chi1(2): the first endpoint's class matches
    assert adv.g(2, 4) == 1
    assert adv.g(4, 2) == 2
    assert adv.g(3, 3) is None
    # constant chi: both endpoints match, ties resolve to the first
    tie = adversaries.PartitionAdversary(lambda s: 0, 0, (1, 2))
    assert tie.g(1, 2) == 1


def test_b_f_and_x_b():
    spec, adv = _dist_adversary()
    F = lambda v: 1 if v == adv.v_prime[0] else 0  # noqa: E731
    assert adv.b_f(F) == frozenset({adv.chi1(adv.v_prime[0])})
    assert adv.x_b((3, 5, 2), (0, 1, 0)) == (0, 5, 0)


def test_y_bx_cases():
    spec, adv = _dist_adversary()
    x = (2, 4)
    y = {0: 1, 1: 0, (0, 1): 1}
    assert adv.y_bx(y, (0, 0), x)[(1, 2)] == 0
    assert adv.y_bx(y, (0, 1), x)[(1, 2)] == y[1]
    assert adv.y_bx(y, (1, 0), x)[(1, 2)] == y[0]
    # both kept, g(2, 4) = 1: the first endpoint's unary label
    assert adv.y_bx(y, (1, 1), x)[(1, 2)] == y[0]
    # both kept, no match: the default label
    x2 = (1, 5)  # |1 - 5| = 4, chi1(1) = 1, chi1(5) = 5
    assert adv.y_bx(y, (1, 1), x2)[(1, 2)] == 0


def test_adversary_graph_identity():
    # on a clean shattered set, the simulated pair labels equal the labels of
    # the partition graph with the matching class set, for every mask
    spec, adv = _dist_adversary()
    classes = [adv.chi1(v) for v in adv.v_prime]
    for r in range(len(classes) + 1):
        for Bc in combinations(classes, r):
            B = frozenset(Bc)
            for x in product(adv.v_prime, repeat=2):
                y = {a: (1 if adv.chi1(x[a]) in B else 0) for a in range(2)}
                y[(0, 1)] = 1 if adv.chi2(x[0], x[1]) in B else 0
                for b in product((0, 1), repeat=2):
                    assert adv.y_bx(y, b, x) == adv.g_b_star(B, adv.x_b(x, b))


def test_loss_prime_halves_and_mu_hat():
    spec, adv = _dist_adversary()
    base = losses.zero_one_loss((0, 1), 2)
    ell = adv.loss_prime(base)
    assert ell({(1,): 3}, 0, 0) == 0
    assert ell({(1,): 3}, 0, 1) == Fraction(1, 2)
    assert ell.sup_norm == Fraction(1, 2)
    mu = adv.mu_hat({v: Fraction(1, 3) for v in adv.v_prime})
    assert sum(mu.values()) == 1
    assert mu[0] == Fraction(1, 2)


def test_partition_adversary_validation():
    spec = families.distance_family(5)
    with pytest.raises(ValueError):
        adversaries.partition_adversary(spec, 0, 3)  # 4 vertices < rho(3) = 6
