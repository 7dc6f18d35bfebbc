from itertools import permutations, product

import pytest

from harity import indexing, templates


def test_subsets_frozen():
    assert indexing.subsets(4, 2) == [
        (1,),
        (2,),
        (3,),
        (4,),
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 4),
        (3, 4),
    ]
    assert indexing.subsets(0, 1) == []
    assert indexing.subsets(2, 5) == [(1,), (2,), (1, 2)]


def test_subsets_validation():
    with pytest.raises(ValueError):
        indexing.subsets(-1, 1)
    with pytest.raises(ValueError):
        indexing.subsets(2, 0)


def test_canonical_order_stable():
    assert indexing.subsets(5, 3) == indexing.subsets(5, 3)
    assert indexing.part_indices(3, 2) == indexing.part_indices(3, 2)


def test_part_indices_frozen():
    assert indexing.part_indices(2, [2, 1]) == [
        ((1, 1),),
        ((1, 2),),
        ((2, 1),),
        ((1, 1), (2, 1)),
        ((1, 2), (2, 1)),
    ]


def test_part_indices_int_sizes():
    assert indexing.part_indices(2, 1) == [
        ((1, 1),),
        ((2, 1),),
        ((1, 1), (2, 1)),
    ]


def test_injections_and_compose():
    assert indexing.injections(3, 2) == [
        (1, 2),
        (1, 3),
        (2, 1),
        (2, 3),
        (3, 1),
        (3, 2),
    ]
    # compose applies the right factor first
    assert indexing.compose((3, 1, 2), (2, 1)) == (1, 3)


def test_nth_permutation_matches_lexicographic_order():
    for m in range(7):
        expected = list(permutations(range(1, m + 1)))
        assert [indexing.nth_permutation(i, m) for i in range(len(expected))] == expected
    for bad in (-1, 24):
        with pytest.raises(ValueError):
            indexing.nth_permutation(bad, 4)


def test_invert_roundtrip():
    for sigma in indexing.injections(4, 4):
        inv = indexing.invert(sigma)
        assert indexing.compose(sigma, inv) == (1, 2, 3, 4)
        assert indexing.compose(inv, sigma) == (1, 2, 3, 4)


def test_increasing_into():
    assert indexing.increasing_into((3, 1)) == (1, 3)
    assert indexing.increasing_into({2, 5, 4}) == (2, 4, 5)


def _points(t, m):
    return templates.config_points(t, m)


def test_pullback_contravariance_exhaustive():
    # (beta o alpha)* = alpha* o beta* for alpha: [a] -> [b], beta: [b] -> [c]
    t = templates.Template(2, (2, 1))
    for c in (2, 3, 4):
        pts = _points(t, c)
        for b in range(1, c + 1):
            for a in range(1, b + 1):
                for alpha in indexing.injections(b, a):
                    for beta in indexing.injections(c, b):
                        for x in pts:
                            lhs = indexing.pullback(
                                indexing.compose(beta, alpha), x
                            )
                            rhs = indexing.pullback(
                                alpha, indexing.pullback(beta, x)
                            )
                            assert lhs == rhs


def test_pullback_keeps_arities():
    t = templates.Template(2, (2, 2))
    x = _points(t, 3)[5]
    out = indexing.pullback((2, 3), x)
    assert set(out) == {(1,), (2,), (1, 2)}
    assert out[(1,)] == x[(2,)]
    assert out[(1, 2)] == x[(2, 3)]


def test_pullback_partite_manual():
    x = {
        ((1, 1),): 10,
        ((1, 2),): 11,
        ((2, 1),): 20,
        ((1, 1), (2, 1)): 30,
        ((1, 2), (2, 1)): 31,
    }
    out = indexing.pullback_partite((2, 1), x)
    assert out == {
        ((1, 1),): 11,
        ((2, 1),): 20,
        ((1, 1), (2, 1)): 31,
    }


def test_sigma_act_partite_covariant():
    # sigma_* then tau_* equals (tau o sigma)_*
    keys = indexing.part_indices(3, 1)
    x = {key: i for i, key in enumerate(keys)}
    for sigma in indexing.injections(3, 3):
        for tau in indexing.injections(3, 3):
            lhs = indexing.sigma_act_partite(
                tau, indexing.sigma_act_partite(sigma, x)
            )
            rhs = indexing.sigma_act_partite(indexing.compose(tau, sigma), x)
            assert lhs == rhs


def test_iota_phi_roundtrip():
    keys = indexing.part_indices(3, 1)
    x = {key: i for i, key in enumerate(keys)}
    assert indexing.phi_k(indexing.iota_kpart(x)) == x
    y = {a: i for i, a in enumerate(indexing.subsets(3, 3))}
    assert indexing.iota_kpart(indexing.phi_k(y)) == y


def test_encodings_frozen():
    assert indexing.encode_subset((1, 3)) == "{1,3}"
    assert indexing.encode_part_index(((1, 2), (3, 1))) == "1↦2,3↦1"
    assert (
        indexing.encode_config({(1,): 0, (1, 2): 1, (2,): 2})
        == "{1}=0;{2}=2;{1,2}=1"
    )
    assert (
        indexing.encode_config({((1, 1),): 4, ((1, 1), (2, 1)): 5})
        == "1↦1=4;1↦1,2↦1=5"
    )
