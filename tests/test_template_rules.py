"""The concentration constant, the 0/1 flexibility witness, the neutral
symbol's replacement and the loss metadata read the setting from a template's
rules.  Each is checked here against its old body, which named the setting
by a string, written out, for k = 1, 2, 3 in both settings."""

from fractions import Fraction
from itertools import product
from math import factorial, perm

import pytest

from harity import indexing, learners, losses, reductions, templates
from harity.hypotheses import perms

BOTTOM = losses.BOTTOM

# ---------------------------------------------------------------------------
# the old string bodies


def _old_concentration_constant(k, setting):
    return k * k if setting == "nonpartite" else k


def _old_witness_constant(L, k, setting):
    if setting == "partite" or k == 1:
        return Fraction(L - 1, L)
    return 1 - Fraction(1, L ** factorial(k))


def _old_r_n(L, k, setting, m):
    if setting == "partite":
        return L ** (m**k)
    return L ** perm(m, k)


def _old_noise_keys(k, setting, m):
    if setting == "partite":
        return list(product(*(range(1, m + 1) for _ in range(k))))
    return indexing.injections(m, k)


def _old_neutral_replacement(y, noise, setting):
    if setting == "partite":
        return {a: (noise[a] if v == BOTTOM else v) for a, v in y.items()}
    bad = {frozenset(a) for a, v in y.items() if v == BOTTOM}
    return {a: (noise[a] if frozenset(a) in bad else v) for a, v in y.items()}


def _old_loss_metadata(ell, template, setting):
    points = templates.domain_points(template, ell.k)
    if setting == "partite":
        pats = list(ell.labels)
        sym_perms = ()
    else:
        pats = list(product(ell.labels, repeat=len(perms(ell.k))))
        sym_perms = perms(ell.k)
    sup = Fraction(0)
    sep = None
    symmetric = True
    for x in points:
        for y in pats:
            for yp in pats:
                v = Fraction(ell(x, y, yp))
                sup = max(sup, v)
                if y != yp:
                    sep = v if sep is None else min(sep, v)
                for sigma in sym_perms:
                    sx = indexing.pullback(sigma, x)
                    sy = losses.permute_pattern(y, sigma, ell.k)
                    syp = losses.permute_pattern(yp, sigma, ell.k)
                    if ell(sx, sy, syp) != v:
                        symmetric = False
    if sep is None:
        sep = Fraction(0)
    return sup, sep, symmetric


# ---------------------------------------------------------------------------
# instances: k = 1, 2, 3, each plain and partized


def _template(k, setting):
    # two points at arity 1 for k <= 2; k = 3 keeps S_3's 64^2 pattern
    # pairs over one domain point
    plain = templates.Template(k, ((2,) if k < 3 else (1,)) + (1,) * (k - 1))
    return plain if setting == "nonpartite" else templates.partize_template(plain, k)


SETTINGS = [(k, s) for k in (1, 2, 3) for s in ("nonpartite", "partite")]
CASES = pytest.mark.parametrize(
    "k, setting", SETTINGS, ids=[f"k{k}-{s}" for k, s in SETTINGS]
)


@CASES
def test_concentration_constant_matches_the_old_body(k, setting):
    t = _template(k, setting)
    assert learners.concentration_constant(k, t) == _old_concentration_constant(
        k, setting
    )


@CASES
@pytest.mark.parametrize("labels", [(0, 1), ("a", "b", "c")], ids=["L2", "L3"])
def test_witness_matches_the_old_body(k, setting, labels):
    t, L = _template(k, setting), len(labels)
    w = losses.flexibility_witness_01(labels, t)
    assert w.constant == _old_witness_constant(L, k, setting)
    for m in range(4):
        keys = _old_noise_keys(k, setting, m)
        assert w.r_n(m) == _old_r_n(L, k, setting, m) == L ** len(keys)
        if w.r_n(m) > 10**4:
            continue
        for b in {0, w.r_n(m) // 3, w.r_n(m) - 1}:
            tensor = w.noise({}, b, m)
            assert list(tensor) == list(reversed(keys))  # built last key first
            digits = [labels.index(tensor[key]) for key in keys]
            assert sum(d * L**i for i, d in enumerate(reversed(digits))) == b


def _recorder(k, received):
    def record(x, y, b):
        received.append(y)

    return learners.Learner(k, record, lambda m: 1)


@CASES
def test_neutral_replacement_matches_the_old_body(k, setting):
    t = _template(k, setting)
    w = losses.flexibility_witness_01((0, 1), t)
    received = []
    N = reductions.neutral_symbol_learner(_recorder(k, received), w)
    m = k + 1
    x = templates.config_points(t, m)[0]
    keys = list(t.index(m, k))
    seen = set()
    for marks in ({0}, {len(keys) - 1}, {1, len(keys) // 2}):
        y = {a: (BOTTOM if i in marks else i % 2) for i, a in enumerate(keys)}
        for b in (0, w.r_n(m) - 1):
            N(x, y, b)
            expected = _old_neutral_replacement(y, w.noise(x, b, m), setting)
            assert received[-1] == expected and BOTTOM not in expected.values()
            replaced = frozenset(a for a in keys if y[a] != received[-1][a])
            seen.add(replaced)
    assert len(seen) > 1


def _losses(k, setting, labels):
    """The 0/1 loss and a loss reading the first entry of a pattern (the
    label itself in the partite setting) with a Fraction weight on the rest."""
    if setting == "partite":
        first = lambda y: y  # noqa: E731
    else:
        first = lambda y: y[0]  # noqa: E731

    def lopsided(x, y, yp):
        return Fraction(int(first(y) != first(yp)), 2) + Fraction(int(y != yp), 3)

    return [
        losses.zero_one_loss(labels, k),
        losses.LossFn(k, labels, lopsided, name="lopsided"),
    ]


@CASES
def test_loss_metadata_matches_the_old_body(k, setting):
    t = _template(k, setting)
    found = set()
    for ell in _losses(k, setting, (0, 1)):
        got = losses.loss_metadata(ell, t)
        assert got == _old_loss_metadata(ell, t, setting)
        found.add(got[2])
    # a plain lopsided loss reads one orbit entry, so it is asymmetric for k > 1
    assert found == ({True, False} if setting == "nonpartite" and k > 1 else {True})


def test_zero_one_loss_ignores_the_setting_keyword():
    ell = losses.zero_one_loss((0, 1), 2)
    for setting in ("partite", "nonpartite", "partit"):
        assert losses.zero_one_loss((0, 1), 2, setting=setting) == ell

