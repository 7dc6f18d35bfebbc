"""Loss functions (plain and agnostic, both settings), exact totals (one
``plan`` over mu's ``law_plan``: ``sampler.exact_domain``'s integer masses),
empirical losses, flexibility witnesses, neutral symbols, and Bayes predictors.

Non-partite losses consume full label patterns: a pattern is a tuple over the
canonical enumeration of S_k (see ``hypotheses.perms``), i.e. an element of
Lambda^{S_k}.  Partite losses consume single labels.  A loss or witness does
not name its setting: patterns, noise keys and the averaged constant are read
from a template's rules (``orbit``, ``read``, ``index``, ``domain``), so no
loss computation here branches on the setting.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from operator import mul

import numpy as np

from . import indexing, sampler, templates
from .hypotheses import Hypothesis, canonical_key, perms

BOTTOM = "⊥"


@dataclass(frozen=True)
class LossFn:
    """A loss l(x, y, y') whose values are ints or Fractions (empirical and
    total losses sum them exactly, and a float value raises TypeError there).
    ``symmetric`` is documentation only; ``loss_metadata`` recomputes it."""

    k: int
    labels: tuple
    fn: object = field(compare=False)
    name: str = ""
    sup_norm: Fraction = None
    separation: Fraction = None
    symmetric: bool = None

    def __call__(self, x, y, yp):
        return self.fn(x, y, yp)


def loss_metadata(ell, template):
    """Recompute (sup_norm, separation, symmetric) exhaustively over the
    domain points and every pair of labellings of the domain orbit, read as
    the loss reads them: a pattern in Lambda^{S_k}, or a partite point's one
    label.  Symmetry compares l(x, y, y') with l at each image (sigma*(x),
    sigma*(y), sigma*(y')) over the orbit; a one-point orbit has none."""
    t = template
    orbit = t.domain(ell.k)[1]
    # each labelling Y of the orbit read at every image: sigma*(y) is Y read
    # over orbit(sigma), the identity's read (y itself) first
    labellings = (dict(zip(orbit, ys)) for ys in product(ell.labels, repeat=len(orbit)))
    reads = [[t.read(Y.get, t.orbit(s)) for s in orbit] for Y in labellings]
    sup, sep, symmetric = Fraction(0), None, True
    for point in templates.domain_points(t, ell.k):
        x, *images = [t.pull(s, point) for s in orbit]  # identity first
        for y, *ys in reads:
            for yp, *yps in reads:
                v = Fraction(ell(x, y, yp))
                sup = max(sup, v)
                if y != yp:
                    sep = v if sep is None else min(sep, v)
                symmetric = symmetric and all(
                    ell(*image) == v for image in zip(images, ys, yps)
                )
    return sup, sep or Fraction(0), symmetric


def permute_pattern(y, sigma, k):
    """sigma*(y) for a pattern y in Lambda^{S_k}: (sigma*(y))_tau = y_{sigma o tau}."""
    ps = perms(k)
    index = {p: i for i, p in enumerate(ps)}
    return tuple(y[index[indexing.compose(sigma, tau)]] for tau in ps)


def zero_one_loss(labels, k, setting=None):
    """1[y != y'] on full patterns (non-partite) or single labels (partite).
    ``setting`` is ignored: the loss reads either alike.  It stays only
    because perfbench's workloads pass it."""
    one = Fraction(1)
    fn = lambda x, y, yp: 0 if y == yp else 1  # noqa: E731
    return LossFn(k, tuple(labels), fn, "01", sup_norm=one, separation=one, symmetric=True)


@dataclass(frozen=True)
class AgnosticLossFn:
    k: int
    labels: tuple
    fn: object = field(compare=False)  # (H, x, y) -> value
    name: str = ""
    sup_norm: Fraction = None

    def __call__(self, H, x, y):
        return self.fn(H, x, y)


def wrap_agnostic(ell):
    """The natural agnostic version l(H,x,y) := l(x, H's labels at x, y)."""
    fn = lambda H, x, y: ell(x, H.template.label(H, x), y)  # noqa: E731
    return AgnosticLossFn(ell.k, ell.labels, fn, name=ell.name + "^ag", sup_norm=ell.sup_norm)


# ---------------------------------------------------------------------------
# total losses (exact enumeration, one plan per check)


def numerators(values):
    """(D, numerators) of int or Fraction values over their lcm D; a float raises."""
    exact = [v if type(v) in (int, Fraction) else Fraction(v, 1) for v in values]
    D = lcm(*{v.denominator for v in exact})
    return D, [v.numerator * (D // v.denominator) for v in exact]


@lru_cache(maxsize=8)
def law_plan(mu, k, mu2):
    """The part of a ``plan`` that reads mu (and mu', or None) alone, read off
    ``sampler.exact_domain``: the template, each atom's joined point,
    ``weigh`` (a row's expectation over one denominator; a float loss value
    raises TypeError), whether mu2 was given, (W, the atoms' integer weights
    over W, int64 below 2^63), (each atom's x as a position in the distinct
    x, those x: Z itself without mu'), and (the atoms' and the x's orbit
    pullbacks, each as a position in its own list).  Measures hash by template
    and compare by weights, so equal measures share a cached law (of eight)."""
    X, Z, ids, masses, W = sampler.exact_domain(mu, mu2, k)
    runs, weights = len(Z) // len(X), masses.tolist()
    weigh = lambda r: Fraction(sum(map(mul, weights, r)), W)  # noqa: E731
    at, xids = np.arange(len(Z)) // runs, ids[::runs] // runs
    return mu.template, Z, weigh, mu2 is not None, (W, masses), (at, X), (ids, xids)


def _cells(law, F):
    """F read once per atom's joined point of a ``law_plan``: (the distinct
    cells (x's position, F's read over the atom's orbit), each atom's cell)."""
    t, Z, *_, (at, _), (ids, _) = law
    labels, seen, slots = list(map(F, Z)), {}, range(ids.shape[1])
    ys = zip(*(map(labels.__getitem__, c) for c in ids.T.tolist()))  # F's labels per orbit
    cell = [seen.setdefault(c, len(seen)) for c in zip(at.tolist(), ys)]
    return [(x, t.read(y.__getitem__, slots)) for x, y in seen], cell


def plan(law, F, ell):
    """(row, weigh) over a ``law_plan``: ``row(H)`` is H's loss at each atom,
    l(x, H's labels, F's labels) over the atom's orbit, or, given mu', the
    agnostic l(H, x, y), y F's labels at the joined point.  F is read once per
    joined point, H once per distinct point, and the pure l once per
    ``_cells`` cell; orbit reads and values are gathered by position."""
    t, _, weigh, joined, _, (_, X), (_, xids) = law
    (cells, cell), orbits = _cells(law, F), xids.tolist()

    def row(H):
        if joined:  # H's values by key: H read once at each distinct point l reads
            by, key = {}, canonical_key
            G = replace(H, fn=lambda z: by[k] if (k := key(z)) in by else by.setdefault(k, H(z)))
            values = [ell(G, X[x], y) for x, y in cells]
        else:
            hs = list(map(H, X))
            values = [ell(X[x], t.read(hs.__getitem__, orbits[x]), y) for x, y in cells]
        return list(map(values.__getitem__, cell))

    return row, weigh


def totals(mu, F, ell, mu2=None):
    """H -> E_{x ~ mu}[l(x, H's labels at x, F's labels at x)], or, given mu2,
    E over mu (x) mu' of the agnostic l(H, x, y): ``plan``'s weighted row."""
    row, weigh = plan(law_plan(mu, ell.k, mu2), F, ell)
    return lambda H: weigh(row(H))


def total_loss(mu, F, ell, H):
    return totals(mu, F, ell)(H)


def total_loss_ag(mu, mu2, F, ell_ag, H):
    return totals(mu, F, ell_ag, mu2)(H)


def total_loss_partite(mu, F, ell, H):
    return totals(mu, F, ell)(H)


# ---------------------------------------------------------------------------
# empirical losses


def empirical_loss(x, y, ell, H, m):
    """Mean over the units u of H's template (the k-subsets of [m] read through
    their increasing injections, or the tuples in [m]^k) of the loss at u*(x),
    with H's and y's labels read over u's orbit.  A symmetric loss gives the
    same mean under any other choice of injection onto each subset."""
    t, k = H.template, ell.k
    units = list(t.units(m, k))
    if not units:
        raise ValueError(f"no empirical loss: m = {m} has no unit of arity k = {k}")
    pull, orbit, read, at = t.pull, t.orbit, t.read, y.__getitem__
    total = 0
    for u in units:
        o = orbit(u)  # u first: the identity leads the orbit
        xs = [pull(a, x) for a in o]  # u o sigma pulls x back to sigma*(u*(x))
        total += ell(xs[0], read(H, xs), read(at, o))
    return Fraction(total, len(units))


def empirical_loss_nonpartite(x, y, ell, H, m):
    """``empirical_loss``, kept as a distinct name for perfbench's tracer."""
    return empirical_loss(x, y, ell, H, m)


def empirical_loss_partite(x, y, ell, H, m):
    """``empirical_loss``, kept as a distinct name for perfbench's tracer."""
    return empirical_loss(x, y, ell, H, m)


# ---------------------------------------------------------------------------
# flexibility and neutral symbols


@dataclass(frozen=True)
class FlexibilityWitness:
    """(Sigma, nu, G, N) data for a flexible loss, reduced to what finite
    instances need: the constant averaged loss and the finite noise source N.

    ``noise(x, b, m)`` returns a full label tensor over ``template.index(m,
    k)`` (injections, or k-tuples in the partite setting); b ranges over
    [R_N(m)].
    """

    template: object
    labels: tuple
    constant: Fraction
    r_n: object = field(compare=False)  # m -> count
    noise: object = field(compare=False)  # (x, b, m) -> tensor

    def bottom_cost(self, x):
        return self.constant


def flexibility_witness_01(labels, template):
    """Witness for the 0/1-loss at the template's arity k.

    The averaged loss of a uniformly random read over the domain orbit is
    constant, 1 - L^{-|orbit|}: a uniformly random element of Lambda^{S_k}
    equals any fixed pattern with probability L^{-k!}, and a partite label
    (a one-point orbit) any fixed label with probability 1/L.  N decodes its
    index into a uniform label tensor over ``template.index(m, k)`` in mixed
    radix, most-significant entry first, so R_N(m) = L^{#index}.
    """
    t, k, L = template, template.k, len(labels)
    constant = 1 - Fraction(1, L ** len(t.domain(k)[1]))

    def r_n(m):
        return L ** len(list(t.index(m, k)))

    def noise(x, b, m):  # built last key first
        keys = list(t.index(m, k))
        digits = indexing.decode_mixed(b, [L] * len(keys))
        return {key: labels[d] for key, d in zip(keys[::-1], digits[::-1])}

    return FlexibilityWitness(t, tuple(labels), constant, r_n, noise)


def extend_with_neutral(ell_ag, witness):
    """Extend an agnostic loss to Lambda + {BOTTOM} so BOTTOM is neutral:
    whenever BOTTOM touches the pattern, the loss is the witness's averaged
    value, independent of H."""
    labels = ell_ag.labels + (BOTTOM,)
    # a partite label is touched when it is BOTTOM, a pattern when one entry is
    if witness.template.partite:
        touches = lambda y: y == BOTTOM  # noqa: E731
    else:
        touches = lambda y: BOTTOM in y  # noqa: E731

    def fn(H, x, y):
        if touches(y):
            return witness.bottom_cost(x)
        return ell_ag(H, x, y)

    return AgnosticLossFn(ell_ag.k, labels, fn, name=ell_ag.name + "+⊥", sup_norm=ell_ag.sup_norm)


# ---------------------------------------------------------------------------
# Bayes predictors


def bayes_predictor(mu, mu2, F, ell):
    """The hypothesis minimizing the mu'-conditional expected loss at every
    configuration point of mu's template (exact, exhaustive).  That value is
    an expectation over mu' alone, so mu supplies only the template and a
    mu-null point gets its conditional argmin too.  The points and integer
    masses are the ``law_plan`` of the uniform law and mu', so its cap counts
    pairs of a point and a mu' atom.

    Labels are chosen per S_k orbit (a partite point is its own orbit) over
    all assignments to its distinct points, so the result is a genuine
    hypothesis.  An assignment scores the sum of the conditional losses at
    those points (equal mass, so asymmetric losses are minimized too), over
    the mass of each distinct label of F at a point (``_cells``).  Ties break
    toward the smallest label indices, over the distinct points in the order
    the orbit first shows them.
    """
    t, read = mu.template, mu.template.read
    law = law_plan(templates.uniform_prob(t), ell.k, mu2)
    (_, ints), (_, X), (_, xids) = law[4:]
    cells, cell = _cells(law, F)
    mass, conditional = np.zeros(len(cells), ints.dtype), [{} for _ in X]
    np.add.at(mass, cell, ints)  # a sum is at most W, so its dtype holds it
    for (x, y), w in zip(cells, mass.tolist()):
        conditional[x][y] = w
    keys, orbits, values = list(map(canonical_key, X)), xids.tolist(), {}
    for i, key in enumerate(keys):
        if key in values:
            continue
        # the orbit's distinct points, numbered as the orbit first shows them
        slot = {p: j for j, p in enumerate(dict.fromkeys(orbits[i]))}
        points = [(X[p], [slot[q] for q in orbits[p]], conditional[p]) for p in slot]

        def score(assignment):
            hy = lambda j: ell.labels[assignment[j]]  # noqa: E731
            return sum(w * ell(z, read(hy, r), y) for z, r, ys in points for y, w in ys.items())

        # product runs in lexicographic order and min keeps the first least
        best = min(product(range(len(ell.labels)), repeat=len(slot)), key=score)
        values.update((keys[p], ell.labels[j]) for p, j in zip(slot, best))

    return Hypothesis(ell.k, t, ell.labels, lambda x: values[canonical_key(x)], name="bayes")
