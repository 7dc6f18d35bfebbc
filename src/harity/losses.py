"""Loss functions (plain and agnostic, both settings), exact totals (read from
one per-atom ``plan`` of a law), empirical losses, flexibility witnesses,
neutral symbols, and Bayes predictors.

Non-partite losses consume full label patterns: a pattern is a tuple over the
canonical enumeration of S_k (see ``hypotheses.perms``), i.e. an element of
Lambda^{S_k}.  Partite losses consume single labels.  A loss or witness does
not name its setting: patterns, noise keys and the averaged constant are read
from a template's rules (``orbit``, ``read``, ``index``, ``domain``), so no
loss computation here branches on the setting.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

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
    """Recompute sup norm, separation, and symmetry exhaustively over every
    read of labels over the template's domain orbit: a pattern in
    Lambda^{S_k}, or a label in Lambda when the orbit is one point (S_k
    symmetry is checked only over a longer orbit).
    Returns (sup_norm, separation, symmetric).
    """
    t = template
    points = templates.domain_points(t, ell.k)
    n = len(t.domain(ell.k)[1])
    pats = [t.read(lambda v: v, y) for y in product(ell.labels, repeat=n)]
    sym_perms = perms(ell.k) if n > 1 else ()
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
                    sy = permute_pattern(y, sigma, ell.k)
                    syp = permute_pattern(yp, sigma, ell.k)
                    if ell(sx, sy, syp) != v:
                        symmetric = False
    if sep is None:
        sep = Fraction(0)
    return sup, sep, symmetric


def permute_pattern(y, sigma, k):
    """sigma*(y) for a pattern y in Lambda^{S_k}: (sigma*(y))_tau = y_{sigma o tau}."""
    ps = perms(k)
    index = {p: i for i, p in enumerate(ps)}
    return tuple(y[index[indexing.compose(sigma, tau)]] for tau in ps)


def zero_one_loss(labels, k, setting=None):
    """1[y != y'] on full patterns (non-partite) or single labels (partite).
    ``setting`` is ignored: the loss reads either alike.  It stays only
    because perfbench's workloads pass it."""
    return LossFn(
        k,
        tuple(labels),
        lambda x, y, yp: 0 if y == yp else 1,
        name="01",
        sup_norm=Fraction(1),
        separation=Fraction(1),
        symmetric=True,
    )


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
    return AgnosticLossFn(
        ell.k,
        ell.labels,
        fn,
        name=ell.name + "^ag",
        sup_norm=ell.sup_norm,
    )


# ---------------------------------------------------------------------------
# total losses (exact enumeration, one plan per check)


def plan(mu, F, ell, mu2=None):
    """(row, weigh) over ``sampler.joint_law`` at the loss's domain size.
    ``row(H)`` is H's loss at each atom: l(x, H's labels, F's labels), both
    read over the atom's orbit, or, given mu2, the agnostic l(H, x, y), y F's
    labels at the joined point.  ``weigh(row)`` is its expectation, summed in
    integers over one denominator, so a float loss value raises TypeError.
    Orbits and F's labels are built once; a row reads H once per atom."""
    t = mu.template
    (m, orbit), pull, read = t.domain(ell.k), t.pull, t.read
    law = sampler.joint_law(mu, m, mu2)
    W = lcm(*(p.denominator for *_, p in law))
    weights = [p.numerator * (W // p.denominator) for *_, p in law]
    if mu2 is None:
        orbits = [(x, [pull(a, x) for a in orbit]) for x, _, _ in law]
        atoms = [(x, o, read(F, o)) for x, o in orbits]
        row = lambda H: [ell(x, read(H, o), y) for x, o, y in atoms]  # noqa: E731
    else:
        atoms = [(x, t.label(F, z)) for x, z, _ in law]
        row = lambda H: [ell(H, x, y) for x, y in atoms]  # noqa: E731
    return row, lambda r: Fraction(sum(map(mul, weights, r)), W)


def totals(mu, F, ell, mu2=None):
    """H -> E_{x ~ mu}[l(x, H's labels at x, F's labels at x)], or, given mu2,
    E over mu (x) mu' of the agnostic l(H, x, y): ``plan``'s weighted row."""
    row, weigh = plan(mu, F, ell, mu2)
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

    def noise(x, b, m):
        out = {}
        for key in reversed(list(t.index(m, k))):
            b, digit = divmod(b, L)
            out[key] = labels[digit]
        if b:
            raise ValueError("randomness index out of range")
        return out

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

    return AgnosticLossFn(
        ell_ag.k,
        labels,
        fn,
        name=ell_ag.name + "+⊥",
        sup_norm=ell_ag.sup_norm,
    )


# ---------------------------------------------------------------------------
# Bayes predictors


def bayes_predictor(mu, mu2, F, ell):
    """The hypothesis minimizing the conditional expected loss at every
    positive-mass configuration point (exact, exhaustive).

    Minimization runs per orbit over all label assignments, so the result is
    a genuine hypothesis.  A non-partite point's orbit is its S_k pullbacks
    and the loss reads their pattern; a partite point is its own orbit and
    the loss reads its one label.  An assignment scores the sum of the
    conditional losses at the orbit's distinct points, which carry equal mass
    under a product law, so asymmetric losses are minimized too; a symmetric
    loss scores every point alike.  Ties break toward the smallest label
    indices, read in the order the loss reads the orbit.
    """
    k = ell.k
    t1, t2 = mu.template, mu2.template
    (m, ps), pull, read, label = t1.domain(k), t1.pull, t1.read, t1.label
    sampler.check_law_size(templates.point_count(t1, m) * templates.law_atoms(mu2, m))
    pindex = {p: i for i, p in enumerate(ps)}
    # orbit point i pulled back along ps[j] is orbit point reading[i][j]
    reading = [tuple(pindex[indexing.compose(a, b)] for b in ps) for a in ps]
    xp_law, join = templates.config_law(mu2, m), templates.join_config
    values = {}
    for x0 in templates.config_points(t1, m):
        if canonical_key(x0) in values:
            continue
        orbit = [pull(sigma, x0) for sigma in ps]
        keys = [canonical_key(z) for z in orbit]
        orbit_keys = sorted(set(keys))
        points = [  # the orbit's distinct points, with F's conditional labels
            (z, reading[i], [(q, label(F, join(t1, t2, z, xp))) for xp, q in xp_law])
            for i, z in enumerate(orbit)
            if keys.index(keys[i]) == i
        ]
        best = None
        for assignment in product(range(len(ell.labels)), repeat=len(orbit_keys)):
            lookup = dict(zip(orbit_keys, assignment))
            idx = tuple(lookup[key] for key in keys)
            score = Fraction(0)
            for z, positions, yps in points:
                hy = read(lambda j: ell.labels[idx[j]], positions)
                score += sum(q * Fraction(ell(z, hy, yp)) for q, yp in yps)
            if best is None or (score, idx) < best[:2]:
                best = (score, idx, lookup)
        for key, i in best[2].items():
            values[key] = ell.labels[i]

    return Hypothesis(
        k, t1, ell.labels, lambda x: values[canonical_key(x)], name="bayes"
    )
