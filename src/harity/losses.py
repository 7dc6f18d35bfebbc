"""Loss functions (plain and agnostic, both settings), exact totals (each built
once as a plan by ``totals``), empirical losses, flexibility witnesses, neutral
symbols, and Bayes predictors.

Non-partite losses consume full label patterns: a pattern is a tuple over the
canonical enumeration of S_k (see ``hypotheses.perms``), i.e. an element of
Lambda^{S_k}.  Partite losses consume single labels.  Both are read through
the template's rules, so no loss computation here branches on the setting.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import factorial, lcm, perm, prod

from . import indexing, sampler, templates
from .hypotheses import Hypothesis, canonical_key, perms

BOTTOM = "⊥"


@dataclass(frozen=True)
class LossFn:
    """A loss l(x, y, y') whose values are ints or Fractions (empirical and
    total losses sum them exactly, and a float value raises TypeError there)."""

    k: int
    setting: str  # "nonpartite" | "partite"
    labels: tuple
    fn: object = field(compare=False)
    name: str = ""
    sup_norm: Fraction = None
    separation: Fraction = None
    symmetric: bool = None

    def __call__(self, x, y, yp):
        return self.fn(x, y, yp)


def loss_metadata(ell, template, patterns=None):
    """Recompute sup norm, separation, and symmetry exhaustively.

    ``patterns`` defaults to all of Lambda^{S_k} (non-partite) or Lambda
    (partite).  Returns (sup_norm, separation, symmetric).
    """
    points = templates.domain_points(template, ell.k)
    if ell.setting == "partite":
        pats = list(ell.labels) if patterns is None else patterns
        sym_perms = ()
    else:
        pats = (
            list(product(ell.labels, repeat=len(perms(ell.k))))
            if patterns is None
            else patterns
        )
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


def zero_one_loss(labels, k, setting="nonpartite"):
    """1[y != y'] on full patterns (non-partite) or single labels (partite)."""
    return LossFn(
        k,
        setting,
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
    setting: str
    labels: tuple
    fn: object = field(compare=False)  # (H, x, y) -> value
    name: str = ""
    sup_norm: Fraction = None
    base: LossFn = None  # locality decomposition: l(H,x,y) = base(x,H*(x),y)+reg(H)
    regularizer: object = field(default=None, compare=False)

    def __call__(self, H, x, y):
        return self.fn(H, x, y)


def wrap_agnostic(ell):
    """The natural agnostic version l(H,x,y) := l(x, H's labels at x, y)."""
    fn = lambda H, x, y: ell(x, H.template.label(H, x), y)  # noqa: E731
    return AgnosticLossFn(
        ell.k,
        ell.setting,
        ell.labels,
        fn,
        name=ell.name + "^ag",
        sup_norm=ell.sup_norm,
        base=ell,
        regularizer=lambda H: Fraction(0),
    )


# ---------------------------------------------------------------------------
# total losses (exact enumeration, one plan per check)


def totals(mu, F, ell, mu2=None):
    """H -> E_{x ~ mu}[l(x, H's labels at x, F's labels at x)], or, given mu2,
    E over mu (x) mu' of the agnostic l(H, x, y), y F's labels at the joined
    point.  The laws (under the exact-law cap), each atom's S_k orbit and F's
    labels are built once; a call reads H once per atom and sums integer
    numerators over one common denominator, so a float loss value raises.
    ``total_loss``, ``total_loss_partite`` and ``total_loss_ag`` call it once."""
    t, t2 = mu.template, mu2 and mu2.template
    (m, orbit), pull, read, label = t.domain(ell.k), t.pull, t.read, t.label
    sampler.check_law_size(prod(templates.law_atoms(nu, m) for nu in (mu, mu2) if nu))
    xp_law, plan = [(None, 1)] if mu2 is None else templates.config_law(mu2, m), []
    for x, p in templates.config_law(mu, m):
        o = [pull(a, x) for a in orbit]
        for xp, q in xp_law:
            z = x if xp is None else templates.join_config(t, t2, x, xp)
            plan.append((p * q, x, o, label(F, z)))
    D = lcm(*(w.denominator for w, *_ in plan))
    plan = [(w.numerator * (D // w.denominator), x, o, y) for w, x, o, y in plan]
    if mu2 is not None:
        return lambda H: Fraction(sum(n * ell(H, x, y) for n, x, _, y in plan), D)
    return lambda H: Fraction(sum(n * ell(x, read(H, o), y) for n, x, o, y in plan), D)


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

    ``noise(x, b, m)`` returns a full label tensor (indexed by injections in
    the non-partite setting, by k-tuples in the partite one); b ranges over
    [R_N(m)].
    """

    k: int
    setting: str
    labels: tuple
    constant: Fraction
    r_n: object = field(compare=False)  # m -> count
    noise: object = field(compare=False)  # (x, b, m) -> tensor

    def bottom_cost(self, x):
        return self.constant


def flexibility_witness_01(labels, k, setting="nonpartite"):
    """Witness for the 0/1-loss.

    The averaged loss of a uniformly random pattern is constant:
    1 - 1/L for k = 1 and the partite setting, 1 - L^{-k!} for k >= 2
    non-partite (a uniformly random element of Lambda^{S_k} equals any fixed
    pattern with probability L^{-k!}).  N decodes its index into a uniform
    label tensor in mixed radix, most-significant entry first.
    """
    L = len(labels)
    if setting == "partite" or k == 1:
        constant = Fraction(L - 1, L)
    else:
        constant = 1 - Fraction(1, L ** factorial(k))

    def r_n(m):
        if setting == "partite":
            return L ** (m ** k)
        return L ** perm(m, k)

    def noise(x, b, m):
        if setting == "partite":
            keys = list(product(*(range(1, m + 1) for _ in range(k))))
        else:
            keys = indexing.injections(m, k)
        out = {}
        for key in reversed(keys):
            b, digit = divmod(b, L)
            out[key] = labels[digit]
        if b:
            raise ValueError("randomness index out of range")
        return out

    return FlexibilityWitness(k, setting, tuple(labels), constant, r_n, noise)


@dataclass(frozen=True)
class NeutralSymbolInfo:
    bottom: object
    bottom_cost: object = field(compare=False)  # x -> value


def extend_with_neutral(ell_ag, witness):
    """Extend an agnostic loss to Lambda + {BOTTOM} so BOTTOM is neutral:
    whenever BOTTOM touches the pattern, the loss is the witness's averaged
    value, independent of H."""
    labels = ell_ag.labels + (BOTTOM,)
    # a partite label is touched when it is BOTTOM, a pattern when one entry is
    if ell_ag.setting == "partite":
        touches = lambda y: y == BOTTOM  # noqa: E731
    else:
        touches = lambda y: BOTTOM in y  # noqa: E731

    def fn(H, x, y):
        if touches(y):
            return witness.bottom_cost(x)
        return ell_ag(H, x, y)

    info = NeutralSymbolInfo(BOTTOM, witness.bottom_cost)
    return (
        AgnosticLossFn(
            ell_ag.k,
            ell_ag.setting,
            labels,
            fn,
            name=ell_ag.name + "+⊥",
            sup_norm=ell_ag.sup_norm,
        ),
        info,
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
