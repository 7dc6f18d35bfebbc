"""Loss functions (plain and agnostic, both settings), total and empirical
losses, flexibility witnesses, neutral symbols, and Bayes predictors.

Non-partite losses consume full label patterns: a pattern is a tuple over the
canonical enumeration of S_k (see ``hypotheses.perms``), i.e. an element of
Lambda^{S_k}.  Partite losses consume single labels.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb

from . import indexing, templates
from .hypotheses import Hypothesis, canonical_key, pattern, perms, star

BOTTOM = "⊥"


@dataclass(frozen=True)
class LossFn:
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
        sym_perms = None
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
    if sym_perms is not None:
        for x in points:
            for y in pats:
                for yp in pats:
                    for sigma in sym_perms:
                        sx = indexing.pullback(sigma, x)
                        sy = permute_pattern(y, sigma, ell.k)
                        syp = permute_pattern(yp, sigma, ell.k)
                        if ell(sx, sy, syp) != ell(x, y, yp):
                            symmetric = False
                            break
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
    """The natural agnostic version l(H,x,y) := l(x, H's pattern at x, y)."""
    if ell.setting == "partite":
        fn = lambda H, x, y: ell(x, H(x), y)  # noqa: E731
    else:
        fn = lambda H, x, y: ell(x, pattern(H, x), y)  # noqa: E731
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
# total losses (exact enumeration)


def total_loss(mu, F, ell, H):
    """Non-partite, non-agnostic: E_{x ~ mu^k}[l(x, H-pattern, F-pattern)]."""
    total = Fraction(0)
    for x, p in templates.config_law(mu, ell.k):
        total += p * Fraction(ell(x, pattern(H, x), pattern(F, x)))
    return total


def total_loss_ag(mu, mu2, F, ell_ag, H):
    """Agnostic, either setting: E over mu (x) mu' of l(H, x, y), where y is
    F's labels at the joined point (its single label when partite)."""
    if mu.template.partite:
        law, m, labels = templates.partite_config_law, 1, F
    else:
        law, m, labels = templates.config_law, ell_ag.k, lambda z: pattern(F, z)
    xp_law = law(mu2, m)
    total = Fraction(0)
    for x, p in law(mu, m):
        for xp, q in xp_law:
            y = labels(templates.join_config(mu.template, mu2.template, x, xp))
            total += p * q * Fraction(ell_ag(H, x, y))
    return total


def total_loss_partite(mu, F, ell, H):
    total = Fraction(0)
    for x, p in templates.partite_config_law(mu, 1):
        total += p * Fraction(ell(x, H(x), F(x)))
    return total


# ---------------------------------------------------------------------------
# empirical losses


def empirical_loss_partite(x, y, ell, H, m):
    """Mean over alpha in [m]^k of l(alpha*(x), H(alpha*(x)), y_alpha)."""
    if m < 1:
        raise ValueError("empty sample")
    total = Fraction(0)
    for alpha in product(range(1, m + 1), repeat=ell.k):
        xa = indexing.pullback_partite(alpha, x)
        total += Fraction(ell(xa, H(xa), y[alpha]))
    return total / m**ell.k


def empirical_loss_nonpartite(x, y, ell, H, m):
    """Mean over k-subsets U of [m] of the loss at U's increasing injection,
    with the label tensor reshaped to full patterns.  A symmetric loss gives
    the same mean under any other choice of injection onto each U."""
    ps = perms(ell.k)
    total = Fraction(0)
    for u in combinations(range(1, m + 1), ell.k):
        xu = indexing.pullback(u, x)
        hy = pattern(H, xu)
        yy = tuple(y[indexing.compose(u, tau)] for tau in ps)
        total += Fraction(ell(xu, hy, yy))
    return total / comb(m, ell.k)


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
        import math

        constant = 1 - Fraction(1, L ** math.factorial(k))

    def r_n(m):
        if setting == "partite":
            return L ** (m ** k)
        count = 1
        for i in range(k):
            count *= m - i
        return L ** count

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

    if ell_ag.setting == "partite":

        def fn(H, x, y):
            if y == BOTTOM:
                return witness.bottom_cost(x)
            return ell_ag(H, x, y)

    else:

        def fn(H, x, y):
            if BOTTOM in y:
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
    the loss reads its one label.  Ties break toward the smallest label
    indices, read in the order the loss reads the orbit.
    """
    k = ell.k
    t1, t2 = mu.template, mu2.template
    if t1.partite:
        m, read, orbit = 1, (lambda G, x: G(x)), (lambda x: [x])
    else:
        ps = perms(k)
        m, read = k, pattern
        orbit = lambda x: [indexing.pullback(sigma, x) for sigma in ps]  # noqa: E731
    xp_law = templates.config_law(mu2, m)
    values = {}
    for x0 in templates.config_points(t1, m):
        if canonical_key(x0) in values:
            continue
        yps = [(q, read(F, templates.join_config(t1, t2, x0, xp))) for xp, q in xp_law]
        keys = [canonical_key(z) for z in orbit(x0)]
        orbit_keys = sorted(set(keys))
        best = None
        for assignment in product(range(len(ell.labels)), repeat=len(orbit_keys)):
            lookup = dict(zip(orbit_keys, assignment))
            idx = tuple(lookup[key] for key in keys)
            hy = tuple(ell.labels[i] for i in idx)
            if t1.partite:
                hy = hy[0]
            score = sum((q * Fraction(ell(x0, hy, yp)) for q, yp in yps), Fraction(0))
            if best is None or (score, idx) < best[:2]:
                best = (score, idx, lookup)
        for key, i in best[2].items():
            values[key] = ell.labels[i]

    return Hypothesis(
        k, t1, ell.labels, lambda x: values[canonical_key(x)], name="bayes"
    )
