"""Finite stand-ins for Borel/probability templates (plain and partite),
label spaces, product templates, and exact configuration-space enumeration.

A template owns the coordinate rule of its setting: ``coords(m)`` lists the
coordinates of a size-m sample in canonical order, and ``space(key)`` names
the ground space coordinate ``key`` draws from (its arity for a plain
template, its part set for a partite one).  Products, points, exact laws and
the samplers are written once over these two methods.

Probabilities are exact rationals (``fractions.Fraction``) so tiny-instance
oracles compare distributions for equality; Monte Carlo code converts to
floats only at the sampling boundary.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
import json

from . import indexing


@dataclass(frozen=True)
class Template:
    """Ground spaces per arity: points of arity i are 0..sizes[i-1]-1.

    Arities above k are implicitly singletons and never stored.
    """

    k: int
    sizes: tuple

    def __post_init__(self):
        if self.k < 1 or len(self.sizes) != self.k:
            raise ValueError("need one size per arity 1..k")
        if any(n < 1 for n in self.sizes):
            raise ValueError("every ground space must be non-empty")

    def size(self, i):
        return self.sizes[i - 1] if i <= self.k else 1

    def coords(self, m):
        """The subsets of [m] of size at most k."""
        return indexing.subsets(m, self.k)

    def space(self, key):
        """A coordinate draws from the ground space of its arity."""
        return len(key)


@dataclass(frozen=True)
class ProbTemplate:
    template: Template
    weights: tuple  # per arity, tuple of Fraction

    def __post_init__(self):
        t = self.template
        if len(self.weights) != t.k:
            raise ValueError("need one weight vector per arity")
        for i, w in enumerate(self.weights, start=1):
            if len(w) != t.size(i):
                raise ValueError(f"arity {i}: {len(w)} weights for {t.size(i)} points")
            if any(p < 0 for p in w):
                raise ValueError("negative weight")
            if sum(w) != 1:
                raise ValueError(f"arity {i}: weights sum to {sum(w)}, not 1")

    def weight(self, i, point):
        return self.weights[i - 1][point] if i <= self.template.k else Fraction(1)


@dataclass(frozen=True)
class PartiteTemplate:
    k: int
    sizes: dict = field(hash=False)  # subset index -> cardinality

    def __post_init__(self):
        expect = set(indexing.subsets(self.k, self.k))
        if set(self.sizes) != expect:
            raise ValueError("need a size for every non-empty A within [k]")
        if any(n < 1 for n in self.sizes.values()):
            raise ValueError("every ground space must be non-empty")

    def size(self, a):
        return self.sizes[tuple(a)]

    def coords(self, m):
        """The partite indices with m vertices in every part."""
        return indexing.part_indices(self.k, m)

    def space(self, key):
        """A coordinate draws from the ground space of its part set."""
        return tuple(p for p, _ in key)


@dataclass(frozen=True)
class PartiteProbTemplate:
    template: PartiteTemplate
    weights: dict = field(hash=False)  # subset index -> tuple of Fraction

    def __post_init__(self):
        for a in indexing.subsets(self.template.k, self.template.k):
            w = self.weights[a]
            if len(w) != self.template.size(a) or any(p < 0 for p in w):
                raise ValueError(f"bad weight vector at {a}")
            if sum(w) != 1:
                raise ValueError(f"weights at {a} sum to {sum(w)}, not 1")

    def weight(self, a, point):
        return self.weights[tuple(a)][point]


def uniform_prob(template):
    return ProbTemplate(
        template,
        tuple(
            tuple(Fraction(1, template.size(i)) for _ in range(template.size(i)))
            for i in range(1, template.k + 1)
        ),
    )


def uniform_partite_prob(template):
    return PartiteProbTemplate(
        template,
        {
            a: tuple(Fraction(1, template.size(a)) for _ in range(template.size(a)))
            for a in indexing.subsets(template.k, template.k)
        },
    )


# ---------------------------------------------------------------------------
# products


def product_template(t1, t2):
    k = max(t1.k, t2.k)
    return Template(k, tuple(t1.size(i) * t2.size(i) for i in range(1, k + 1)))


def product_prob(p1, p2):
    t = product_template(p1.template, p2.template)
    weights = []
    for i in range(1, t.k + 1):
        w = []
        for a in range(p1.template.size(i)):
            for b in range(p2.template.size(i)):
                w.append(p1.weight(i, a) * p2.weight(i, b))
        weights.append(tuple(w))
    return ProbTemplate(t, tuple(weights))


def join_config(t1, t2, x1, x2):
    """Identify E_V(Omega (x) Omega') with E_V(Omega) x E_V(Omega'),
    coordinate by coordinate."""
    return {key: a * t2.size(t2.space(key)) + x2[key] for key, a in x1.items()}


def split_config(t1, t2, x):
    a, b = {}, {}
    for key, c in x.items():
        a[key], b[key] = divmod(c, t2.size(t2.space(key)))
    return a, b


def product_partite_template(t1, t2):
    k = t1.k
    if t2.k != k:
        raise ValueError("partite products need equal k")
    return PartiteTemplate(
        k, {a: t1.size(a) * t2.size(a) for a in indexing.subsets(k, k)}
    )



# ---------------------------------------------------------------------------
# partization


def partize_template(t, k):
    if k > t.k:
        raise ValueError("k exceeds the template's arity cap")
    return PartiteTemplate(k, {a: t.size(len(a)) for a in indexing.subsets(k, k)})


def partize_prob(mu, k):
    pt = partize_template(mu.template, k)
    return PartiteProbTemplate(
        pt, {a: mu.weights[len(a) - 1] for a in indexing.subsets(k, k)}
    )


# ---------------------------------------------------------------------------
# configuration-space enumeration (exact)


def points_over(template, keys):
    """Every assignment of a point of its ground space to each coordinate in
    ``keys``."""
    ranges = [range(template.size(template.space(key))) for key in keys]
    return [dict(zip(keys, vals)) for vals in product(*ranges)]


def config_points(template, m):
    """All points of the size-m configuration space (m vertices per part in
    the partite setting)."""
    return points_over(template, template.coords(m))


def domain_points(template, k):
    """The arity-k configuration points hypotheses over ``template`` are
    defined on: E_[k](Omega) for a plain template, one vertex per part for a
    partite one."""
    return config_points(template, 1 if isinstance(template, PartiteTemplate) else k)


def _product_law(mu, m):
    """Exact law of the size-m sample, one independent coordinate per
    ``coords(m)`` drawn from mu's weights on its ground space, as (config
    point, Fraction) pairs."""
    t = mu.template
    out = [({}, Fraction(1))]
    for key in t.coords(m):
        space = t.space(key)
        nxt = []
        for x, p in out:
            for point in range(t.size(space)):
                w = mu.weight(space, point)
                if w == 0:
                    continue
                y = dict(x)
                y[key] = point
                nxt.append((y, p * w))
        out = nxt
    return out


def law_atoms(mu, m):
    """The number of atoms of mu's size-m product law, counted without
    enumerating it: the product over ``coords(m)`` of each coordinate's
    positive-weight points."""
    t = mu.template
    out = 1
    for key in t.coords(m):
        space = t.space(key)
        out *= sum(1 for point in range(t.size(space)) if mu.weight(space, point) > 0)
    return out


def config_law(mu, m):
    """Exact law of mu^[m] as a list of (config point, Fraction) pairs."""
    return _product_law(mu, m)


def partite_config_law(mu, m):
    """Exact law of a partite sample with m vertices per part."""
    return _product_law(mu, m)


# ---------------------------------------------------------------------------
# serialization


def template_to_json(t, mu=None):
    if isinstance(t, PartiteTemplate):
        doc = {
            "k": t.k,
            "partite": True,
            "sizes": {indexing.encode_subset(a): n for a, n in sorted(t.sizes.items())},
        }
        if mu is not None:
            doc["weights"] = {
                indexing.encode_subset(a): [str(w) for w in mu.weights[a]]
                for a in sorted(mu.weights)
            }
    else:
        doc = {
            "k": t.k,
            "partite": False,
            "sizes": {str(i): t.size(i) for i in range(1, t.k + 1)},
        }
        if mu is not None:
            doc["weights"] = {
                str(i): [str(w) for w in mu.weights[i - 1]]
                for i in range(1, t.k + 1)
            }
    return json.dumps(doc, ensure_ascii=False, sort_keys=True)
