"""Finite stand-ins for Borel/probability templates (plain and partite),
label spaces, product templates, and exact configuration-space enumeration.

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


def join_point(t1, t2, i, a, b):
    """Identify E_V(Omega (x) Omega') with E_V(Omega) x E_V(Omega')."""
    return a * t2.size(i) + b


def split_point(t1, t2, i, c):
    return divmod(c, t2.size(i))


def join_config(t1, t2, x1, x2):
    out = {}
    for key in x1:
        i = len(key)
        out[key] = join_point(t1, t2, i, x1[key], x2[key])
    return out


def split_config(t1, t2, x):
    a, b = {}, {}
    for key, c in x.items():
        a[key], b[key] = split_point(t1, t2, len(key), c)
    return a, b


def product_partite_template(t1, t2):
    k = t1.k
    if t2.k != k:
        raise ValueError("partite products need equal k")
    return PartiteTemplate(
        k, {a: t1.size(a) * t2.size(a) for a in indexing.subsets(k, k)}
    )


def join_partite_config(t1, t2, x1, x2):
    out = {}
    for key in x1:
        a = tuple(p for p, _ in key)
        out[key] = x1[key] * t2.size(a) + x2[key]
    return out


def split_partite_config(t1, t2, x):
    a, b = {}, {}
    for key, c in x.items():
        dom = tuple(p for p, _ in key)
        a[key], b[key] = divmod(c, t2.size(dom))
    return a, b


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


def config_points(template, m, arity_cap=None):
    """All points of E_[m](Omega) truncated at the arity cap (default k)."""
    cap = template.k if arity_cap is None else arity_cap
    keys = indexing.subsets(m, cap)
    ranges = [range(template.size(len(a))) for a in keys]
    return [dict(zip(keys, vals)) for vals in product(*ranges)]


def _product_law(mu, keys, domain_of):
    """Exact law of independent coordinates ``keys``, each drawn from mu's
    weights on ``domain_of(key)``, as (config point, Fraction) pairs."""
    out = [({}, Fraction(1))]
    for key in keys:
        dom = domain_of(key)
        nxt = []
        for x, p in out:
            for point in range(mu.template.size(dom)):
                w = mu.weight(dom, point)
                if w == 0:
                    continue
                y = dict(x)
                y[key] = point
                nxt.append((y, p * w))
        out = nxt
    return out


def config_law(mu, m, arity_cap=None):
    """Exact law of mu^[m] as a list of (config point, Fraction) pairs."""
    cap = mu.template.k if arity_cap is None else arity_cap
    return _product_law(mu, indexing.subsets(m, cap), len)


def partite_config_points(template, sizes):
    """All points of the partite configuration space with the given part sizes."""
    if isinstance(sizes, int):
        sizes = [sizes] * template.k
    keys = indexing.part_indices(template.k, list(sizes))
    ranges = [range(template.size(tuple(p for p, _ in f))) for f in keys]
    return [dict(zip(keys, vals)) for vals in product(*ranges)]


def domain_points(template, k):
    """The arity-k configuration points hypotheses over ``template`` are
    defined on: E_[k](Omega) for a plain template, one vertex per part for a
    partite one."""
    if isinstance(template, PartiteTemplate):
        return partite_config_points(template, 1)
    return config_points(template, k)


def partite_config_law(mu, sizes):
    if isinstance(sizes, int):
        sizes = [sizes] * mu.template.k
    keys = indexing.part_indices(mu.template.k, list(sizes))
    return _product_law(mu, keys, lambda f: tuple(p for p, _ in f))


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
