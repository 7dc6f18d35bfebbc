"""Finite stand-ins for Borel/probability templates (plain and partite),
label spaces, product templates, and exact configuration-space enumeration.

A template class declares its setting once (the class attribute ``partite``)
and owns every rule that differs by setting: the coordinates of a size-m
sample (``coords``) and the ground space each draws from (``space``); how
sizes and weights are stored (``per_space``, ``tabulate``: a tuple per arity,
or a dict per part set); the units an empirical loss averages over
(``units``: k-subsets of [m], or [m]^k) and the label tensor's index set
(``index``: ([m])_k, or [m]^k); the pullback (``pull``); the S_k orbit of
an index with G's read over it (``orbit``, ``read``, ``label``, ``domain``:
a pattern, or a partite point's one label, i.e. the same read with a trivial
orbit); and the coordinates a VCN_k slice fixes and varies (``slices``:
around the vertex k, or around each part).  Laws, samplers, F*, slices, and
empirical and total losses are written once over these methods; no other
module branches on the setting where the maths agrees.

Probabilities are exact rationals (``fractions.Fraction``) so tiny-instance
oracles compare distributions for equality; Monte Carlo code reads the float
rows a ``ProbTemplate`` converts once, when it is built.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import prod

from . import hypotheses, indexing


@dataclass(frozen=True)
class Template:
    """Ground spaces per arity: points of arity i are 0..sizes[i-1]-1.

    Arities above k are implicitly singletons and never stored.
    """

    partite = False  # the setting, read by every module that needs it

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

    def per_space(self, table):
        return dict(enumerate(table, start=1))

    def tabulate(self, fn):
        return tuple(fn(i) for i in range(1, self.k + 1))

    def units(self, m, k):
        """Each k-subset of [m], as its increasing injection."""
        return combinations(range(1, m + 1), k)

    def index(self, m, k):
        return indexing.injections(m, k)

    @property
    def pull(self):
        """Looked up when bound, so a wrapped ``indexing.pullback`` is seen."""
        return indexing.pullback

    def orbit(self, alpha):
        """alpha o sigma for each sigma in S_k, in the order of ``perms``."""
        return [indexing.compose(alpha, s) for s in hypotheses.perms(len(alpha))]

    def read(self, G, orbit):
        return tuple(map(G, orbit))

    def label(self, G, x):
        return hypotheses.pattern(G, x)

    def domain(self, k):
        """An arity-k domain point spans [k]; its identity's orbit is S_k."""
        return k, self.orbit(tuple(range(1, k + 1)))

    def slices(self, k):
        """VCN_k's slice rule: (missing, keys avoiding it, keys containing it)
        over the arity-k domain's coordinates.  S_k symmetry makes the one
        missing vertex k enough."""
        keys = self.coords(k)
        return [(k, [a for a in keys if k not in a], [a for a in keys if k in a])]


@dataclass(frozen=True)
class PartiteTemplate:
    partite = True

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

    def per_space(self, table):
        return dict(table)

    def tabulate(self, fn):
        return {a: fn(a) for a in indexing.subsets(self.k, self.k)}

    def units(self, m, k):
        """[m]^k, which is also the label tensor's index set."""
        return product(range(1, m + 1), repeat=k)

    index = units

    @property
    def pull(self):
        return indexing.pullback_partite

    def orbit(self, alpha):
        return (alpha,)

    def read(self, G, orbit):
        return G(orbit[0])

    def label(self, G, x):
        return G(x)

    def domain(self, k):
        return 1, self.orbit((1,) * k)

    def slices(self, k):
        """One entry per missing part a in [k], split by ``space(f)``."""
        keys = self.coords(1)
        return [
            (
                a,
                [f for f in keys if a not in self.space(f)],
                [f for f in keys if a in self.space(f)],
            )
            for a in range(1, k + 1)
        ]


@dataclass(frozen=True)
class ProbTemplate:
    """A weight vector per ground space, stored like the template's sizes."""

    template: object
    weights: object = field(hash=False)  # a tuple per arity, or a dict per part set
    _by_space: dict = field(init=False, repr=False, compare=False)
    floats: dict = field(init=False, repr=False, compare=False)  # space -> floats

    def __post_init__(self):
        t = self.template
        by_space = t.per_space(self.weights)
        if by_space.keys() != t.per_space(t.sizes).keys():
            raise ValueError("need one weight vector per ground space")
        for a, w in by_space.items():
            if len(w) != t.size(a):
                raise ValueError(f"space {a}: {len(w)} weights for {t.size(a)} points")
            if any(p < 0 for p in w):
                raise ValueError(f"space {a}: negative weight")
            if sum(w) != 1:
                raise ValueError(f"space {a}: weights sum to {sum(w)}, not 1")
        object.__setattr__(self, "_by_space", by_space)
        floats = {a: [float(p) for p in w] for a, w in by_space.items()}
        object.__setattr__(self, "floats", floats)

    def weight(self, space, point):
        """Arities above a plain template's k are singletons of weight 1."""
        w = self._by_space.get(space) or (Fraction(1),) * self.template.size(space)
        return w[point]


def uniform_prob(template):
    t = template
    return ProbTemplate(t, t.tabulate(lambda a: (Fraction(1, t.size(a)),) * t.size(a)))


# the old partite name, kept because perfbench's workloads call it
uniform_partite_prob = uniform_prob


# ---------------------------------------------------------------------------
# products


def product_template(t1, t2):
    """Omega (x) Omega', space by space, over the larger k (partite products
    need equal k)."""
    if t1.partite != t2.partite:
        raise ValueError("a product needs two templates of one setting")
    if t1.partite and t2.k != t1.k:
        raise ValueError("partite products need equal k")
    t = max(t1, t2, key=lambda t: t.k)
    return type(t)(t.k, t.tabulate(lambda a: t1.size(a) * t2.size(a)))


def join_config(t1, t2, x1, x2):
    """Identify E_V(Omega (x) Omega') with E_V(Omega) x E_V(Omega'),
    coordinate by coordinate."""
    return {key: a * t2.size(t2.space(key)) + x2[key] for key, a in x1.items()}


def split_config(t1, t2, x):
    a, b = {}, {}
    for key, c in x.items():
        a[key], b[key] = divmod(c, t2.size(t2.space(key)))
    return a, b


# ---------------------------------------------------------------------------
# partization


def partize_template(t, k):
    if k > t.k:
        raise ValueError("k exceeds the template's arity cap")
    return PartiteTemplate(k, {a: t.size(len(a)) for a in indexing.subsets(k, k)})


def partize_prob(mu, k):
    pt = partize_template(mu.template, k)
    return ProbTemplate(pt, pt.tabulate(lambda a: mu.weights[len(a) - 1]))


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
    return config_points(template, template.domain(k)[0])


def places(template, k):
    """Each arity-k domain coordinate's place value: a point's column in a class
    table (``domain_points``' mixed radix) is its values' sum of place values."""
    t, place, step = template, {}, 1
    for key in reversed(t.coords(t.domain(k)[0])):
        place[key], step = step, step * t.size(t.space(key))
    return place


def _supports(mu, m):
    """Each coordinate of the size-m configuration space with the (point,
    weight) pairs of positive weight on its ground space, in ``coords(m)``
    order."""
    t = mu.template
    for key in t.coords(m):
        a = t.space(key)
        yield key, [(v, w) for v in range(t.size(a)) if (w := mu.weight(a, v))]


def law_atoms(mu, m):
    """The number of atoms of mu's size-m product law, counted without
    enumerating it."""
    return prod(len(support) for _, support in _supports(mu, m))


def config_law(mu, m):
    """Exact law of the size-m sample (m vertices per part in the partite
    setting), one independent coordinate per ``coords(m)`` drawn from mu's
    weights on its ground space, as a list of (config point, Fraction)
    pairs, the last coordinate fastest."""
    out = [({}, Fraction(1))]
    for key, support in _supports(mu, m):
        out = [({**x, key: v}, p * w) for x, p in out for v, w in support]
    return out


def partite_config_law(mu, m):
    """``config_law``, kept as a distinct name for perfbench's tracer."""
    return config_law(mu, m)
