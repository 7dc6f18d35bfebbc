"""Hypotheses, hypothesis classes, the induced labeled-diagram map, rank
computation, and class partization."""

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations, product

import numpy as np

from . import indexing, templates


def canonical_key(x):
    return tuple(sorted(x.items()))


@cache
def perms(k):
    """Canonical enumeration of S_k (lexicographic), built once per k."""
    return tuple(permutations(range(1, k + 1)))


@dataclass(frozen=True)
class Hypothesis:
    """A label-valued function on arity-k configuration points.

    ``fn`` must be total on the finite domain and pure.  For partite
    hypotheses the domain is the partite configuration space with one vertex
    per part.  ``labels`` is the tuple of possible label values.
    ``declared_rank`` is documentation only: nothing verifies it, so no
    evaluation route reads it (``rank_of`` computes the rank).
    """

    k: int
    template: object
    labels: tuple
    fn: object = field(compare=False)
    name: str = ""
    declared_rank: int = None

    def __call__(self, x):
        return self.fn(x)

    def domain(self):
        return templates.domain_points(self.template, self.k)

    def table(self):
        return {canonical_key(x): self.fn(x) for x in self.domain()}


def star(F, x, m):
    """F*_[m](x): the label tensor over the template's index set, the
    injections ([m])_k or, in the partite setting, the tuples in [m]^k."""
    t = F.template
    pull = t.pull
    return {alpha: F(pull(alpha, x)) for alpha in t.index(m, F.k)}


def pattern(F, x):
    """F*_k(x) as a tuple over the canonical enumeration of S_k.

    This is the full label pattern of an arity-k configuration point, the
    object k-ary losses consume.
    """
    return tuple(F(indexing.pullback(sigma, x)) for sigma in perms(F.k))


def star_partite(F, x, m):
    """``star``, kept as a distinct name for perfbench's tracer."""
    return star(F, x, m)


def rank_of(F):
    """Smallest r such that F only depends on coordinates with |A| <= r."""
    dom = F.domain()
    values = {canonical_key(x): F(x) for x in dom}
    max_arity = max((len(key) for key in dom[0]), default=0)
    for r in range(0, max_arity + 1):
        groups = {}
        for x in dom:
            low = tuple(sorted((k, v) for k, v in x.items() if len(k) <= r))
            groups.setdefault(low, set()).add(values[canonical_key(x)])
        if all(len(vs) == 1 for vs in groups.values()):
            return r
    return max_arity  # pragma: no cover - loop always resolves by max_arity


def constant_hypothesis(k, template, labels, value, name="const"):
    return Hypothesis(k, template, labels, lambda x, v=value: v, name=name)


def patterns_label_space(labels, k):
    """The label space Lambda^{S_k} used by partized hypotheses."""
    return tuple(product(labels, repeat=len(perms(k))))


def partize_hypothesis(F):
    """F^kpart(x) := F*_k(iota_kpart(x)), a partite hypothesis with label
    space Lambda^{S_k}."""
    pt = templates.partize_template(F.template, F.k)
    return Hypothesis(
        F.k,
        pt,
        patterns_label_space(F.labels, F.k),
        lambda x: pattern(F, indexing.iota_kpart(x)),
        name=f"{F.name}^kpart" if F.name else "kpart",
        declared_rank=F.declared_rank,
    )


def unpartize_hypothesis(G, template, labels):
    """Inverse of partize_hypothesis: F(x) = G(phi_k(x))_{id}."""
    return Hypothesis(
        G.k,
        template,
        labels,
        lambda x: G(indexing.phi_k(x))[0],
        name=G.name + "^-1",
    )


def distinct_rows(table):
    """(the distinct rows of a 2-D array, each row's index among them), rows
    compared as byte strings through a ``np.void`` view (asking for the index
    also skips a first-use numpy.ma import)."""
    table = np.ascontiguousarray(table)
    if not table.shape[1]:  # no bytes to compare: every row is the first
        return table[:1], np.zeros(len(table), int)
    rows = table.view(np.dtype((np.void, table.dtype.itemsize * table.shape[1])))
    distinct, index = np.unique(rows, return_inverse=True)
    return distinct.view(table.dtype).reshape(-1, table.shape[1]), index.ravel()


@dataclass(frozen=True)
class HypothesisClass:
    """A finite list of hypotheses, tabulated once.

    ``table[i, j]`` is the index in ``labels`` of member i's value at the j-th
    point of ``templates.domain_points`` (mixed radix, the last coordinate
    fastest), in the smallest unsigned dtype that holds ``len(labels)``,
    passed in or else evaluated once per member and point.  ``dims`` and
    ``learners.erm`` read only the table.  A value outside ``labels`` or a
    duplicate member raises ValueError.
    """

    k: int
    template: object
    labels: tuple
    members: tuple
    name: str = ""
    table: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.table is None:
            index = {v: i for i, v in enumerate(self.labels)}
            points = templates.domain_points(self.template, self.k)
            cells = [index.get(h(x), -1) for h in self.members for x in points]
            if -1 in cells:
                raise ValueError("member value outside the class labels")
            table = np.array(cells, np.min_scalar_type(len(self.labels)))
            object.__setattr__(self, "table", table.reshape(-1, len(points)))
        if self.members and len(distinct_rows(self.table)[0]) < len(self.members):
            raise ValueError("duplicate hypothesis in class")

    @property
    def partite(self):
        return self.template.partite

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def partize_class(H):
    """The class of H's partized members, tabulated from H's table without a
    member call: a partite point x's label reads H at S_k's pullbacks of
    iota_kpart(x), and its index in ``patterns_label_space`` is those label
    indices' mixed-radix number, the first pullback's most significant."""
    if H.partite:
        raise ValueError("class is already partite")
    pt, place = templates.partize_template(H.template, H.k), templates.places(H.template, H.k)
    points = [indexing.iota_kpart(x) for x in templates.domain_points(pt, H.k)]
    code = np.zeros((len(H.table), len(points)), np.int64)
    for sigma in perms(H.k):
        pulled = (indexing.pullback(sigma, x) for x in points)
        columns = [sum(place[a] * v for a, v in y.items()) for y in pulled]
        code = code * len(H.labels) + H.table[:, columns]
    labels = patterns_label_space(H.labels, H.k)
    return HypothesisClass(
        H.k,
        pt,
        labels,
        tuple(partize_hypothesis(F) for F in H.members),
        name=f"{H.name}^kpart",
        table=code.astype(np.min_scalar_type(len(labels))),
    )
