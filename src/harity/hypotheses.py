"""Hypotheses, hypothesis classes, the induced labeled-diagram map, rank
computation, and class partization."""

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations, product

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

    def same_function(self, other):
        return self.table() == other.table()


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


def unpartize_hypothesis(G, template, labels, name=""):
    """Inverse of partize_hypothesis: F(x) = G(phi_k(x))_{id}."""
    return Hypothesis(
        G.k,
        template,
        labels,
        lambda x: G(indexing.phi_k(x))[0],
        name=name or (G.name + "^-1"),
    )


@dataclass(frozen=True)
class HypothesisClass:
    """Either an explicit list of hypotheses or a structured family.

    Structured families carry two pure capabilities: an ERM oracle
    ``erm(x, y, loss) -> Hypothesis`` over labeled samples, and a
    restriction enumerator ``restrictions(slice_point) -> list of value
    tuples`` feeding the dimension machinery.  Explicit lists are
    duplicate-free under pointwise equality.
    """

    k: int
    template: object
    labels: tuple
    members: tuple = None
    name: str = ""
    erm: object = field(default=None, compare=False)
    restrictions: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.members:
            points = templates.domain_points(self.template, self.k)
            seen = set()
            for h in self.members:
                sig = tuple(h(x) for x in points)
                if sig in seen:
                    raise ValueError("duplicate hypothesis in explicit class")
                seen.add(sig)

    @property
    def partite(self):
        return self.template.partite

    @property
    def explicit(self):
        return self.members is not None

    def __iter__(self):
        if not self.explicit:
            raise ValueError("class is structured; no member list")
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def partize_class(H):
    if H.partite:
        raise ValueError("class is already partite")
    members = tuple(partize_hypothesis(F) for F in H.members)
    return HypothesisClass(
        H.k,
        templates.partize_template(H.template, H.k),
        patterns_label_space(H.labels, H.k),
        members,
        name=f"{H.name}^kpart",
    )
