"""Natarajan, VC, and VCN_k dimensions; growth functions; growth-bound
certification.

The shattering search is exhaustive within stated caps (default: candidate
set size <= 6, domain <= 64).  A capped result is reported as ``AtLeast`` and
never conflated with an exact value.  Restrictions are tuples of a family's
columns; a set of two-valued columns is shattered iff all 2^d occur.  A chunk
of x's slices is one gather and one ``distinct_rows`` sort of x-prefixed rows.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb, perm

import numpy as np

from . import templates
from .hypotheses import canonical_key, distinct_rows

# a slice read gathers at most this many table cells at once, and at least one x
SLICE_CELLS = 2**20


@dataclass(frozen=True)
class AtLeast:
    """Returned when the search hit its cap: the dimension is >= n."""

    n: int

    def __int__(self):
        return self.n


@dataclass(frozen=True)
class FunctionFamily:
    domain: tuple  # opaque points
    functions: tuple  # tuples of values aligned with domain

    def __post_init__(self):
        if set(map(len, self.functions)) - {len(self.domain)}:
            raise ValueError("function not total on domain")

    @cached_property
    def columns(self):  # one tuple per domain point, read once, when first asked for
        return tuple(zip(*self.functions)) or ((),) * len(self.domain)


def _shattered(columns, idxs):
    """The pair (g0, g1) Natarajan-shattering positions ``idxs`` of ``columns``, or
    None; on two-valued columns, the first restriction and its complement."""
    restr = set(zip(*(columns[i] for i in idxs)))
    if len(restr) < 2 ** len(idxs):
        return None
    g0, values = next(iter(restr)), [set(c) for c in zip(*restr)]
    if all(len(v) == 2 for v in values):
        return g0, tuple((v - {a}).pop() for v, a in zip(values, g0))
    for g0 in restr:
        for g1 in restr:
            if any(a == b for a, b in zip(g0, g1)):
                continue
            if all(
                tuple(g1[i] if bit else g0[i] for i, bit in enumerate(bits)) in restr
                for bits in product((0, 1), repeat=len(idxs))
            ):
                return g0, g1
    return None


def _collapse(fam):
    """Drop domain points that cannot sit inside any shattered set: points
    realizing fewer than two values (every point of an empty family), and
    duplicates of an identical column (two identical columns can never
    realize the (f0, f1) mixture patterns).
    """
    first = {}  # each kept column to its first position
    for i, col in enumerate(fam.columns):
        if len(set(col)) > 1:
            first.setdefault(col, i)
    return FunctionFamily(
        tuple(fam.domain[i] for i in first.values()),
        tuple(zip(*first)) if first else ((),) * len(fam.functions),
    )


def natarajan_dim(fam, cap=6, domain_cap=64):
    fam = _collapse(fam)
    n, distinct = len(fam.domain), len(set(fam.functions))
    if n > domain_cap:
        raise ValueError("domain exceeds the search cap")
    for size in range(1, min(cap, n) + 1):  # shattering a set takes 2^size functions
        if 2**size > distinct or natarajan_witness(fam, size, domain_cap) is None:
            return size - 1
    return AtLeast(cap) if cap < n else n


def natarajan_witness(fam, d, domain_cap=64):
    """A size-d shattered position set with its witness pair (g0, g1), or
    None.  Indices refer to the original (uncollapsed) domain."""
    if len(fam.domain) > domain_cap:
        raise ValueError("domain exceeds the search cap")
    for idxs in combinations(range(len(fam.domain)), d):
        pair = _shattered(fam.columns, idxs)
        if pair is not None:
            return (idxs, *pair)
    return None


def vc_dim(fam, cap=6, domain_cap=64):
    values = {v for f in fam.functions for v in f}
    if len(values) > 2:
        raise ValueError("VC dimension needs a binary family")
    return natarajan_dim(fam, cap, domain_cap)


# ---------------------------------------------------------------------------
# slices of hypothesis classes


def _labelled(cls, rows):
    """Rows of label indices as the tuples of the labels they name."""
    return list(map(tuple, np.fromiter(cls.labels, object)[rows].tolist()))


def slices(cls):
    """Each slice of the class as (missing, x, points, family): x fixes the
    coordinates avoiding the missing vertex or part, and the family is the
    class's members restricted to x's extensions ``points``, which vary the
    coordinates containing it, read as the class table's distinct rows at
    their columns (``templates.places``), a chunk of x's per sort."""
    t, place, members = cls.template, templates.places(cls.template, cls.k), len(cls.table)
    for missing, fixed, varied in t.slices(cls.k):
        points, xs = templates.points_over(t, varied), templates.points_over(t, fixed)
        domain, width = tuple(canonical_key(z) for z in points), len(points) + 1
        columns = [sum(place[key] * v for key, v in z.items()) for z in points]
        offsets = [sum(place[key] * v for key, v in x.items()) for x in xs]
        # at most 256 x's a chunk: x's index is one byte, so the rows sort by it
        step = min(256, max(1, SLICE_CELLS // (members * width or 1)))
        for start in range(0, len(xs), step):
            chunk = np.add.outer(offsets[start : start + step], columns)
            rows = np.empty((members, len(chunk), width), cls.table.dtype)
            rows[..., 0], rows[..., 1:] = np.arange(len(chunk)), np.take(cls.table, chunk, axis=1)
            distinct = distinct_rows(rows.reshape(-1, width))[0]
            labelled = _labelled(cls, distinct[:, 1:])
            ends = np.searchsorted(distinct[:, 0], range(len(chunk) + 1)).tolist()
            for x, a, b in zip(xs[start:], ends, ends[1:]):
                yield missing, x, points, FunctionFamily(domain, tuple(sorted(labelled[a:b])))


def vcn_k(cls, cap=6):
    """Exact supremum of the slice Natarajan dimensions over the finite
    (truncated) slice index set."""
    best = 0
    for *_, fam in slices(cls):
        d = natarajan_dim(fam, cap)
        if isinstance(d, AtLeast):
            return d
        best = max(best, d)
    return best


def family_on_full_domain(cls):
    """The class viewed as a plain function family over its whole arity-k
    configuration space (used for classic VC on binary classes)."""
    points = templates.domain_points(cls.template, cls.k)
    domain = tuple(canonical_key(x) for x in points)
    return FunctionFamily(domain, tuple(sorted(_labelled(cls, distinct_rows(cls.table)[0]))))


def growth_function(cls, m):
    """tau^k(m): the largest number of distinct restrictions of a slice
    family to an m-point subset of its domain.  Slices smaller than m
    contribute their full-domain restriction count."""
    best = 1
    for *_, fam in slices(cls):
        for cols in combinations(fam.columns, min(m, len(fam.domain))):
            best = max(best, len(set(zip(*cols))))
    return best


def growth_bound(vcn, m, L):
    """Both displayed forms of the growth bound; the first (falling
    factorial) dominates the measured growth function, the second is the
    looser power form."""
    pairs = comb(L, 2)
    tight = perm(m + 1, min(vcn, m + 1)) * pairs**vcn
    loose = (m + 1) ** vcn * pairs**vcn
    return tight, loose


def ssp_bound(nat, n_points, L):
    """Size bound for a family on n_points points with Natarajan dimension
    nat: (n+1)^nat * binom(L,2)^nat."""
    return (n_points + 1) ** nat * comb(L, 2) ** nat
