"""Natarajan, VC, and VCN_k dimensions; growth functions; growth-bound
certification.

Every dimension oracle reads a family as bitmasks: each column holds, for
each value it takes, a Python int whose bits are the rows taking it (the
functions of a ``FunctionFamily``, or the members of a class table).  A set
of columns, with a pair of values each, splits the rows into cells, and is
Natarajan-shattered iff no cell is empty.  Shattering is hereditary, so one
depth-first search in lex order extends only shattered sets, up to
min(cap, n, floor(log2 #rows)) (shattering d points takes 2^d distinct rows).
It is exhaustive within stated caps (default: set size <= 6, domain <= 64),
and a capped result is an ``AtLeast``, never an exact value.  A class's slice
columns are one gather of the class table per chunk of x's, packed along the
member axis; ``slices`` reads the same chunks as ``FunctionFamily``s, whose
restrictions ``natarajan_witness`` scans as tuples.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice, product
from math import comb, perm

import numpy as np

from . import templates
from .hypotheses import canonical_key, distinct_rows

# a slice read gathers at most this many table cells at once, and at least one x
SLICE_CELLS = 2**20
# a shattering search keeps the cells of a split only up to this many
KEPT_CELLS = 2**8
# a family with more candidate points than this is refused, not searched
DOMAIN_CAP = 64


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


def _kept(columns):
    """Each distinct column that takes two or more values, as its values' row
    masks, in order; columns are tuples of masks, equal when the columns are.
    No constant column, nor a copy of an earlier one, sits in a shattered set."""
    kept = ([mask for mask in masks if mask] for masks in dict.fromkeys(columns))
    return [masks for masks in kept if len(masks) > 1]


def _value_pairs(columns):
    """Each kept column's value pairs, as pairs of row masks."""
    return [list(combinations(masks, 2)) for masks in _kept(columns)]


def _split(cells, a, b):
    """Each cell c's halves c & a and c & b, or None if one of them is empty."""
    split = []
    for c in cells:
        lo, hi = c & a, c & b
        if not (lo and hi):
            return None
        split += lo, hi
    return split


def _halves(cells, a, b):
    """``_split`` read as it goes, without the check."""
    for c in cells:
        yield c & a
        yield c & b


def _deepest(pairs, cells, tail, start, depth, best, target):
    """The larger of ``best`` and the size, at most ``target``, of the
    largest shattered set extending the ``depth`` columns whose cells are
    ``cells`` split by ``tail``'s value pairs, by columns from ``start`` on:
    column i with value pair (a, b) splits each cell c into c & a and c & b,
    and joins only if both halves of every cell are non-empty.  Splits of up
    to KEPT_CELLS cells are kept; deeper cells are re-split as they are read."""
    keep = depth + 1 < target and 2 << depth <= KEPT_CELLS
    for i in range(start, len(pairs) + depth - best):  # later, no set beats best
        for a, b in pairs[i]:
            if keep:
                split = _split(cells, a, b)
                if split is None:
                    continue
                child = split, ()
            else:
                read = cells
                for pair in tail:
                    read = _halves(read, *pair)
                if not all(c & a and c & b for c in read):
                    continue
                if depth + 1 == target:
                    return target
                child = cells, (*tail, (a, b))
            best = _deepest(pairs, *child, i + 1, depth + 1, max(best, depth + 1), target)
            if best == target:
                return best
    return best


def _dimension(pairs, count, cap, floor):
    """The Natarajan dimension of ``count`` rows whose columns have these
    value pairs, or ``AtLeast(cap)`` when it reaches a cap below n.  Only
    sets larger than ``floor`` are searched for, so a smaller dimension
    reads as ``floor``; reaching the cap is looked for at any floor."""
    n = len(pairs)
    target = min(cap, n, count.bit_length() - 1)  # shattering d columns takes 2^d rows
    if cap < n:
        floor = min(floor, cap - 1)
    if target <= floor:
        return floor
    d = _deepest(pairs, [(1 << count) - 1], (), 0, 0, floor, target) if target else 0
    return AtLeast(cap) if d == cap < n else d


def natarajan_dim(fam, cap=6, domain_cap=DOMAIN_CAP):
    rows = tuple(dict.fromkeys(fam.functions))
    values = tuple(dict.fromkeys(chain.from_iterable(rows)))
    pairs = _value_pairs(
        tuple(sum(1 << i for i, x in enumerate(col) if x == v) for v in values)
        for col in zip(*rows)
    )
    if len(pairs) > domain_cap:
        raise ValueError("domain exceeds the search cap")
    return _dimension(pairs, len(rows), cap, 0)


def natarajan_witness(fam, d):
    """A size-d shattered position set with its witness pair (g0, g1), or
    None.  Indices refer to the original (uncollapsed) domain."""
    if len(fam.domain) > DOMAIN_CAP:
        raise ValueError("domain exceeds the search cap")
    for idxs in combinations(range(len(fam.domain)), d):
        pair = _shattered(fam.columns, idxs)
        if pair is not None:
            return (idxs, *pair)
    return None


def vc_dim(fam, cap=6, domain_cap=DOMAIN_CAP):
    values = {v for f in fam.functions for v in f}
    if len(values) > 2:
        raise ValueError("VC dimension needs a binary family")
    return natarajan_dim(fam, cap, domain_cap)


# ---------------------------------------------------------------------------
# slices of hypothesis classes


def _labelled(cls, rows):
    """Rows of label indices as the tuples of the labels they name."""
    return list(map(tuple, np.fromiter(cls.labels, object)[rows].tolist()))


def _offsets(t, place, keys):
    """The sum of place values of each point over ``keys``, in
    ``templates.points_over``' order (the last key fastest)."""
    out = np.zeros(1, np.int64)
    for key in keys:
        out = np.add.outer(out, place[key] * np.arange(t.size(t.space(key)))).ravel()
    return out


def _layout(cls):
    """Each split of the slice rule as (missing, fixed, varied, chunks): x
    fixes the coordinates ``fixed`` avoiding the missing vertex or part, its
    extensions vary the coordinates ``varied`` containing it, and each chunk
    holds the class-table columns (``templates.places``) of the next run of
    x's extensions, one row per x, in ``points_over``' order.  A chunk gathers
    at most SLICE_CELLS cells with one more per member and x, and at most 256
    x's (so an x's index is one byte), but at least one x."""
    t, place, members = cls.template, templates.places(cls.template, cls.k), len(cls.table)
    for missing, fixed, varied in t.slices(cls.k):
        offsets, columns = _offsets(t, place, fixed), _offsets(t, place, varied)
        step = min(256, max(1, SLICE_CELLS // (members * (len(columns) + 1) or 1)))
        starts = range(0, len(offsets), step)
        chunks = (np.add.outer(offsets[s : s + step], columns) for s in starts)
        yield missing, fixed, varied, chunks


def slices(cls):
    """Each slice of the class as (missing, x, points, family): the family is
    the class's members restricted to x's extensions ``points``, read as the
    class table's distinct rows at their columns, a chunk of x's per sort."""
    t, members = cls.template, len(cls.table)
    for missing, fixed, varied, chunks in _layout(cls):
        points, xs = templates.points_over(t, varied), templates.points_over(t, fixed)
        domain, width, start = tuple(canonical_key(z) for z in points), len(points) + 1, 0
        for chunk in chunks:
            rows = np.empty((members, len(chunk), width), cls.table.dtype)
            rows[..., 0], rows[..., 1:] = np.arange(len(chunk)), cls.table[:, chunk]
            distinct = distinct_rows(rows.reshape(-1, width))[0]
            labelled = _labelled(cls, distinct[:, 1:])
            ends = np.searchsorted(distinct[:, 0], range(len(chunk) + 1)).tolist()
            for x, a, b in zip(xs[start:], ends, ends[1:]):
                yield missing, x, points, FunctionFamily(domain, tuple(sorted(labelled[a:b])))
            start += len(chunk)


def _slice_columns(cls):
    """Each slice's columns, in ``slices``' order, as tuples of member masks,
    one per label its chunk takes: bit i of a label's mask is set iff member
    i takes that label there.  A chunk of x's is one gather of the table,
    packed along the member axis once per label it takes."""
    size = (len(cls.table) + 7) // 8
    for *_, chunks in _layout(cls):
        for chunk in chunks:
            cells = cls.table[:, chunk]  # (member, x, point)
            taken = [
                np.packbits(eq, axis=0, bitorder="little")
                for v in range(len(cls.labels))
                if (eq := cells == v).any()
            ]
            packed = np.empty((*chunk.shape, len(taken), size), np.uint8)
            for j, bits in enumerate(taken):
                packed[:, :, j] = bits.transpose(1, 2, 0)
            data = packed.tobytes()
            starts = range(0, len(data), size or 1)
            masks = iter([int.from_bytes(data[i : i + size], "little") for i in starts])
            for _ in range(len(chunk)):
                yield [tuple(islice(masks, len(taken))) for _ in range(chunk.shape[1])]


def vcn_k(cls, cap=6):
    """Exact supremum of the slice Natarajan dimensions over the finite
    (truncated) slice index set; a slice is searched only for a set larger
    than the best so far."""
    best = 0
    for columns in _slice_columns(cls):
        pairs = _value_pairs(columns)
        if len(pairs) > DOMAIN_CAP:
            raise ValueError("domain exceeds the search cap")
        d = _dimension(pairs, len(cls.table), cap, best)
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


def _most_cells(columns, cells, start, left, best):
    """The larger of ``best`` and the most non-empty cells that ``left`` more
    columns from ``start`` on split ``cells`` into, each by all its values."""
    if not left:
        return max(best, len(cells))
    for i in range(start, len(columns) - left + 1):
        split = [part for c in cells for mask in columns[i] if (part := c & mask)]
        best = _most_cells(columns, split, i + 1, left - 1, best)
    return best


def growth_function(cls, m):
    """tau^k(m): the largest number of distinct restrictions of a slice
    family to an m-point subset of its domain.  Slices smaller than m
    contribute their full-domain restriction count.  Restrictions only grow
    with the set, so m of a slice's distinct non-constant columns suffice."""
    best, rows = 1, [(1 << len(cls.table)) - 1] if len(cls.table) else []
    for columns in _slice_columns(cls):
        kept = _kept(columns)
        best = _most_cells(kept, rows, 0, min(m, len(kept)), best)
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
