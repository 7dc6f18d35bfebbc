"""Exact fast evaluation paths for k = 2 scenarios without mu'.

A unit's loss depends only on the values the sample induces on it, so an
empirical loss is the sample's count of unit value codes times one exact loss
table: a member's row of the check's ``losses.plan``, laid out over the
products of mu's supports (``tables``).  A context codes each drawn value by
its support rank; ``draw(rng, m)`` returns the count vector once per trial
and ``empirical(V, counts)`` reads it against a table in integers.  A
2-partite table always qualifies; a pair table only when it ignores the pair
value and is symmetric.  Nothing declared about H, F or the loss is read.

Each draw reads the generic stream's prefix with one bulk call
(``_uniforms``, bit for bit as many ``rng.random()`` calls), so every
statistic here is bit-identical to the generic route on the same (seed, trial).
"""

from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from operator import mul

import numpy as np

from . import losses


def _support(weights):
    """A ground space's values of positive weight, in order, and their
    cumulative float weights, summed as ``sampler._draw`` sums them."""
    values = [v for v, w in enumerate(weights) if w]
    return np.asarray(values), np.cumsum([float(weights[v]) for v in values])


def _decode(cum, u):
    """The support rank each uniform draws; past the float sum, the last."""
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def _uniforms(rng, n):
    """The next n ``rng.random()`` values, bit for bit, joining 32-bit word
    pairs as ``random()`` does, from one call that leaves rng in their state."""
    w = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
    return ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def _numerators(values):
    """(D, numerators) of int or Fraction values over their lcm D; a float raises."""
    exact = [Fraction(v, 1) for v in values]
    D = lcm(*(v.denominator for v in exact))
    return D, [v.numerator * (D // v.denominator) for v in exact]


def _pair_table(table, n):
    """(D, V) with V[a][b] / D the loss on a unit whose unary values have
    support ranks (a, b), from a (D, numerators) row over n unary support
    values; None unless it ignores the pair value and V[a][b] == V[b][a]."""
    D, flat = table
    w = len(flat) // n**2
    V = [flat[a * n * w : (a + 1) * n * w : w] for a in range(n)]
    ignores_pair = flat == [v for row in V for v in row for _ in range(w)]
    return (D, V) if ignores_pair and V == [list(c) for c in zip(*V)] else None


def tables(mu, rows):
    """Each member's table, as its context reads it, from its ``losses.plan``
    row over mu's k = 2 law, whose atoms are mu's support (part-1, part-2 and
    pair or cross value, the last fastest), as (D, integer numerators over D);
    None where it does not qualify."""
    rows = [_numerators(row) for row in rows]
    if mu.template.partite:
        return rows
    n = len(_support(mu.weights[0])[0])
    return [_pair_table(row, n) for row in rows]


class PairContext:
    """Unary-value tables for a non-partite k = 2 scenario, over the support
    ranks of mu's unary values."""

    def __init__(self, mu, F, ell):
        if ell.k != 2 or mu.template.partite:
            raise ValueError("pair context needs a binary loss on a plain template")
        self._args = (mu, F, ell)
        self._values, self._cum = _support(mu.weights[0])
        self.n = len(self._values)

    @cached_property
    def ftable(self):
        """F's label at each pair of unary values (pair value 0)."""
        F, n = self._args[1], self._args[0].template.size(1)
        return [[F({(1,): a, (2,): b, (1, 2): 0}) for b in range(n)] for a in range(n)]

    def loss_table(self, H):
        """H's table against F, as ``tables`` lays it out; None if it does not
        qualify."""
        return tables(self._args[0], [losses.plan(*self._args)[0](H)])[0]

    def draw(self, rng, m):
        """The support-rank counts of a size-m sample's unary values."""
        ranks = _decode(self._cum, _uniforms(rng, m))
        return np.bincount(ranks, minlength=self.n).tolist()

    def draw_unary(self, rng, m):
        """The m unary values of a size-m sample: the first m draws of the
        generic stream (unary coordinates enumerate first)."""
        return self._values[_decode(self._cum, _uniforms(rng, m))].tolist()

    def empirical(self, V, c):
        """Mean of V over the unordered value pairs of a sample with support
        rank counts c: the pair sum is (c V c - sum_a c[a] V[a][a]) / 2."""
        if len(c) != self.n:
            raise ValueError(f"need {self.n} value counts, got {len(c)}")
        m = sum(c)
        if m < 2:
            raise ValueError(f"no empirical loss: m = {m} has no unit of arity k = 2")
        D, rows = V
        twice = sum(
            ca * (sum(map(mul, c, row)) - row[a])
            for a, (ca, row) in enumerate(zip(c, rows))
            if ca
        )
        return Fraction(twice // 2, D * comb(m, 2))


class LazyPairLabels:
    """Read-only injection -> label view of F*_m(x) for a rank-1 F, backed by
    a value table and the sample's unary values (no m^2 materialization)."""

    def __init__(self, ftable, u):
        self.ftable = ftable
        self.u = u

    def __getitem__(self, alpha):
        i, j = alpha
        return self.ftable[self.u[i - 1]][self.u[j - 1]]


class TwoPartiteContext:
    """Value-triple tables for a 2-partite scenario: a sample is read as its
    count of each (part-1, part-2, cross) triple of support ranks."""

    def __init__(self, mu, F, ell):
        if ell.k != 2 or not mu.template.partite:
            raise ValueError("needs a binary loss on a partite template")
        self._args = (mu, F, ell)
        self._cum1, self._cum2, self._cum12 = (
            _support(mu.weights[a])[1] for a in ((1,), (2,), (1, 2))
        )
        self.n2, self.n12 = len(self._cum2), len(self._cum12)
        self._codes = len(self._cum1) * self.n2 * self.n12

    loss_table = PairContext.loss_table

    def draw(self, rng, m):
        """The support-rank-triple counts of one size-(m, m) partite sample,
        reading the stream in the canonical coordinate order: part-1
        singletons, part-2 singletons, cross pairs (second index fastest)."""
        u = _uniforms(rng, 2 * m + m * m)
        s1 = _decode(self._cum1, u[:m])
        s2 = _decode(self._cum2, u[m : 2 * m])
        p = _decode(self._cum12, u[2 * m :]).reshape(m, m)
        codes = (s1[:, None] * self.n2 + s2[None, :]) * self.n12 + p
        return np.bincount(codes.ravel(), minlength=self._codes).tolist()

    def empirical(self, V, counts):
        (D, nums), units = V, sum(counts)
        if len(counts) != self._codes:
            raise ValueError(f"need {self._codes} value counts, got {len(counts)}")
        if not units:
            raise ValueError("no empirical loss: m = 0 has no unit of arity k = 2")
        return Fraction(sum(map(mul, counts, nums)), D * units)
