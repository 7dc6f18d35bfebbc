"""Exact fast evaluation paths for k = 2 scenarios without mu'.

A unit's loss depends only on the values the sample induces on it, so an
empirical loss is the sample's count of unit value codes times one exact loss
table: a member's row of the check's ``losses.plan``, over the products of
mu's supports, which are the k = 2 law's atoms.  A context codes each drawn
value by its support rank.  ``counts(rngs, m)`` reads a block of streams at
a time and yields one trials x atoms count matrix per block, over the law's
atoms, which the checks multiply by the members' integer plan rows V;
``empirical(table, counts)`` reads one trial's counts against one
``loss_table``.  ``qualifies`` picks the route from V: a 2-partite V always
qualifies; a plain one only when it ignores the pair value and is symmetric,
so a pair context counts each unit once per order at pair value 0.  Nothing
declared about H, F or the loss is read.

The streams are read in blocks (``sampler._uniform_blocks``, bit for bit as
many ``rng.random()`` calls), so every statistic here equals
``losses.empirical_loss`` on ``sampler.labeled_sample``'s sample for the same
(seed, trial).
"""

from fractions import Fraction
from functools import cached_property
from math import comb
from operator import mul

import numpy as np

from . import losses
from .sampler import _decode, _row_counts, _support, _uniform_blocks


def qualifies(mu, V):
    """Whether a context counts for the members' integer plan rows V (the k = 2
    law's atoms x members): always on a 2-partite template; on a plain one
    when V, laid out as (unary rank, unary rank, pair value, member), ignores
    the pair value and is symmetric in the two unary ranks."""
    if mu.template.partite:
        return True
    n = len(_support(mu.weights[0])[0])
    P = V.reshape(n, n, -1, V.shape[1])
    return bool((P == P[:, :, :1]).all() and (P == P.transpose(1, 0, 2, 3)).all())


def _plan_row(args, H):
    """(D, integer numerators over D) of H's ``losses.plan`` row over mu's
    k = 2 law, for args (mu, F, ell)."""
    mu, F, ell = args
    row = losses.plan(losses.law_plan(mu, ell.k, None), F, ell)[0]
    return losses.numerators(row(H))


class PairContext:
    """Unary-value tables for a non-partite k = 2 scenario, over the support
    ranks of mu's unary values."""

    def __init__(self, mu, F, ell):
        if ell.k != 2 or mu.template.partite:
            raise ValueError("pair context needs a binary loss on a plain template")
        self._args = (mu, F, ell)
        self._values, self._cum = _support(mu.weights[0])
        self.n = len(self._values)
        # pair values of positive weight: one on a k = 1 template (an implicit space)
        self._w = sum(mu.weight(2, v) > 0 for v in range(mu.template.size(2)))

    @cached_property
    def ftable(self):
        """F's label at each pair of unary values (pair value 0)."""
        F, n = self._args[1], self._args[0].template.size(1)
        return [[F({(1,): a, (2,): b, (1, 2): 0}) for b in range(n)] for a in range(n)]

    def loss_table(self, H):
        """H's table against F: (D, V) with V[a][b] / D the loss on a unit
        whose unary values have support ranks (a, b); None unless it
        qualifies."""
        D, nums = _plan_row(self._args, H)
        V = np.array(nums, object).reshape(-1, 1)
        if qualifies(self._args[0], V):
            return D, V.reshape(self.n, self.n, -1)[:, :, 0].tolist()
        return None

    def counts(self, rngs, m):
        """Per block of rngs: each size-m sample's count of ordered unit pairs
        by their unary ranks (a, b), at pair value 0 of the law's atoms (a
        qualifying table ignores the pair value and is symmetric), one row
        per rng, and the count total m (m - 1).  Only the m unary values are
        drawn; a sample without units is refused before any rng is read."""
        if m < 2:
            raise ValueError(f"no empirical loss: m = {m} has no unit of arity k = 2")
        n, diagonal = self.n, np.arange(self.n)
        for u in _uniform_blocks(rngs, m):
            c = _row_counts(_decode(self._cum, u), n)
            pairs = np.zeros((len(u), n, n, self._w), int)
            pairs[..., 0] = c[:, :, None] * c[:, None, :]
            pairs[:, diagonal, diagonal, 0] -= c
            yield pairs.reshape(len(u), -1), m * (m - 1)

    def draw_unary(self, rng, m):
        """The m unary values of a size-m sample: the first m draws of the
        generic stream (unary coordinates enumerate first)."""
        u = next(_uniform_blocks((rng,), m))[0]
        return self._values[_decode(self._cum, u)].tolist()

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

    def loss_table(self, H):
        """H's table against F: its plan row, (D, integer numerators over D)."""
        return _plan_row(self._args, H)

    def counts(self, rngs, m):
        """Per block of rngs: each size-(m, m) partite sample's count of
        (part-1, part-2, cross) support-rank triples, the law's atoms, one row
        per rng, and the count total m^2.  The stream is read in the
        canonical coordinate order: part-1 singletons, part-2 singletons,
        cross pairs (second index fastest).  A sample without units is
        refused before any rng is read."""
        if not m:
            raise ValueError("no empirical loss: m = 0 has no unit of arity k = 2")
        for u in _uniform_blocks(rngs, 2 * m + m * m):
            s1 = _decode(self._cum1, u[:, :m])
            s2 = _decode(self._cum2, u[:, m : 2 * m])
            p = _decode(self._cum12, u[:, 2 * m :]).reshape(len(u), m, m)
            codes = (s1[:, :, None] * self.n2 + s2[:, None, :]) * self.n12 + p
            yield _row_counts(codes, self._codes), m * m

    def draw(self, rng, m):
        """One size-(m, m) sample's triple counts, as ``counts`` gives them."""
        return next(self.counts((rng,), m))[0][0].tolist()

    def empirical(self, V, counts):
        (D, nums), units = V, sum(counts)
        if len(counts) != self._codes:
            raise ValueError(f"need {self._codes} value counts, got {len(counts)}")
        if not units:
            raise ValueError("no empirical loss: m = 0 has no unit of arity k = 2")
        return Fraction(sum(map(mul, counts, nums)), D * units)
