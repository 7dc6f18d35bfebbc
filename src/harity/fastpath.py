"""Exact fast evaluation paths for pair-type scenarios.

Both contexts replicate the generic sampling streams draw-for-draw: the
canonical coordinate enumeration puts the low-arity coordinates first, so a
context that only needs those coordinates can stop reading the stream early
and still see exactly the values the generic route would have seen.  Every
Monte Carlo statistic computed here is therefore bit-identical to the generic
route on the same (seed, trial); the tests cross-check both routes on small
instances.

``PairContext`` covers non-partite k = 2 scenarios whose hypotheses have rank
1 and whose loss ignores the configuration argument (e.g. the 0/1-loss):
everything reduces to tables over unary value pairs, and empirical losses
collapse to value-pair counts.  ``TwoPartiteContext`` covers 2-partite
scenarios, one context per hypothesis, by tabulating the loss over the three
coordinates of one cross pair.

Neither context knows an auxiliary measure mu', so agnostic scenarios always
take the generic route; ``learners._trial_losses`` chooses the route for both
the uniform-convergence and the concentration check.  The contexts compute
empirical losses only: ``losses`` owns every exact total.
"""

from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np

from . import sampler


def _cum(weights):
    return np.cumsum(np.asarray([float(w) for w in weights]))


def _decode(cum, u):
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


class PairContext:
    """Tables over unary value pairs for a rank-1, k = 2 scenario.

    Preconditions (checked where cheap): hypotheses depend only on the two
    unary coordinates, the loss is symmetric and ignores the configuration
    argument, and the scenario has no auxiliary measure.
    """

    def __init__(self, mu, F, ell):
        if ell.k != 2 or ell.setting != "nonpartite":
            raise ValueError("pair context needs a non-partite binary loss")
        self.n = mu.template.size(1)
        self.ell = ell
        self.ftable = self.value_table(F)
        self._floats = [float(w) for w in mu.weights[0]]

    def value_table(self, H):
        n = self.n
        return [
            [H({(1,): a, (2,): b, (1, 2): 0}) for b in range(n)] for a in range(n)
        ]

    def loss_table(self, H):
        """V[a][b]: loss of H against the adversary on a sample pair with
        unary values (a, b)."""
        n = self.n
        ht = self.value_table(H)
        ft = self.ftable
        rep = {(1,): 0, (2,): 0, (1, 2): 0}
        V = [
            [
                Fraction(self.ell(rep, (ht[a][b], ht[b][a]), (ft[a][b], ft[b][a])))
                for b in range(n)
            ]
            for a in range(n)
        ]
        for a in range(n):
            for b in range(a):
                if V[a][b] != V[b][a]:
                    raise ValueError("asymmetric loss table; fast path invalid")
        return V

    def draw_unary(self, rng, m):
        """The m unary values of a size-m sample: the first m draws of the
        generic stream (unary coordinates enumerate first)."""
        fl = self._floats
        return [sampler._draw(rng, fl) for _ in range(m)]

    def empirical(self, V, u):
        """Mean of V over the unordered value pairs of the sample u."""
        items = sorted(Counter(u).items())
        num = Fraction(0)
        for i, (a, ca) in enumerate(items):
            num += comb(ca, 2) * V[a][a]
            for b, cb in items[i + 1 :]:
                num += ca * cb * V[a][b]
        return num / comb(len(u), 2)


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
    """Loss-value tables over one cross pair for a 2-partite scenario with a
    fixed hypothesis H against the adversary's F."""

    def __init__(self, mu, F, H, ell):
        if ell.k != 2 or ell.setting != "partite":
            raise ValueError("needs a 2-partite loss")
        t = mu.template
        self.n1, self.n2, self.n12 = t.size((1,)), t.size((2,)), t.size((1, 2))
        vals = []
        index = {}
        code = np.empty((self.n1, self.n2, self.n12), dtype=np.int64)
        w1, w2, w12 = mu.weights[(1,)], mu.weights[(2,)], mu.weights[(1, 2)]
        for a in range(self.n1):
            for b in range(self.n2):
                for c in range(self.n12):
                    x = {((1, 1),): a, ((2, 1),): b, ((1, 1), (2, 1)): c}
                    v = Fraction(ell(x, H(x), F(x)))
                    if v not in index:
                        index[v] = len(vals)
                        vals.append(v)
                    code[a, b, c] = index[v]
        self.values = vals
        self.code = code
        self._cum1, self._cum2, self._cum12 = _cum(w1), _cum(w2), _cum(w12)

    def draw(self, rng, m):
        """One size-(m, m) partite sample, reading the stream in the canonical
        coordinate order: part-1 singletons, part-2 singletons, cross pairs
        (second index fastest)."""
        n = 2 * m + m * m
        u = np.fromiter((rng.random() for _ in range(n)), dtype=float, count=n)
        s1 = _decode(self._cum1, u[:m])
        s2 = _decode(self._cum2, u[m : 2 * m])
        p = _decode(self._cum12, u[2 * m :]).reshape(m, m)
        return s1, s2, p

    def empirical(self, s1, s2, p):
        codes = self.code[s1[:, None], s2[None, :], p]
        cnt = np.bincount(codes.ravel(), minlength=len(self.values))
        num = sum(Fraction(int(c)) * v for c, v in zip(cnt, self.values) if c)
        return num / (len(s1) * len(s2))
