"""Exact fast evaluation paths for pair-type scenarios.

Both contexts replicate the generic sampling streams draw-for-draw: the
canonical coordinate enumeration puts the low-arity coordinates first, so a
context that only needs those coordinates can stop reading the stream early
and still see exactly the values the generic route would have seen.  Each
draw reads its uniforms in one bulk call (``_uniforms``, bit for bit as many
``rng.random()`` calls), so every Monte Carlo statistic computed here is
bit-identical to the generic route on the same (seed, trial); the tests
cross-check both routes on small instances.

``PairContext`` covers non-partite k = 2 scenarios whose hypotheses have rank
1 and whose loss ignores the configuration argument (e.g. the 0/1-loss):
everything reduces to tables over unary value pairs, and empirical losses
collapse to value-pair counts.  ``TwoPartiteContext`` covers 2-partite
scenarios by tabulating the loss over the three coordinates of one cross
pair.  Both build one context per check and one loss table per hypothesis,
draw a sample with ``draw(rng, m)`` and read a table with ``empirical(V,
sample)``.  A table holds integer numerators over one common denominator, so
a trial does integer work only (a float loss value raises TypeError).

Neither context knows an auxiliary measure mu', so agnostic scenarios always
take the generic route; ``learners._trial_losses`` chooses the route for both
the uniform-convergence and the concentration check.  The contexts compute
empirical losses only: ``losses`` owns every exact total.
"""

from fractions import Fraction
from math import comb, lcm
from operator import mul

import numpy as np


def _cum(weights):
    return np.cumsum(np.asarray([float(w) for w in weights]))


def _decode(cum, u):
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
        self._cum = _cum(mu.weights[0])

    def value_table(self, H):
        n = self.n
        return [
            [H({(1,): a, (2,): b, (1, 2): 0}) for b in range(n)] for a in range(n)
        ]

    def loss_table(self, H):
        """(D, V): V[a][b] / D is the loss of H against the adversary on a
        sample pair with unary values (a, b)."""
        n = self.n
        ht, ft = self.value_table(H), self.ftable
        rep = {(1,): 0, (2,): 0, (1, 2): 0}
        D, flat = _numerators(
            self.ell(rep, (ht[a][b], ht[b][a]), (ft[a][b], ft[b][a]))
            for a in range(n)
            for b in range(n)
        )
        V = [flat[a * n : (a + 1) * n] for a in range(n)]
        if any(V[a][b] != V[b][a] for a in range(n) for b in range(a)):
            raise ValueError("asymmetric loss table; fast path invalid")
        return D, V

    def draw(self, rng, m):
        return self.draw_unary(rng, m)

    def draw_unary(self, rng, m):
        """The m unary values of a size-m sample: the first m draws of the
        generic stream (unary coordinates enumerate first)."""
        return _decode(self._cum, _uniforms(rng, m)).tolist()

    def empirical(self, V, u):
        """Mean of V over the unordered value pairs of the sample u: with value
        counts c, the pair sum is (c V c - sum_a c[a] V[a][a]) / 2."""
        if len(u) < 2:
            m = len(u)
            raise ValueError(f"no empirical loss: m = {m} has no unit of arity k = 2")
        D, rows = V
        c = np.bincount(u, minlength=self.n).tolist()
        twice = sum(
            ca * (sum(map(mul, c, row)) - row[a])
            for a, (ca, row) in enumerate(zip(c, rows))
            if ca
        )
        return Fraction(twice // 2, D * comb(len(u), 2))


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
    """Loss-value tables over one cross pair for a 2-partite scenario: a
    hypothesis H's table codes the loss of H against the adversary's F at each
    (part-1, part-2, cross) value triple."""

    def __init__(self, mu, F, ell):
        if ell.k != 2 or ell.setting != "partite":
            raise ValueError("needs a 2-partite loss")
        t = mu.template
        self.F, self.ell = F, ell
        self.n1, self.n2, self.n12 = t.size((1,)), t.size((2,)), t.size((1, 2))
        w1, w2, w12 = mu.weights[(1,)], mu.weights[(2,)], mu.weights[(1, 2)]
        self._cum1, self._cum2, self._cum12 = _cum(w1), _cum(w2), _cum(w12)

    def loss_table(self, H):
        """(D, values, code): the distinct loss values of H as integer
        numerators over D, and the index of the value at each value triple."""
        vals = []
        index = {}
        code = np.empty((self.n1, self.n2, self.n12), dtype=np.int64)
        for a in range(self.n1):
            for b in range(self.n2):
                for c in range(self.n12):
                    x = {((1, 1),): a, ((2, 1),): b, ((1, 1), (2, 1)): c}
                    v = self.ell(x, H(x), self.F(x))
                    if v not in index:
                        index[v] = len(vals)
                        vals.append(v)
                    code[a, b, c] = index[v]
        return *_numerators(vals), code

    def draw(self, rng, m):
        """One size-(m, m) partite sample, reading the stream in the canonical
        coordinate order: part-1 singletons, part-2 singletons, cross pairs
        (second index fastest)."""
        u = _uniforms(rng, 2 * m + m * m)
        s1 = _decode(self._cum1, u[:m])
        s2 = _decode(self._cum2, u[m : 2 * m])
        p = _decode(self._cum12, u[2 * m :]).reshape(m, m)
        return s1, s2, p

    def empirical(self, V, sample):
        (D, values, code), (s1, s2, p) = V, sample
        if not len(s1):
            raise ValueError("no empirical loss: m = 0 has no unit of arity k = 2")
        codes = code[s1[:, None], s2[None, :], p]
        cnt = np.bincount(codes.ravel(), minlength=len(values))
        num = sum(c * v for c, v in zip(cnt.tolist(), values))
        return Fraction(num, D * len(s1) * len(s2))
