"""Lower-bound constructions: the no-free-lunch scenario, the slice
non-learnability scenario, the clean-subset search, and the partition-family
adversary maps.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from . import dims, learners, losses, sampler, templates
from .hypotheses import Hypothesis, HypothesisClass


# ---------------------------------------------------------------------------
# no free lunch


def nfl_lower_bound(eps, m, d, s=1, B=1):
    """(1/(B - eps)) * ((s/2)(1 - m/d) - eps): a lower bound on the failure
    probability of any learner on the shattered scenario.  May be <= 0, in
    which case it is vacuous."""
    eps, s, B = Fraction(eps), Fraction(s), Fraction(B)
    if d < 1:
        raise ValueError("need a non-empty shattered set")
    if eps >= B:
        raise ValueError("eps must be below the loss bound")
    return ((s / 2) * (1 - Fraction(m, d)) - eps) / (B - eps)


@dataclass(frozen=True)
class ShatteredScenario:
    """A unary adversary: d points, uniform measure, and the full family
    {F_B} with F_B agreeing with f1 on B and f0 off B (f0 and f1 disagree
    everywhere)."""

    d: int
    template: object
    labels: tuple
    mu: object
    f0: object = field(compare=False)
    f1: object = field(compare=False)

    def hypothesis(self, B):
        Bf = frozenset(B)
        return Hypothesis(
            1,
            self.template,
            self.labels,
            lambda x, b=Bf: self.f1(x[(1,)]) if x[(1,)] in b else self.f0(x[(1,)]),
            name=f"F{sorted(B)}",
        )

    def erm(self, x, y):
        """F_B for the points that some witness carries with its f1-label."""
        return self.hypothesis(
            {x[(a[0],)] for a, label in y.items() if label == self.f1(x[(a[0],)])}
        )


# the no-free-lunch search tries every B (2^d of them) up to this size
EXPLICIT_CAP = 12
# the number of seeded random B the no-free-lunch search tries above the cap
NFL_RANDOM_BATCH = 64


def shattered_scenario(d, labels=(0, 1), f0=None, f1=None):
    f0 = (lambda a: labels[0]) if f0 is None else f0
    f1 = (lambda a: labels[1]) if f1 is None else f1
    for a in range(d):
        if f0(a) == f1(a):
            raise ValueError("witness functions must disagree everywhere")
    t = templates.Template(1, (d,))
    return ShatteredScenario(d, t, tuple(labels), templates.uniform_prob(t), f0, f1)


def erm_learner(sc):
    return learners.Learner(
        1, lambda x, y, b: sc.erm(x, y), lambda m: 1, name="nfl-erm"
    )


def nfl_worst_F(A, sc, m, eps, trials, seed, search_trials=100):
    """The B maximizing the Monte Carlo failure estimate P[L > eps] under the
    0/1 loss, with a final measurement at the full trial count.  Exhaustive
    over B for d <= EXPLICIT_CAP, otherwise a seeded random batch (the
    averaging argument makes a random B faithful)."""
    ell = losses.zero_one_loss(sc.labels, 1)
    d = sc.d
    if d <= EXPLICIT_CAP:
        candidates = [
            frozenset(B) for r in range(d + 1) for B in combinations(range(d), r)
        ]
    else:
        rng = sampler.stream(seed, "B-choice")
        candidates = [
            frozenset(a for a in range(d) if rng.random() < 0.5)
            for _ in range(NFL_RANDOM_BATCH)
        ]

    def failure_freq(B, n, tag):
        scen = sampler.Scenario(sc.mu, sc.hypothesis(B))
        success = learners.estimate_pac_success(A, scen, ell, m, eps, n, f"{seed}/{tag}")
        return 1 - success

    best = None
    for i, B in enumerate(candidates):
        freq = failure_freq(B, search_trials, f"search/{i}")
        if best is None or freq > best[0]:
            best = (freq, B)
    B_star = best[1]
    return B_star, failure_freq(B_star, trials, "final")


# ---------------------------------------------------------------------------
# slice non-learnability scenario


@dataclass(frozen=True)
class SliceNonlearnScenario:
    """A partite class with a dimension-d slice, repackaged as a unary
    shattered scenario plus the wrappers that turn any partite learner into a
    unary one."""

    cls: HypothesisClass
    a_missing: int
    x0: dict  # slice point: the coordinates not containing the missing part
    ext_points: tuple  # the slice domain, aligned with the family's columns
    idxs: tuple  # shattered positions within ext_points
    g0: tuple
    g1: tuple
    unary: ShatteredScenario

    def assemble(self, js, m):
        """The partite sample whose part-``a_missing`` vertex i carries the
        slice point js[i-1]; every other part repeats the fixed slice point."""
        t = self.cls.template
        a = self.a_missing
        out = {}
        for f in t.coords(m):
            dom = t.space(f)
            base_key = tuple((p, 1) for p in dom)
            if a in dom:
                i = dict(f)[a]
                out[f] = self.ext_points[self.idxs[js[i - 1]]][base_key]
            else:
                out[f] = self.x0[base_key]
        return out

    def restrict(self, H):
        """The unary function induced by a partite hypothesis."""

        def fn(xu):
            cfg = {**self.x0, **self.ext_points[self.idxs[xu[(1,)]]]}
            return H(cfg)

        return Hypothesis(1, self.unary.template, self.cls.labels, fn, name="slice")

    def realizing_member(self, B):
        """A class member whose slice restriction is the (g0, g1)-mixture on
        B; exists because the slice is shattered."""
        target = tuple(
            self.g1[i] if i in B else self.g0[i] for i in range(len(self.idxs))
        )
        for H in self.cls.members:
            if (
                tuple(
                    H({**self.x0, **self.ext_points[j]}) for j in self.idxs
                )
                == target
            ):
                return H
        raise ValueError("shattering witness not realized; inconsistent class")

    def loss_prime(self, ell):
        """The unary loss reading the assembled configuration, capped at 1."""

        def fn(xu, u, up):
            cfg = {**self.x0, **self.ext_points[self.idxs[xu[(1,)]]]}
            return min(Fraction(ell(cfg, u, up)), Fraction(1))

        return losses.LossFn(
            1,
            self.cls.labels,
            fn,
            name="slice-capped",
            sup_norm=Fraction(1),
        )

    def wrap(self, A):
        """A unary learner that feeds the assembled partite sample to A and
        restricts the answer back to the slice."""

        def fn(x, y, b):
            m = learners.sample_size(x)
            js = [x[(i,)] for i in range(1, m + 1)]
            xp = self.assemble(js, m)
            yp = {
                alpha: y[(dict(zip(range(1, self.cls.k + 1), alpha))[self.a_missing],)]
                for alpha in product(range(1, m + 1), repeat=self.cls.k)
            }
            return self.restrict(A(xp, yp, b))

        return learners.Learner(1, fn, A.r, name=f"unary({A.name})")


def vcn_nonlearn_scenario(cls, d):
    """Find a dimension-d slice of a partite class and package it as a unary
    shattered scenario."""
    if not cls.partite:
        raise ValueError("needs a partite class")
    for a_missing, x0, ext, fam in dims.slices(cls):
        wit = dims.natarajan_witness(fam, d)
        if wit is None:
            continue
        idxs, g0, g1 = wit
        unary = shattered_scenario(
            d,
            labels=tuple(cls.labels),
            f0=lambda i, g=g0: g[i],
            f1=lambda i, g=g1: g[i],
        )
        return SliceNonlearnScenario(
            cls, a_missing, x0, tuple(ext), idxs, g0, g1, unary
        )
    raise ValueError("no slice of dimension >= d at this truncation")


# ---------------------------------------------------------------------------
# clean subsets


def ramsey_rho(n):
    """Size guaranteeing a clean n-subset: n for n <= 2, (n)_3/2 + 3 above."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n <= 2:
        return n
    return n * (n - 1) * (n - 2) // 2 + 3


def verify_clean_subset(f1, f2, U):
    """Independent re-check: every pair's f2-value is either outside f1(U) or
    equal to one of its endpoints' f1-values."""
    fset = {f1[u] for u in U}
    for u, v in combinations(U, 2):
        val = f2[frozenset((u, v))]
        if val in fset and val not in (f1[u], f1[v]):
            return False
    return True


def find_clean_subset(f1, f2, n):
    """A clean n-subset of range(len(f1)), by depth-first search with
    monotone pruning (a violated partial set can never be repaired).  The
    guarantee says a clean subset always exists once len(f1) >= rho(n); an
    exhaustive miss is an implementation bug and raises."""
    N = len(f1)
    if N < ramsey_rho(n):
        raise ValueError("ground set smaller than rho(n)")

    def extend(U, pending, fset, start):
        if len(U) == n:
            return tuple(U)
        for w in range(start, N):
            if N - w < n - len(U):
                break
            fw = f1[w]
            if fw in pending:
                continue
            new_pending = set()
            ok = True
            for u in U:
                val = f2[frozenset((u, w))]
                if val == f1[u] or val == fw:
                    continue
                if val in fset:
                    ok = False
                    break
                new_pending.add(val)
            if not ok:
                continue
            found = extend(
                U + [w], pending | new_pending, fset | {fw}, w + 1
            )
            if found is not None:
                return found
        return None

    found = extend([], set(), set(), 0)
    if found is None:
        raise RuntimeError("exhaustive clean-subset search failed: bug")
    assert verify_clean_subset(f1, f2, found)
    return found


# ---------------------------------------------------------------------------
# partition-family adversary


@dataclass(frozen=True)
class PartitionAdversary:
    """The conversion maps used to simulate learning a partition family from
    a unary problem on a shattered vertex set."""

    chi: object = field(compare=False)  # frozenset pair -> class id
    z_star: int = 0
    v_prime: tuple = ()

    def chi1(self, x):
        if x == self.z_star:
            return None
        return self.chi(frozenset((self.z_star, x)))

    def chi2(self, x1, x2):
        if x1 == x2:
            return None
        return self.chi(frozenset((x1, x2)))

    def g(self, x1, x2):
        """Which endpoint's z*-class the pair's class matches (first match on
        ties), or None."""
        c = self.chi2(x1, x2)
        if c is not None and c == self.chi1(x1):
            return 1
        if c is not None and c == self.chi1(x2):
            return 2
        return None

    def b_f(self, F):
        """B_F: the z*-classes of the positively labeled shattered vertices."""
        return frozenset(self.chi1(x) for x in self.v_prime if F(x) == 1)

    def x_b(self, x, b):
        """Replace the vertices with b-bit 0 by z*."""
        return tuple(xt if bt == 1 else self.z_star for xt, bt in zip(x, b))

    def y_bx(self, y, b, x):
        """The pair labels the wrapped learner shows to the original one."""
        m = len(x)
        out = {}
        for a1, a2 in combinations(range(m), 2):
            if b[a1] == 0 and b[a2] == 0:
                out[(a1 + 1, a2 + 1)] = 0
            elif b[a1] == 0 and b[a2] == 1:
                out[(a1 + 1, a2 + 1)] = y[a2]
            elif b[a1] == 1 and b[a2] == 0:
                out[(a1 + 1, a2 + 1)] = y[a1]
            else:
                t = self.g(x[a1], x[a2])
                if t is None:
                    out[(a1 + 1, a2 + 1)] = 0
                else:
                    out[(a1 + 1, a2 + 1)] = y[(a1, a2)[t - 1]]
        return out

    def g_b_star(self, B, x_points):
        """(G_B)*: the pair labels of the graph with class set B."""
        m = len(x_points)
        return {
            (a1 + 1, a2 + 1): (
                1 if self.chi2(x_points[a1], x_points[a2]) in B else 0
            )
            for a1, a2 in combinations(range(m), 2)
        }

    def loss_prime(self, ell):
        """ell'(x, y, y') = (ell((z*, x), y, y') + ell((x, z*), y, y')) / 4
        with constant-pattern labels."""

        def fn(x, u, up):
            y = (u, u)
            yp = (up, up)
            left = {(1,): self.z_star, (2,): x, (1, 2): 0}
            right = {(1,): x, (2,): self.z_star, (1, 2): 0}
            return (Fraction(ell(left, y, yp)) + Fraction(ell(right, y, yp))) / 4

        return losses.LossFn(
            1,
            (0, 1),
            fn,
            name="pf-prime",
            sup_norm=(ell.sup_norm or Fraction(1)) / 2,
        )

    def mu_hat(self, mu_prime):
        """(delta_{z*} + mu') / 2 as a map vertex -> weight."""
        out = {self.z_star: Fraction(1, 2)}
        for v, w in mu_prime.items():
            out[v] = out.get(v, Fraction(0)) + Fraction(w) / 2
        return out


def partition_adversary(spec, z_star, d):
    """Build the adversary for a partition family: pick a shattered vertex
    set via the clean-subset search over the z*-classes of the first
    ramsey_rho(d) vertices other than z*."""
    chi = spec.chi
    n = spec.params["n"]
    vertices = [v for v in range(n) if v != z_star]
    rho = ramsey_rho(d)
    if len(vertices) < rho:
        raise ValueError("family too small for the requested dimension")
    pool = vertices[:rho]
    f1 = [chi(frozenset((z_star, v))) for v in pool]
    f2 = {
        frozenset((i, j)): chi(frozenset((pool[i], pool[j])))
        for i, j in combinations(range(rho), 2)
    }
    U = find_clean_subset(f1, f2, d)
    v_prime = tuple(pool[i] for i in U)
    return PartitionAdversary(chi, z_star, v_prime)
