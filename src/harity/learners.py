"""ERM learners, sample-complexity formulas, the derandomization wrapper,
uniform-convergence and concentration verifiers, and the rank-2 class learner.

A ``Learner`` maps a visible sample plus a randomness index ``b`` in
``[R(m)]`` to a hypothesis; ``R`` identically 1 means deterministic.  Sample
sizes are inferred from the sample itself, so learners compose without extra
plumbing.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb

from . import fastpath, indexing, losses, sampler
from .hypotheses import pattern


def nonpartite_size(x):
    return max(a[-1] for a in x)


def partite_size(x):
    return max(v for key in x for _, v in key)


@dataclass(frozen=True)
class Learner:
    k: int
    fn: object = field(compare=False)  # (x, y, b) -> Hypothesis
    r: object = field(compare=False)  # m -> randomness count
    partite: bool = False
    name: str = ""

    def __call__(self, x, y, b=0):
        m = partite_size(x) if self.partite else nonpartite_size(x)
        if not 0 <= b < self.r(m):
            raise ValueError("randomness index out of range")
        return self.fn(x, y, b)


# ---------------------------------------------------------------------------
# empirical risk minimization


def _erm(cls, ell, use_oracle, partite):
    """Exact empirical-loss argmin over the class, ties broken by the
    member order; structured classes may supply a closed-form oracle."""
    if cls.erm is None and not cls.explicit:
        raise ValueError("class has neither members nor an ERM oracle")

    def fn(x, y, b):
        m = partite_size(x) if partite else nonpartite_size(x)
        if use_oracle and cls.erm is not None:
            return cls.erm(x, y, m)
        if partite:
            empirical = losses.empirical_loss_partite
        else:
            empirical = losses.empirical_loss_nonpartite
        best = None
        for i, H in enumerate(cls.members):
            loss = empirical(x, y, ell, H, m)
            if best is None or loss < best[0]:
                best = (loss, i)
        return cls.members[best[1]]

    return Learner(cls.k, fn, lambda m: 1, partite=partite, name=f"erm({cls.name})")


def erm_nonpartite(cls, ell, use_oracle=True):
    return _erm(cls, ell, use_oracle, partite=False)


def erm_partite(cls, ell, use_oracle=True):
    return _erm(cls, ell, use_oracle, partite=True)


# ---------------------------------------------------------------------------
# uniform convergence

# leading constant of the uniform-convergence sample size; lies in
# (1.865, 1.866)
C_UC = math.sqrt(1 - math.log(math.log(2)) / math.log(2)) + 1 / (
    2 * math.sqrt(1 - 1 / math.e)
)


def loss_scale(sup_norm):
    """The effective loss bound: small sup norms are clamped from below."""
    return max(1 / (2 * math.sqrt(2) * C_UC), float(sup_norm))


def m_uc(vcn, k, L, sup_norm, eps, delta):
    """Sample size past which empirical losses are uniformly eps-close to
    total losses with probability 1 - delta, for a class of VCN_k dimension
    ``vcn`` over L labels."""
    eps, delta = float(eps), float(delta)
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps, delta must lie in (0, 1)")
    B = loss_scale(sup_norm)
    lead = 4 * C_UC**2 * k**4 * B * B / (delta**2 * eps**2)
    if vcn:
        if comb(L, 2) == 0:
            raise ValueError("positive dimension requires at least two labels")
        big = 8 * C_UC**2 * k**4 * B * B * vcn / (delta**2 * eps**2)
        inner = (
            (math.e / (math.e - 1)) * vcn * math.log(big)
            + math.log(2)
            + vcn * math.log(comb(L, 2))
        )
    else:
        # the "0 ln 0" terms vanish
        inner = math.log(2)
    return lead * inner + 0.5


@dataclass(frozen=True)
class UCReport:
    frequency: Fraction  # fraction of trials with sup-deviation <= eps
    trials: int
    erm_checked: int  # trials that were eps/2-representative
    erm_violations: int  # of those, ERM total loss > inf + eps (should be 0)


def _pair_context(sc, members, ell):
    """A PairContext when the scenario qualifies for the fast route."""
    if sc.partite or sc.mu2 is not None or ell.k != 2 or not ell.symmetric:
        return None
    for H in list(members) + [sc.F]:
        if getattr(H, "declared_rank", None) != 1:
            return None
    if ell.name != "01" and sc.mu.template.size(2) != 1:
        return None  # cannot certify configuration-independence cheaply
    return fastpath.PairContext(sc.mu, sc.F, ell)


def check_uniform_convergence(sc, cls, ell, m, eps, trials, seed):
    """Monte Carlo frequency of eps-representative samples, with exact total
    losses; also checks per trial that eps/2-representativeness forces the
    ERM's total loss within eps of the class infimum."""
    eps = Fraction(eps)
    members = list(cls.members)
    if sc.partite:
        totals = [losses.total_loss_partite(sc.mu, sc.F, ell, H) for H in members]
    elif sc.mu2 is not None:
        ag = losses.wrap_agnostic(ell)
        totals = [losses.total_loss_ag(sc.mu, sc.mu2, sc.F, ag, H) for H in members]
    else:
        totals = [losses.total_loss(sc.mu, sc.F, ell, H) for H in members]
    inf_total = min(totals)
    ctx = _pair_context(sc, members, ell)
    tables = [ctx.loss_table(H) for H in members] if ctx else None

    good = checked = violations = 0
    for t in range(trials):
        rng = sampler.stream(seed, t)
        if ctx is not None:
            u = ctx.draw_unary(rng, m)
            emps = [ctx.empirical(V, u) for V in tables]
        else:
            x, y = sampler.labeled_sample(sc, m, rng)
            if sc.partite:
                emps = [
                    losses.empirical_loss_partite(x, y, ell, H, m) for H in members
                ]
            else:
                emps = [
                    losses.empirical_loss_nonpartite(x, y, ell, H, m)
                    for H in members
                ]
        dev = max(abs(e - T) for e, T in zip(emps, totals))
        if dev <= eps:
            good += 1
        if 2 * dev <= eps:
            checked += 1
            erm_idx = min(range(len(members)), key=lambda i: (emps[i], i))
            if totals[erm_idx] > inf_total + eps:
                violations += 1
    return UCReport(Fraction(good, trials), trials, checked, violations)


# ---------------------------------------------------------------------------
# concentration


def concentration_constant(k, setting):
    return k * k if setting == "nonpartite" else k


def concentration_bound(eps, m, k, setting, sup_norm=1):
    """2 exp(-eps^2 m / (2 K sup^2)) with K = k^2 (non-partite) or k
    (partite)."""
    K = concentration_constant(k, setting)
    return 2 * math.exp(-float(eps) ** 2 * m / (2 * K * float(sup_norm) ** 2))


def check_concentration(sc, H, ell, m, eps, trials, seed):
    """Measured frequency of |empirical - total| >= eps for a fixed H."""
    eps = Fraction(eps)
    hits = 0
    if sc.partite:
        total = losses.total_loss_partite(sc.mu, sc.F, ell, H)
        ctx = (
            fastpath.TwoPartiteContext(sc.mu, sc.F, H, ell) if ell.k == 2 else None
        )
        for t in range(trials):
            rng = sampler.stream(seed, t)
            if ctx is not None:
                emp = ctx.empirical(*ctx.draw(rng, m))
            else:
                x, y = sampler.labeled_sample(sc, m, rng)
                emp = losses.empirical_loss_partite(x, y, ell, H, m)
            if abs(emp - total) >= eps:
                hits += 1
        return Fraction(hits, trials)
    total = losses.total_loss(sc.mu, sc.F, ell, H)
    ctx = _pair_context(sc, [H], ell)
    table = ctx.loss_table(H) if ctx else None
    for t in range(trials):
        rng = sampler.stream(seed, t)
        if ctx is not None:
            emp = ctx.empirical(table, ctx.draw_unary(rng, m))
        else:
            x, y = sampler.labeled_sample(sc, m, rng)
            emp = losses.empirical_loss_nonpartite(x, y, ell, H, m)
        if abs(emp - total) >= eps:
            hits += 1
    return Fraction(hits, trials)


# ---------------------------------------------------------------------------
# derandomization


def xi(eps, delta):
    """The discretized accuracy min{1/ceil(2/eps), 1/ceil(2/delta)}."""
    eps, delta = Fraction(eps), Fraction(delta)
    return min(Fraction(1, math.ceil(2 / eps)), Fraction(1, math.ceil(2 / delta)))


def derandomized_sample_size(m_rand, r, k, setting, sup_norm, eps, delta):
    """Sample size of the derandomized learner: run the randomized learner at
    accuracy xi on a prefix, then select on a holdout sized by the
    concentration bound and the randomness count."""
    x = xi(eps, delta)
    M = math.ceil(m_rand(x, x))
    K = concentration_constant(k, setting)
    extra = math.ceil(
        2 * K * float(sup_norm) ** 2 / float(x) ** 2 * math.log(2 * r(M) / float(x))
    )
    return M + extra


def derandomized_sample_size_simple(m_rand, r, k, setting, sup_norm, eps):
    """The eps = delta special case in its standalone displayed form."""
    t = math.ceil(2 / Fraction(eps))
    M = math.ceil(m_rand(Fraction(1, t), Fraction(1, t)))
    K = concentration_constant(k, setting)
    return M + math.ceil(
        2 * K * float(sup_norm) ** 2 * t * t * math.log(2 * t * r(M))
    )


def split_for(m, m_rand, r, k, setting, sup_norm=1, s_cap=10**6, r_cap=2**20):
    """Largest s (with its prefix size m1) such that
    m1(s) + ceil(8 K sup^2 s^2 ln(4 s R(m1))) <= m; None when even s = 1
    fails.  Scans upward and stops at the first failure; R(m1) is capped."""
    K = concentration_constant(k, setting)
    best = None
    s = 1
    while s <= s_cap:
        m1 = math.ceil(m_rand(Fraction(1, 2 * s), Fraction(1, 2 * s)))
        rv = r(m1)
        if rv > r_cap:
            raise ValueError("randomness count exceeds the experiment cap")
        need = m1 + math.ceil(
            8 * K * float(sup_norm) ** 2 * s * s * math.log(4 * s * rv)
        )
        if need <= m:
            best = (s, m1)
            s += 1
        else:
            break
    return best


def _split_nonpartite(x, y, m1, m, k):
    iota1 = tuple(range(1, m1 + 1))
    iota2 = tuple(range(m1 + 1, m + 1))
    x1 = indexing.pullback(iota1, x)
    y1 = {beta: y[beta] for beta in indexing.injections(m1, k)}
    x2 = indexing.pullback(iota2, x)
    y2 = {
        beta: y[indexing.compose(iota2, beta)]
        for beta in indexing.injections(m - m1, k)
    }
    return x1, y1, x2, y2


def _split_partite(x, y, m1, m, k):
    def restrict(lo, hi):
        out = {}
        for key, v in x.items():
            if all(lo < j <= hi for _, j in key):
                out[tuple((p, j - lo) for p, j in key)] = v
        return out

    x1 = restrict(0, m1)
    x2 = restrict(m1, m)
    y1 = {a: y[a] for a in product(range(1, m1 + 1), repeat=k)}
    y2 = {
        a: y[tuple(j + m1 for j in a)]
        for a in product(range(1, m - m1 + 1), repeat=k)
    }
    return x1, y1, x2, y2


def derandomize(
    A,
    m_rand,
    ell,
    fallback,
    sup_norm=None,
    empirical_eval=None,
    s_cap=10**6,
    r_cap=2**20,
):
    """Deterministic wrapper: split the sample, run A on the prefix under
    every randomness index, and return the candidate with the smallest
    empirical loss on the holdout (smallest index on ties).  Degenerate sizes
    fall back to a fixed hypothesis.

    ``empirical_eval(H, x, y, lo, hi)``, when given, evaluates a candidate on
    the point range (lo, hi] without materializing the holdout sample.
    """
    sup = float(ell.sup_norm if sup_norm is None else sup_norm)

    def fn(x, y, b):
        m = partite_size(x) if A.partite else nonpartite_size(x)
        setting = "partite" if A.partite else "nonpartite"
        sp = split_for(m, m_rand, A.r, A.k, setting, sup, s_cap, r_cap)
        if sp is None:
            return fallback
        _, m1 = sp
        split = _split_partite if A.partite else _split_nonpartite
        if empirical_eval is not None:
            # the caller evaluates on the point range directly, so the
            # holdout sample never needs to be materialized
            x1, y1, _, _ = split(x, y, m1, m1, A.k)
        else:
            x1, y1, x2, y2 = split(x, y, m1, m, A.k)
        best = None
        for bb in range(A.r(m1)):
            H = A(x1, y1, bb)
            if empirical_eval is not None:
                loss = empirical_eval(H, x, y, m1, m)
            elif A.partite:
                loss = losses.empirical_loss_partite(x2, y2, ell, H, m - m1)
            else:
                loss = losses.empirical_loss_nonpartite(x2, y2, ell, H, m - m1)
            if best is None or (loss, bb) < (best[0], best[1]):
                best = (loss, bb, H)
        return best[2]

    return Learner(
        A.k, fn, lambda m: 1, partite=A.partite, name=f"derand({A.name})"
    )


# ---------------------------------------------------------------------------
# the rank-2 class learner


def infvcn_m_pac(eps, delta, sup_norm=1):
    """Sample size for learning the diagonal rank-2 class."""
    eps, delta = float(eps), float(delta)
    B = max(float(sup_norm), 1.0)
    dprime = 1 - math.sqrt(1 - delta)
    mprime = math.sqrt(
        math.log(2 * B / (eps * dprime)) / math.log(2 * B / (2 * B - eps))
    )
    ln = math.log(2 * B / (dprime * eps))
    return (2 * B / eps) * (mprime + ln + math.sqrt(2 * mprime * ln + ln * ln))


def infvcn_learner(n_max):
    """The diagonal rank-2 class at truncation n_max with its closed-form ERM
    and sample-size function."""
    from . import families

    spec = families.highorder_family(n_max)
    ell = losses.zero_one_loss((0, 1), 2, setting="partite")
    A = erm_partite(spec.cls, ell)
    return spec.cls, A, infvcn_m_pac


# ---------------------------------------------------------------------------
# PAC success estimation


def estimate_pac_success(
    A, sc, ell, m, eps, trials, seed, agnostic=False, inf_loss=None, cls=None
):
    """Monte Carlo frequency of trials whose learned hypothesis has total
    loss <= eps (non-agnostic) or <= inf + eps (agnostic, exact infimum)."""
    eps = Fraction(eps)
    if agnostic and inf_loss is None:
        ag = losses.wrap_agnostic(ell)
        inf_loss = losses.class_infimum_ag(cls, sc.mu, sc.mu2, sc.F, ag)
    target = eps + (inf_loss if agnostic else 0)
    wins = 0
    for t in range(trials):
        rng = sampler.stream(seed, t)
        x, y = sampler.labeled_sample(sc, m, rng)
        b = rng.randrange(A.r(m))
        H = A(x, y, b)
        if sc.partite:
            if sc.mu2 is None:
                L = losses.total_loss_partite(sc.mu, sc.F, ell, H)
            else:
                ag = losses.wrap_agnostic(ell)
                L = losses.total_loss_partite_ag(sc.mu, sc.mu2, sc.F, ag, H)
        elif sc.mu2 is None:
            L = losses.total_loss(sc.mu, sc.F, ell, H)
        else:
            ag = losses.wrap_agnostic(ell)
            L = losses.total_loss_ag(sc.mu, sc.mu2, sc.F, ag, H)
        if L <= target:
            wins += 1
    return Fraction(wins, trials)
