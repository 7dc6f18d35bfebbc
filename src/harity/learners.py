"""ERM learners, sample-complexity formulas, the derandomization wrapper,
uniform-convergence and concentration verifiers, and the rank-2 class learner.

A ``Learner`` maps a visible sample plus a randomness index ``b`` in
``[R(m)]`` to a hypothesis; ``R`` identically 1 means deterministic.  A
learner carries no setting flag: sample sizes and the setting are read from
the sample's keys, and ``erm`` reads the class's template, so learners compose
without extra plumbing.  The concentration constant K, and with it every
derandomization size, is read from a template (``concentration_constant``).

Every Monte Carlo check reads each hypothesis's exact total from one plan of
its law (``_plan``); the uniform-convergence and concentration checks take
their members' totals and per-trial empirical losses from the one route
chooser ``_trial_losses``, whose fast-route tables are the same plan rows.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb

from . import fastpath, indexing, losses, sampler


def sample_size(x):
    """The number of points of a sample (per part, in the partite setting)."""
    if indexing.partite_keys(x):
        return max(v for key in x for _, v in key)
    return max(a[-1] for a in x)


@dataclass(frozen=True)
class Learner:
    k: int
    fn: object = field(compare=False)  # (x, y, b) -> Hypothesis
    r: object = field(compare=False)  # m -> randomness count
    name: str = ""

    def __call__(self, x, y, b=0):
        if not 0 <= b < self.r(sample_size(x)):
            raise ValueError("randomness index out of range")
        return self.fn(x, y, b)


# ---------------------------------------------------------------------------
# empirical risk minimization


def erm(cls, ell):
    """Exact empirical-loss argmin over the class, in the setting of its
    template, ties broken by the member order, or the class's ERM oracle when
    it carries one.  A class with no members raises ValueError."""
    if not cls.members:
        raise ValueError("class has no members")

    def fn(x, y, b):
        if cls.erm is not None:
            return cls.erm(x, y)
        m = sample_size(x)
        best = None
        for i, H in enumerate(cls.members):
            loss = losses.empirical_loss(x, y, ell, H, m)
            if best is None or loss < best[0]:
                best = (loss, i)
        return cls.members[best[1]]

    return Learner(cls.k, fn, lambda m: 1, name=f"erm({cls.name})")


# the old per-setting names, kept because perfbench's workloads call them
erm_nonpartite = erm_partite = erm


# ---------------------------------------------------------------------------
# exact totals and per-trial empirical losses, shared by every Monte Carlo
# check


def _plan(sc, ell):
    """The check's ``losses.plan``, with the natural agnostic loss given mu'."""
    ag = sc.mu2 is not None
    return losses.plan(sc.mu, sc.F, losses.wrap_agnostic(ell) if ag else ell, sc.mu2)


def _trial_losses(sc, members, ell):
    """Each member's exact total and the one per-trial route: (rng, m) -> the
    empirical loss of each member on the size-m sample drawn from rng.  Both
    read one plan, which reads each member once per atom.

    A non-agnostic k = 2 scenario builds a fastpath context (TwoPartiteContext
    when 2-partite, PairContext otherwise) only when every member's plan row
    qualifies as its table (``fastpath.tables``); the context then counts the
    sample once per trial and reads each table against the counts.  Otherwise
    the trial draws the generic labeled sample.  Each route reads the stream
    as the generic one does, so all give bit-identical losses.
    """
    row, weigh = _plan(sc, ell)
    rows = [row(H) for H in members]
    totals = [weigh(r) for r in rows]
    tables = sc.mu2 is None and ell.k == 2 and fastpath.tables(sc.mu, rows)
    if tables and None not in tables:
        context = fastpath.TwoPartiteContext if sc.partite else fastpath.PairContext
        ctx = context(sc.mu, sc.F, ell)

        def fast(rng, m):
            counts = ctx.draw(rng, m)
            return [ctx.empirical(V, counts) for V in tables]

        return totals, fast

    def generic(rng, m):
        x, y = sampler.labeled_sample(sc, m, rng)
        return [losses.empirical_loss(x, y, ell, H, m) for H in members]

    return totals, generic


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


def check_uniform_convergence(sc, cls, ell, m, eps, trials, seed):
    """Monte Carlo frequency of eps-representative samples, with exact total
    losses; also checks per trial that eps/2-representativeness forces the
    ERM's total loss within eps of the class infimum."""
    eps = Fraction(eps)
    members = list(cls.members)
    totals, trial = _trial_losses(sc, members, ell)
    inf_total = min(totals)

    good = checked = violations = 0
    for t in range(trials):
        emps = trial(sampler.stream(seed, t), m)
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


def concentration_constant(k, template):
    """K = k times the template's arity-k domain size in vertices: k^2 for a
    plain template, k for a partite one (one vertex per part)."""
    return k * template.domain(k)[0]


def concentration_bound(eps, m, k, template, sup_norm=1):
    """2 exp(-eps^2 m / (2 K sup^2)) with K = k^2 (non-partite) or k
    (partite)."""
    K = concentration_constant(k, template)
    return 2 * math.exp(-float(eps) ** 2 * m / (2 * K * float(sup_norm) ** 2))


def check_concentration(sc, H, ell, m, eps, trials, seed):
    """Measured frequency of |empirical - total| >= eps for a fixed H."""
    eps = Fraction(eps)
    (total,), trial = _trial_losses(sc, [H], ell)
    hits = 0
    for t in range(trials):
        (emp,) = trial(sampler.stream(seed, t), m)
        if abs(emp - total) >= eps:
            hits += 1
    return Fraction(hits, trials)


# ---------------------------------------------------------------------------
# derandomization


def xi(eps, delta):
    """The discretized accuracy min{1/ceil(2/eps), 1/ceil(2/delta)}."""
    eps, delta = Fraction(eps), Fraction(delta)
    return min(Fraction(1, math.ceil(2 / eps)), Fraction(1, math.ceil(2 / delta)))


def derandomized_sample_size(m_rand, r, k, template, sup_norm, eps, delta):
    """Sample size of the derandomized learner: run the randomized learner at
    accuracy xi on a prefix, then select on a holdout sized by the
    concentration bound and the randomness count."""
    x = xi(eps, delta)
    M = math.ceil(m_rand(x, x))
    K = concentration_constant(k, template)
    extra = math.ceil(
        2 * K * float(sup_norm) ** 2 / float(x) ** 2 * math.log(2 * r(M) / float(x))
    )
    return M + extra


def derandomized_sample_size_simple(m_rand, r, k, template, sup_norm, eps):
    """The eps = delta special case in its standalone displayed form."""
    t = math.ceil(2 / Fraction(eps))
    M = math.ceil(m_rand(Fraction(1, t), Fraction(1, t)))
    K = concentration_constant(k, template)
    return M + math.ceil(
        2 * K * float(sup_norm) ** 2 * t * t * math.log(2 * t * r(M))
    )


# split_for scans s up to SPLIT_S_CAP and refuses R(m1) above RANDOMNESS_CAP
SPLIT_S_CAP = 10**6
RANDOMNESS_CAP = 2**20


def split_for(m, m_rand, r, k, template, sup_norm=1):
    """Largest s (with its prefix size m1) such that
    m1(s) + ceil(8 K sup^2 s^2 ln(4 s R(m1))) <= m; None when even s = 1
    fails.  Scans upward and stops at the first failure; R(m1) is capped."""
    K = concentration_constant(k, template)
    best = None
    s = 1
    while s <= SPLIT_S_CAP:
        m1 = math.ceil(m_rand(Fraction(1, 2 * s), Fraction(1, 2 * s)))
        rv = r(m1)
        if rv > RANDOMNESS_CAP:
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


def _split(x, y, m1, m, k):
    """The prefix sample on points 1..m1 and the holdout on points m1+1..m,
    each renumbered from 1, in x's setting.  Labels are read by index only,
    so ``y`` may be any lookup (e.g. ``fastpath.LazyPairLabels``)."""
    partite = indexing.partite_keys(x)

    def part(lo, hi):
        if partite:
            xs = {
                tuple((p, j - lo) for p, j in key): v
                for key, v in x.items()
                if all(lo < j <= hi for _, j in key)
            }
            index = product(range(1, hi - lo + 1), repeat=k)
        else:
            xs = indexing.pullback(tuple(range(lo + 1, hi + 1)), x)
            index = indexing.injections(hi - lo, k)
        return xs, {a: y[tuple(j + lo for j in a)] for a in index}

    return (*part(0, m1), *part(m1, m))


def derandomize(A, m_rand, ell, fallback, empirical_eval=None):
    """Deterministic wrapper: split the sample, run A on the prefix under
    every randomness index, and return the candidate with the smallest
    empirical loss on the holdout (smallest index on ties); the split is
    sized by the loss's sup norm and the concentration constant of the
    fallback's template.  Degenerate sizes fall back to that fixed
    hypothesis.

    ``empirical_eval(H, x, y, lo, hi)``, when given, evaluates a candidate on
    the point range (lo, hi] without materializing the holdout sample.
    """
    sup = float(ell.sup_norm)

    def fn(x, y, b):
        m = sample_size(x)
        sp = split_for(m, m_rand, A.r, A.k, fallback.template, sup)
        if sp is None:
            return fallback
        _, m1 = sp
        # empirical_eval reads the point range directly, so the holdout
        # sample is then never materialized
        holdout_end = m1 if empirical_eval is not None else m
        x1, y1, x2, y2 = _split(x, y, m1, holdout_end, A.k)
        best = None
        for bb in range(A.r(m1)):
            H = A(x1, y1, bb)
            if empirical_eval is not None:
                loss = empirical_eval(H, x, y, m1, m)
            else:
                loss = losses.empirical_loss(x2, y2, ell, H, m - m1)
            if best is None or (loss, bb) < (best[0], best[1]):
                best = (loss, bb, H)
        return best[2]

    return Learner(A.k, fn, lambda m: 1, name=f"derand({A.name})")


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
    ell = losses.zero_one_loss((0, 1), 2)
    A = erm(spec.cls, ell)
    return spec.cls, A, infvcn_m_pac


# ---------------------------------------------------------------------------
# PAC success estimation


def estimate_pac_success(A, sc, ell, m, eps, trials, seed, cls=None):
    """Monte Carlo frequency of trials whose learned hypothesis has total
    loss <= eps or, given ``cls``, <= inf + eps (agnostic, exact infimum over
    ``cls``)."""
    (row, weigh), target = _plan(sc, ell), Fraction(eps)
    if cls is not None:
        target += min(weigh(row(H)) for H in cls)
    wins = 0
    for t in range(trials):
        rng = sampler.stream(seed, t)
        x, y = sampler.labeled_sample(sc, m, rng)
        H = A(x, y, rng.randrange(A.r(m)))
        if weigh(row(H)) <= target:
            wins += 1
    return Fraction(wins, trials)
