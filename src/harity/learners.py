"""The one ERM, sample-complexity formulas, the derandomization wrapper,
uniform-convergence and concentration verifiers, and the rank-2 class learner.

A ``Learner`` maps a visible sample plus a randomness index ``b`` in
``[R(m)]`` to a hypothesis; ``R`` identically 1 means deterministic.  A
deterministic learner may have a block form, which learns every row of a
reader block in one pass; ``erm`` (and the no-free-lunch ERM) is written
only as a block form, a sample being a one-row block read through
``sampler.values`` (``block_learner``).  A learner carries no setting flag: an
array sample knows its size, and a dict's is read from its keys.  The
concentration constant K, and with it every derandomization size, is read
from a template (``concentration_constant``).

Exact totals are read off the law's plan, whose mu-only part
(``losses.law_plan``) the measures cache.  The checks count a block of
trials' units by law atom in one pass (in a fastpath context, or
``sampler._atom_counts``) times the members' integer plan rows, which pick
the route (``_trial_losses``), and meet the exact totals over one
denominator (``_deviations``).  ``pac_successes`` draws all trials of
scenarios that vary only F in one reader pass, handing each block to a
deterministic learner's block form, and scores them in another: each
hypothesis is read once, each total an integer gather of loss cells.
No check or sweep draws a dict sample or builds a ``Fraction`` per trial.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import chain, product, repeat
from math import comb, lcm
from numbers import Rational
from operator import itemgetter

import numpy as np

from . import fastpath, hypotheses, indexing, losses, sampler, templates


def sample_size(x):
    """The number of points of a sample (per part, in the partite setting);
    0 for the empty sample.  An array sample knows it; a dict is read from
    its keys."""
    if type(x) is sampler.ArraySample:
        return x.m
    if indexing.partite_keys(x):
        return max(map(itemgetter(1), chain.from_iterable(x)))
    return max(map(itemgetter(-1), x), default=0)


@dataclass(frozen=True)
class Learner:
    """(x, y, b) -> H, b in [R(m)]; a deterministic learner may add a block form."""
    k: int
    fn: object = field(compare=False)  # (x, y, b) -> Hypothesis
    r: object = field(compare=False)  # m -> randomness count
    name: str = ""
    block: object = field(default=None, compare=False)  # (m, xs, ys, alphabet) -> H per row

    def __call__(self, x, y, b=0):
        if not 0 <= b < self.r(sample_size(x)):
            raise ValueError("randomness index out of range")
        return self.fn(x, y, b)


def block_learner(block, t, k, labels, name):
    """A learner written once, as its block form: a sample is a one-row block."""

    def fn(x, y, b):
        units = sampler._units(t, k, m := sample_size(x))
        xs, ys = sampler.values(x, units.coords), sampler.values(y, units.keys, labels)
        return block(m, xs[None], ys[None], labels)[0]

    return Learner(k, fn, lambda m: 1, name, block)


# ---------------------------------------------------------------------------
# empirical risk minimization


def _distinct(a):
    """(a's distinct values, sorted, each entry's position among them):
    ``np.unique(a, return_inverse=True)`` without its fixed cost."""
    d = np.sort(a, axis=None)
    d = d[np.concatenate(([True], d[1:] != d[:-1]))]
    return d, d.searchsorted(a)


def _exact_product(counts, V, bound):
    """counts @ V exactly, given a bound on every |sum| (the largest |V| times
    the counts' sum): in V's dtype while it is below 2^63, else in Python
    numbers."""
    return counts @ (V if bound < 2**63 else V.astype(object))


def erm(cls, ell):
    """The exact empirical-loss argmin over the class, ties to member order, as
    a ``block_learner``.  A unit u's loss depends only on its key: the table
    column of u*(x) and y's labels over u's orbit (``sampler.renumber`` carries
    y's ids to ell's labels).  So each row's key counts (one sort and one
    bincount per block) times a cached loss column per key (one ``ell`` call
    per distinct table row over the orbit, no member call) give every member's
    total, exactly (``_exact_product``, over float64 columns while the losses are
    integers and the sums below 2^53; a float loss raises TypeError).  A row
    without units gives member 0."""
    if not cls.members:
        raise ValueError("class has no members")
    t, k, labels = cls.template, cls.k, ell.labels
    place, dom = templates.places(t, k), templates.domain_points(t, k)
    ids = t.domain(k)[1]
    # a unit's key in mixed radix: its point's column, then y's labels on its orbit
    digits, slots, top = [len(dom), *[len(labels)] * len(ids)], range(len(ids)), 0
    if math.prod(digits) > 2**63:
        raise ValueError("the class's unit keys overflow int64")
    radix = np.cumprod([1, *digits[:0:-1]])[::-1]
    wx = np.array([place[a] for a in t.coords(t.domain(k)[0])]) * radix[0]

    @cache
    def column(key):
        nonlocal top  # the largest |loss| any column holds, inf past a non-integer
        c, *ys = (key // radix) % digits
        cells = [sum(place[a] * v for a, v in t.pull(s, dom[c]).items()) for s in ids]
        rows, index = hypotheses.distinct_rows(cls.table[:, cells])
        hs = [t.read(lambda j: cls.labels[r[j]], slots) for r in rows.tolist()]
        y = t.read(lambda j: labels[ys[j]], slots)
        values = [ell(dom[c], h, y) for h in hs]
        if not all(isinstance(v, Rational) for v in values):
            raise TypeError("ERM sums loss values exactly: ints or Fractions only")
        top = max(top, *(abs(v) if v.denominator == 1 else math.inf for v in values))
        exact = np.array(values, None if top < 2**63 else object)[index]
        return exact, exact.astype(float)

    def block(m, xs, ys, alphabet):
        units = sampler._units(t, k, m)
        if not len(units.at):
            return [cls.members[0]] * len(xs)
        y = np.take(sampler.renumber(ys, alphabet, labels), units.order, axis=1)
        keys = np.take(xs, units.at, axis=1) @ wx + y @ radix[1:]
        distinct, index = _distinct(keys)
        exact, floats = zip(*map(column, distinct.tolist()))
        counts = sampler._row_counts(index, len(distinct))
        bound = top * len(units.at)  # below 2^53 each partial sum is an exact float
        sums = _exact_product(counts, np.array(floats if bound < 2**53 else exact), bound)
        return list(map(cls.members.__getitem__, sums.argmin(axis=1).tolist()))

    return block_learner(block, t, k, labels, f"erm({cls.name})")


# the old per-setting names, kept because perfbench's workloads call them
erm_nonpartite = erm_partite = erm


# ---------------------------------------------------------------------------
# exact totals and blocks of trials' empirical losses, shared by every
# Monte Carlo check


def _trial_losses(sc, members, ell):
    """Each member's exact total and the block reader: (rngs, m) -> per block
    of rngs, (sums, den), where sums[t, i] / den is member i's empirical loss
    on the size-m sample drawn from the block's t-th rng.  Both read one plan,
    which reads each member once per atom.

    A unit's loss depends only on the law atom its point (joined with x' given
    mu') is, so every route counts each block's units by atom, one trials x
    atoms matrix, and ``_exact_product`` of the counts and the members' plan
    rows, as integer numerators over one denominator D, gives the sums.  A
    non-agnostic k = 2 scenario counts in a fastpath context
    (TwoPartiteContext when 2-partite, PairContext otherwise) when the
    members' integer rows qualify (``fastpath.qualifies``); otherwise
    ``sampler._atom_counts`` counts the units by their atom codes.  Each
    route reads the streams as ``sampler.labeled_sample`` does, so all give
    bit-identical losses.
    """
    law = losses.law_plan(sc.mu, ell.k, sc.mu2)
    row, weigh = losses.plan(law, sc.F, losses.wrap_agnostic(ell) if sc.mu2 else ell)
    rows = [row(H) for H in members]
    totals = [weigh(r) for r in rows]
    D, nums = losses.numerators(chain.from_iterable(rows))
    top = max(map(abs, nums), default=0)
    V = np.array(nums, np.int64 if top < 2**63 else object).reshape(len(rows), -1).T
    if sc.mu2 is None and ell.k == 2 and fastpath.qualifies(sc.mu, V):
        context = fastpath.TwoPartiteContext if sc.partite else fastpath.PairContext
        counts = context(sc.mu, sc.F, ell).counts
    else:
        counts = partial(sampler._atom_counts, sc, ell.k)

    def read(rngs, m):
        for c, units in counts(rngs, m):
            yield _exact_product(c, V, top * units), D * units

    return totals, read


def _deviations(read, totals, m, eps, trials, seed):
    """Per block of the trials' streams (``sampler.stream(seed, t)``): the
    members' integer sums, each |empirical - total| and eps, all as integers
    over one common denominator; int64 while their bound is below 2^63, else
    Python ints."""
    for sums, den in read(map(sampler.stream, repeat(seed), range(trials)), m):
        L = lcm(den, eps.denominator, *(T.denominator for T in totals))
        scale, bar = L // den, eps.numerator * (L // eps.denominator)
        exact = [T.numerator * (L // T.denominator) for T in totals]
        top = max(abs(int(sums.max())), abs(int(sums.min()))) * scale
        top += max(map(abs, exact))
        dtype = np.int64 if max(2 * top, abs(bar), scale) < 2**63 else object
        yield sums, abs(sums.astype(dtype) * scale - np.array(exact, dtype)), bar


def _refuse_no_trials(trials):
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


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


def check_uniform_convergence(sc, cls, ell, m, eps, trials, seed, trial_losses=None):
    """Monte Carlo frequency of eps-representative samples, with exact total
    losses; also checks per trial that eps/2-representativeness forces the
    ERM's total loss within eps of the class infimum.  ``trial_losses``,
    ``_trial_losses(sc, cls.members, ell)``, lets a caller that sweeps m
    read the members' rows once; it is built here when None.  A trial's ERM
    is the first member of least empirical loss."""
    _refuse_no_trials(trials)
    eps = Fraction(eps)
    totals, read = trial_losses or _trial_losses(sc, list(cls.members), ell)
    inf_total = min(totals)
    fails = np.array([T > inf_total + eps for T in totals])

    good = checked = violations = 0
    for sums, dev, bar in _deviations(read, totals, m, eps, trials, seed):
        worst = dev.max(axis=1)
        good += int((worst <= bar).sum())
        representative = 2 * worst <= bar
        checked += int(representative.sum())
        violations += int(fails[sums[representative].argmin(axis=1)].sum())
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
    _refuse_no_trials(trials)
    eps = Fraction(eps)
    (total,), read = _trial_losses(sc, [H], ell)
    blocks = _deviations(read, [total], m, eps, trials, seed)
    return Fraction(sum(int((dev >= bar).sum()) for _, dev, bar in blocks), trials)


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
        if not lo:  # the prefix keeps its keys
            return xs, {a: y[a] for a in index}
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
    """The diagonal rank-2 class at truncation n_max, its 0/1-loss ``erm`` and
    its sample-size function."""
    from . import families

    cls = families.highorder_family(n_max).cls
    return cls, erm(cls, losses.zero_one_loss(cls.labels, 2)), infvcn_m_pac


# ---------------------------------------------------------------------------
# PAC success estimation


def pac_successes(A, scenarios, ell, m, eps, trials, seeds, cls=None):
    """Each scenario's frequency of trials whose learned hypothesis has total
    loss <= eps or, given ``cls``, <= inf + eps (agnostic, exact infimum over
    ``cls``), scenario i's trials reading ``sampler.stream(seeds[i], t)``.  The
    scenarios share mu and mu' and vary only F.  One reader pass draws every
    trial and calls A (the index drawn from its stream, or 0 with one index);
    one pass scores them.  Each object (by identity) is read once per point, F
    at the law's joined points and H at its distinct x, then gathered over the
    orbits; a total is an integer gather of weights times loss cells keyed by
    (x, H's labels, F's at the joined point: the natural agnostic loss given
    mu'), one ``ell`` call per cell.  Refused before any stream is read: no
    scenario, seeds not one each, mu or mu' not shared, trials < 1, empty cls."""
    _refuse_no_trials(trials)
    if not scenarios or len(seeds) != len(scenarios):
        raise ValueError(f"need scenarios, one seed each: {len(seeds)} for {len(scenarios)}")
    if any((sc.mu, sc.mu2) != (scenarios[0].mu, scenarios[0].mu2) for sc in scenarios):
        raise ValueError("the scenarios must share mu and mu'")
    if cls is not None and not (cls := list(cls)):
        raise ValueError("cls has no members, so no infimum")
    law = losses.law_plan(scenarios[0].mu, ell.k, scenarios[0].mu2)
    t, Z, _, _, (W, weights), (at, X), (ids, xids) = law
    read = {}  # (id(G), id(points)) -> (G, its labels there); holding G keeps its id

    def labels(G, points):
        if (key := (id(G), id(points))) not in read:
            read[key] = G, list(map(G, points))
        return read[key][1]

    fs, pulls = [labels(sc.F, Z) for sc in scenarios], ids.ravel().tolist()
    if ids.shape[1] > 1:  # each atom's orbit, gathered; a one-point orbit is the atom
        fs = [list(map(f.__getitem__, pulls)) for f in fs]
    draw = sampler._labeled_reader(scenarios[0], ell.k, ell.labels, *fs)
    got, T, r, eps = {}, len(scenarios), A.r(m), Fraction(eps)  # id(H) -> (row, H)
    index = lambda H: got.setdefault(id(H), (len(got), H))[0]  # noqa: E731
    rngs = chain.from_iterable(map(sampler.stream, repeat(z), range(trials)) for z in seeds)
    targets = np.repeat(np.arange(T), trials)
    if A.block is not None and r == 1:
        blocks = draw.blocks(rngs, m, targets)
        picks = [index(H) for xs, ys in blocks for H in A.block(m, xs, ys, draw.alphabet)]
    else:
        reader = draw(rngs, m, targets, r != 1)
        picks = [index(A(x, y, rng.randrange(r) if r != 1 else 0)) for rng, x, y in reader]
    # the scoring pass: a target's rows are its trials' H, then cls's members
    inf = [index(H) for H in cls or ()]
    rows = np.array([picks[i : i + trials] + inf for i in range(0, len(picks), trials)])
    code = {a: i for i, a in enumerate(draw.alphabet)}
    hs = [[code.setdefault(a, len(code)) for a in labels(H, X)] for _, H in got.values()]
    L, P, alphabet = len(code), len(code) ** (s := ids.shape[1]), tuple(code)
    if len(X) * P * P >= 2**63:
        raise ValueError("the loss cells' keys overflow int64")
    # a cell's key: x, H's labels over its orbit, F's over the atom's; radix L
    hk = np.array(hs)[:, xids] @ L ** np.arange(s) * P
    fk = (draw.ids @ L ** np.arange(s)).reshape(T, -1) + at * (P * P)
    keys = hk[rows][..., at] + fk[:, None]
    cells, cell = _distinct(keys)
    x, hc, fc = (v.tolist() for v in (cells // (P * P), *np.divmod(cells % (P * P), P)))
    pattern = {c: t.read(lambda j: alphabet[c // L**j % L], range(s)) for c in {*hc, *fc}}
    reads = map(ell, map(X.__getitem__, x), map(pattern.get, hc), map(pattern.get, fc))
    D, nums = losses.numerators(reads)
    # a total S is over W D: S <= (eps + inf) W D iff S - min S <= eps W D, floored
    bar, top = eps.numerator * W * D // eps.denominator, max(map(abs, nums)) * W
    V = np.array(nums, np.int64 if top + abs(bar) < 2**63 else object)
    sums = V[cell] @ weights
    bar = bar + (sums[:, trials:].min(axis=1, keepdims=True) if inf else 0)
    return [Fraction(w, trials) for w in (sums[:, :trials] <= bar).sum(axis=1).tolist()]


def estimate_pac_success(A, sc, ell, m, eps, trials, seed, cls=None):
    """``pac_successes`` on one scenario and its seed."""
    return pac_successes(A, [sc], ell, m, eps, trials, [seed], cls)[0]
