"""The partite <-> non-partite bridge.

Partization: the diagonal maps phi_m / Phi_m and the learner conversion from
partite back to non-partite.  Departization: the randomized conversion of a
partite sample into a non-partite one over a tagged ground space, with exact
law oracles for tiny instances.  Plus finite disintegration, neutral-symbol
and flexibility compositions, dummy-variable stripping, and codomain
extension.

Composite randomness uses a fixed mixed-radix encoding, most significant
first: (b, b_noise, sigma in factorial base, U per coordinate, U' per
coordinate); coordinates enumerate in the canonical size-then-lex order.

One per-atom plan (``_plan``) decides which labels survive departization.
``departize_sample`` and both exact laws apply it, and the laws decode every
randomness index exactly as the departized learner does, once per (m, k).
Both laws take one route: mu (x) mu' is enumerated once in integer masses
(``exact_read``), F is read once per joined point of the domain law
(``exact_domain``), and every plan's reads of every atom are summed in one
integer pass.  The per-atom dict loops stay in the tests as the reference.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, prod

import numpy as np

from . import indexing, learners, losses, sampler, templates
from .hypotheses import (
    Hypothesis,
    HypothesisClass,
    distinct_rows,
    partize_hypothesis,
    perms,
    unpartize_hypothesis,
)
from .indexing import decode_mixed

BOTTOM = losses.BOTTOM

GRID_CELLS = 2**18  # a departization law gathers at most this many cells at once


# ---------------------------------------------------------------------------
# partization maps


def phi_m(x, m, k):
    """Fold a non-partite config over [m] into a partite one with floor(m/k)
    vertices per part: coordinate f reads x at {(i-1)*floor(m/k) + f(i)}."""
    q = m // k
    if q < 1:
        raise ValueError("m must be at least k")
    out = {}
    for f in indexing.part_indices(k, q):
        subset = tuple(sorted((i - 1) * q + v for i, v in f))
        out[f] = x[subset]
    return out


def phi_m_labels(y, m, k):
    """Phi_m: fold an injection-indexed label tensor into a partite tensor of
    full patterns."""
    q = m // k
    if q < 1:
        raise ValueError("m must be at least k")
    ps = perms(k)
    out = {}
    for alpha in product(range(1, q + 1), repeat=k):
        beta = tuple((i - 1) * q + alpha[i - 1] for i in range(1, k + 1))
        out[alpha] = tuple(y[indexing.compose(beta, tau)] for tau in ps)
    return out


def nonpartite_from_partite_learner(A2, template, labels):
    """Wrap a partite learner into a non-partite one by folding the sample
    through phi_m / Phi_m and unfolding the output hypothesis."""
    k = A2.k

    def fn(x, y, b):
        m = learners.sample_size(x)
        G = A2(phi_m(x, m, k), phi_m_labels(y, m, k), b)
        return unpartize_hypothesis(G, template, labels)

    return learners.Learner(
        k,
        fn,
        lambda m: A2.r(m // k),
        name=f"unpartized({A2.name})",
    )


def nonpartite_sample_size(m_partite, k):
    """k points per part suffice to fold: non-partite size k * ceil(m)."""
    return k * math.ceil(m_partite)


# ---------------------------------------------------------------------------
# finite disintegration


def disintegrate_finite(nu, n_tags):
    """Split a finite measure on points x tags into its point marginal and
    the tag kernel: eta(x)(j) = nu(x, j) / marginal(x).  Exact rationals;
    reconstruction nu(V x J) = sum_x marginal(x) * eta(x)(J) holds exactly."""
    marginal = {}
    for (x, _), p in nu.items():
        marginal[x] = marginal.get(x, Fraction(0)) + Fraction(p)
    kernel = {
        x: tuple(Fraction(nu.get((x, j), 0)) / w for j in range(n_tags))
        for x, w in marginal.items()
        if w > 0
    }
    return marginal, kernel


# ---------------------------------------------------------------------------
# tagged ground spaces


def tag_count(k, arity):
    return comb(k, arity)


def tag_index(k, subset):
    """Canonical index of a size-|subset| part set within binom([k], .)."""
    return list(combinations(range(1, k + 1), len(subset))).index(tuple(subset))


def tag_subset(k, arity, index):
    return list(combinations(range(1, k + 1), arity))[index]


def encode_tagged(value, tag, k, arity):
    return value * tag_count(k, arity) + tag


def decode_tagged(point, k, arity):
    return divmod(point, tag_count(k, arity))


def tagged_template(base, k):
    """Ground spaces Omega_i x [binom(k, i)]."""
    return templates.Template(
        k, tuple(base.size(i) * tag_count(k, i) for i in range(1, k + 1))
    )


def tagged_prob(mu, k):
    """Product of mu with the uniform tag measure at every arity."""
    t = tagged_template(mu.template, k)
    weights = []
    for i in range(1, k + 1):
        c = tag_count(k, i)
        weights.append(
            tuple(w / c for w in mu.weights[i - 1] for _ in range(c))
        )
    return templates.ProbTemplate(t, tuple(weights))


def untag_config(xhat, k):
    return {key: xhat[key] // tag_count(k, len(key)) for key in xhat}


def untagged_hypothesis(H, k, t_tagged):
    """View a hypothesis over the base spaces as one over the tagged spaces
    (tags ignored)."""
    return Hypothesis(
        H.k,
        t_tagged,
        H.labels,
        lambda x: H(untag_config(x, k)),
        name=H.name + "^tag",
        declared_rank=H.declared_rank,
    )


def tag_class(cls, k):
    t = tagged_template(cls.template, k)
    return HypothesisClass(
        cls.k,
        t,
        cls.labels,
        tuple(untagged_hypothesis(H, k, t) for H in cls.members),
        name=cls.name + "^tag",
    )


# ---------------------------------------------------------------------------
# departization


def sigma_alpha(sigma, alpha):
    """The unique permutation tau of [k] making sigma^{-1} o alpha o tau
    increasing."""
    inv = indexing.invert(sigma)
    vals = [inv[a - 1] for a in alpha]
    order = sorted(range(len(alpha)), key=lambda i: vals[i])
    return tuple(i + 1 for i in order)


def _plan(sigma, U, Uprime, k):
    """What the randomness atom (sigma, U, U') does to any sample of size
    m = len(sigma), as ``(coords, labels)``.

    ``coords`` lists ``(C, key, tag)`` for each coordinate C of the
    non-partite sample: the partite key C reads (U[C]'s parts at C's
    vertices in sigma^{-1} order) and C's tag, the index of U[C].  ``labels``
    lists ``(alpha, survivor)`` for each injection alpha: ``survivor`` is
    ``(beta, pos)`` with beta = alpha o tau (tau = sigma_alpha(sigma, alpha))
    and pos the position of tau^{-1} in a full pattern, or None.  alpha's
    labels survive exactly when U and U' both give every subset of alpha's
    image the part set sigma induces on it; this is the only place that
    compares them.
    """
    m = len(sigma)
    inv = indexing.invert(sigma)
    coords = [
        (C, tuple(zip(U[C], sorted(C, key=lambda c: inv[c - 1]))), tag_index(k, U[C]))
        for C in indexing.subsets(m, k)
    ]
    pindex = {p: i for i, p in enumerate(perms(k))}
    labels = []
    for alpha in indexing.injections(m, k):
        tau = sigma_alpha(sigma, alpha)
        tau_inv = indexing.invert(tau)
        survives = True
        for C in indexing.subsets(k, k):
            img = tuple(sorted(alpha[c - 1] for c in C))
            want = tuple(sorted(tau_inv[c - 1] for c in C))
            survives = survives and U[img] == want and Uprime[img] == want
        survivor = (indexing.compose(alpha, tau), pindex[tau_inv]) if survives else None
        labels.append((alpha, survivor))
    return coords, labels


def _departize(plan, x, y, k):
    """Apply a plan to a partite sample x with full-pattern labels y."""
    coords, labels = plan
    xhat = {C: encode_tagged(x[key], tag, k, len(C)) for C, key, tag in coords}
    yhat = {a: BOTTOM if s is None else y[s[0]][s[1]] for a, s in labels}
    return xhat, yhat


def departize_sample(x, y, sigma, U, Uprime, k):
    """One departization step.

    ``x``: partite sample (m vertices per part) over a partization-shaped
    template; ``y``: labels indexed by [m]^k with full-pattern values;
    ``sigma``: permutation of [m]; ``U``/``Uprime``: per non-empty subset C of
    [m] with |C| <= k, a sorted part set of size |C|.  Returns a non-partite
    sample over the tagged ground spaces with scalar labels in Lambda union
    {BOTTOM}: a label survives exactly when both tag assignments agree with
    the part sets induced by sigma on the injection's image.
    """
    return _departize(_plan(sigma, U, Uprime, k), x, y, k)


def departize_p(k):
    """Probability that a fixed injection's labels survive departization:
    prod over non-empty C within [k] of binom(k, |C|)^{-2}."""
    p = Fraction(1)
    for c in indexing.subsets(k, k):
        p /= comb(k, len(c)) ** 2
    return p


def departize_r(r_a, m, k):
    """Randomness count R_A(m) * m! * prod_i binom(k,i)^(2 binom(m,i))."""
    out = r_a(m) * factorial(m)
    for i in range(1, k + 1):
        out *= comb(k, i) ** (2 * comb(m, i))
    return out


def decode_departize_randomness(index, r_a, m, k):
    """Split a composite index into (b, sigma, U, Uprime)."""
    coords = indexing.subsets(m, k)
    tags = [tag_count(k, len(c)) for c in coords]
    digits = decode_mixed(index, [r_a(m), factorial(m)] + tags + tags)
    U, Uprime = (
        {c: tag_subset(k, len(c), d) for c, d in zip(coords, digits[start:])}
        for start in (2, 2 + len(coords))
    )
    return digits[0], indexing.nth_permutation(digits[1], m), U, Uprime


def departize_learner(A, k, base_template, labels):
    """Wrap a non-partite learner over the tagged spaces (labels including
    the neutral symbol) into a partite learner for the partization class."""

    def fn(x, y, b):
        m = learners.sample_size(x)
        ba, sigma, U, Uprime = decode_departize_randomness(b, A.r, m, k)
        xhat, yhat = departize_sample(x, y, sigma, U, Uprime, k)
        H = A(xhat, yhat, ba)
        base = Hypothesis(
            k, base_template, labels, lambda z: H(tag_zero(z, k)), name="dep"
        )
        return partize_hypothesis(base)

    return learners.Learner(
        k,
        fn,
        lambda m: departize_r(A.r, m, k),
        name=f"departized({A.name})",
    )


def tag_zero(x, k):
    """Embed a base config into the tagged spaces with all tags 0."""
    return {key: encode_tagged(x[key], 0, k, len(key)) for key in x}


def delta_tilde(eps, delta, sup_norm):
    """Confidence discount for the neutral-symbol composition."""
    return min(
        Fraction(eps) * Fraction(delta) / (2 * Fraction(sup_norm)), Fraction(1, 2)
    )


def neutral_sample_size(m_a, eps, delta, sup_norm):
    return m_a(Fraction(eps) / 2, delta_tilde(eps, delta, sup_norm))


def delta_hat(eps, delta, sup_norm, k):
    """Confidence discount for the full departization composition."""
    p = departize_p(k)
    e, d, s = Fraction(eps), Fraction(delta), Fraction(sup_norm)
    return min(p * e * e * d / (8 * s * s), p * e / (8 * s), Fraction(1, 2))


def departize_sample_size(m_a, eps, delta, sup_norm, k):
    return m_a(departize_p(k) * Fraction(eps) / 2, delta_hat(eps, delta, sup_norm, k))


# ---------------------------------------------------------------------------
# exact departization laws (tiny-instance oracles)


@lru_cache(maxsize=4)
def _plans(m, k):
    """The plan of every randomness atom of a size-m sample, decoded from
    each index below R = departize_r(1, m, k) exactly as the departized
    learner decodes its randomness; each atom has probability 1/R.  A plan
    reads no measure, so the plans are decoded once per (m, k)."""
    one = lambda _: 1  # noqa: E731
    return tuple(
        _plan(*decode_departize_randomness(i, one, m, k)[1:], k)
        for i in range(departize_r(one, m, k))
    )


def _atom_plans(mu, mu2, m, k):
    """``_plans(m, k)``, refused first when the law's atoms (samples of mu
    and mu2 times R) exceed the exact-law cap."""
    r = departize_r(lambda _: 1, m, k)
    sampler.check_law_size(templates.law_atoms(mu, m) * templates.law_atoms(mu2, m) * r)
    return _plans(m, k)


def _check_law_inputs(mu, mu2, F_part, m, k, partite):
    """Refuse, before anything is enumerated, what a departization law cannot
    read: measures of the other setting or of an arity other than k, m < 0,
    or an F_part over another template than the measures' partite join."""
    if {mu.template.partite, mu2.template.partite} != {partite}:
        raise ValueError(
            "the construction law reads partite measures"
            if partite
            else "the discrete law reads plain measures"
        )
    if {mu.template.k, mu2.template.k} != {k}:
        raise ValueError(f"k = {k} is not the measures' arity")
    if m < 0:
        raise ValueError(f"sample size m = {m} is negative")
    joined = templates.product_template(mu.template, mu2.template)
    if not partite:
        joined = templates.partize_template(joined, k)
    if F_part.template != joined:
        raise ValueError("F_part is not over the measures' joined partite template")


def _departize_law(mu, mu2, G, m, k, x_key):
    """The exact law of the departized size-m sample over mu (x) mu', summed
    over the grid of (sample atom, plan).  An atom's reads are one column: x's
    values under every tag, G's pattern at each injection's point (G called
    once per joined point of ``sampler.exact_domain``), then BOTTOM's id.  A
    plan indexes it: x at ``x_key(C, key)`` under C's tag for each coordinate
    C, then each injection's survivor or BOTTOM.  The grid is gathered at
    most ``GRID_CELLS`` cells at a time, its rows summed by one sort a chunk
    (mixed-radix int64 keys while the radix fits, else ``distinct_rows``) in
    integer masses; one law key is built per law atom."""
    plans = _atom_plans(mu, mu2, m, k)
    values, ranks, masses, D = sampler.exact_read(mu, mu2, m)
    layout, units = sampler._layout(mu, mu2, k, m), sampler._units(mu.template, k, m)
    _, Z, pulls, _, _ = sampler.exact_domain(mu, mu2, k)
    names = {}  # label -> id, as the atoms' patterns first show them
    labels = np.array([[names.setdefault(v, len(names)) for v in G(z)] for z in Z], int)
    codes = pulls[layout.radix @ ranks[:, layout.at]][:, units.unit, units.slot]  # per key
    tags = np.array([tag_count(k, len(key)) for key in units.coords], int)
    T, s, (coords, survivors), P = tags.max(initial=1), labels.shape[1], plans[0], len(plans)
    x = values[:, : len(tags)].T[:, None] * tags[:, None, None] + np.arange(T)[:, None]
    reads = [x.reshape(-1, len(values)), labels[codes].transpose(1, 2, 0).reshape(-1, len(values))]
    reads = np.vstack([*reads, np.full((1, len(values)), len(names))])
    column = {key: c * T for c, key in enumerate(units.coords)}  # then (beta, position)'s
    column |= {y: len(x) * T + i for i, y in enumerate(product(units.keys, range(s)))}
    index = [[column[x_key(C, key)] + tag for C, key, tag in cs] for cs, _ in plans]
    index = [row + [column[y] if y else -1 for _, y in ys] for row, (_, ys) in zip(index, plans)]
    width, bound = len(coords) + len(survivors), int(reads.max()) + 1
    index, fits = np.array(index, int).reshape(P, width), bound**width < 2**63
    place = bound ** np.arange(width - 1, -1, -1) if fits else None
    masses = masses.astype(object) if D * P >= 2**63 else masses
    keys, sums = np.zeros((0,) if fits else (0, width), np.int64), masses[:0]
    step = max(1, GRID_CELLS // (len(values) * width or 1))
    for plan in (index[i : i + step] for i in range(0, P, step)):
        grid = reads[plan]  # by plan, read and atom
        rows = (place @ grid).ravel() if fits else grid.transpose(0, 2, 1).reshape(-1, width)
        weights = np.concatenate([sums, np.tile(masses, len(plan))])
        rows = np.concatenate([keys, rows])
        keys, at = learners._distinct(rows) if fits else distinct_rows(rows)
        sums = np.zeros(len(keys), masses.dtype)
        np.add.at(sums, at, weights)
    rows = (keys[:, None] // place % bound if fits else keys).tolist()
    Cs, alphas, ids = [C for C, _, _ in coords], [a for a, _ in survivors], [*names, BOTTOM]
    ys = (dict(zip(alphas, map(ids.__getitem__, r[len(Cs) :]))) for r in rows)
    atoms = map(sampler.law_key, (dict(zip(Cs, r)) for r in rows), ys)
    return {atom: Fraction(w, D * P) for atom, w in zip(atoms, sums.tolist())}


def departize_construction_law(mu_part, mu2_part, F_part, m, k):
    """Exact law of the departized (sample, labels) built from the partite
    construction: x visible, labels from F on the joined sample, randomness
    uniform.  Each plan reads x at its coordinates' partite keys."""
    _check_law_inputs(mu_part, mu2_part, F_part, m, k, True)
    return _departize_law(mu_part, mu2_part, F_part, m, k, lambda C, key: key)


def departize_discrete_law(mu_base, mu2_base, F_part, m, k):
    """Exact law of the discrete equivalent: per-coordinate values from the
    base measures with independent uniform tags, a uniform permutation, and
    labels computed by pulling the joined values back through the induced
    part assignment (F_part read at phi_k of each pulled-back point)."""
    _check_law_inputs(mu_base, mu2_base, F_part, m, k, False)
    G = lambda z: F_part(indexing.phi_k(z))  # noqa: E731
    return _departize_law(mu_base, mu2_base, G, m, k, lambda C, key: C)


# ---------------------------------------------------------------------------
# neutral-symbol composition


def neutral_symbol_learner(A, witness):
    """Wrap a learner so it tolerates the neutral symbol: before running A,
    every label entry touched by the symbol is replaced by the flexibility
    witness's noise source.  An entry alpha is touched when some entry in
    its orbit under the witness's template carries the symbol: any injection
    with alpha's image (non-partite), or alpha alone (partite)."""
    orbit = witness.template.orbit

    def fn(x, y, b):
        m = learners.sample_size(x)
        ba, bn = divmod(b, witness.r_n(m))
        noise = witness.noise(x, bn, m)
        bad = {a for a, v in y.items() if v == BOTTOM}
        y2 = {
            alpha: (noise[alpha] if bad.intersection(orbit(alpha)) else v)
            for alpha, v in y.items()
        }
        return A(x, y2, ba)

    return learners.Learner(
        A.k,
        fn,
        lambda m: A.r(m) * witness.r_n(m),
        name=f"neutral({A.name})",
    )


# ---------------------------------------------------------------------------
# dummy variables and codomain extension


def strip_dummy(A, anchors):
    """Make a learner invariant under the coordinate arities in ``anchors``
    by overwriting them with fixed points before the learner sees the
    sample."""

    def fn(x, y, b):
        x2 = {
            key: (anchors[len(key)] if len(key) in anchors else v)
            for key, v in x.items()
        }
        return A(x2, y, b)

    return learners.Learner(A.k, fn, A.r, name=f"stripped({A.name})")


def extend_codomain(cls, extra_labels):
    """The same class over an enlarged label set, plus the learner transfer
    that replaces out-of-range labels by the class's first label.  The new
    labels come last, so the class's table carries over (widened if the
    label count needs it); an extra label that repeats or is already a class
    label raises ValueError."""
    labels2 = cls.labels + tuple(extra_labels)
    if len(set(labels2)) < len(labels2):
        raise ValueError("an extra label repeats or is already a class label")
    members2 = tuple(
        Hypothesis(H.k, H.template, labels2, H.fn, H.name, H.declared_rank)
        for H in cls.members
    )
    table = cls.table.astype(np.min_scalar_type(len(labels2)), copy=False)
    name2 = cls.name + "+ext"
    cls2 = HypothesisClass(cls.k, cls.template, labels2, members2, name2, table)
    fill = cls.labels[0]
    known = set(cls.labels)

    def transfer(A):
        def fn(x, y, b):
            y2 = {a: (v if v in known else fill) for a, v in y.items()}
            return A(x, y2, b)

        return learners.Learner(A.k, fn, A.r, name=f"ext({A.name})")

    return cls2, transfer
