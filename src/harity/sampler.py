"""Exchangeable labeled-sample generation from (mu, F) and (mu, mu', F)
representations, plus exact sample laws for tiny-instance oracles.

Each Monte Carlo trial derives an independent ``random.Random`` stream from
(seed, trial); identical (seed, trial) pairs give identical draws.  The
array routes read the same stream in bulk (``_uniforms``) and decode each
uniform to a support rank (``_support``, ``_decode``) as ``_draw`` would.
Outside ``fastpath``, only the unit-code reader (``_atom_counter``) below
reads them: it follows ``labeled_sample``'s stream order.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

import numpy as np

from . import templates
from .hypotheses import canonical_key, star

# Every exact sample law refuses, before enumerating anything, to have more
# atoms than this.
EXACT_LAW_CAP = 10**6


def stream(seed, trial=0):
    """Deterministic per-trial RNG stream."""
    import random

    return random.Random(f"{seed}/{trial}")


@dataclass(frozen=True)
class Scenario:
    """The adversary's (mu, mu', F).  For the non-agnostic case mu2 is None
    and F lives over mu's template directly.  ``partite`` is read from mu's
    template; a value passed that disagrees with it is refused."""

    mu: object
    F: object
    mu2: object = None
    partite: bool = None

    def __post_init__(self):
        partite = self.mu.template.partite
        if self.partite not in (None, partite):
            raise ValueError(f"partite={self.partite} disagrees with mu's template")
        object.__setattr__(self, "partite", partite)


def _draw(rng, weights):
    """The index one random() lands in; past the float sum, the last of
    positive weight."""
    r = rng.random()
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return max(i for i, w in enumerate(weights) if w > 0)


def _support(weights):
    """A ground space's values of positive weight, in order, and their
    cumulative float weights, summed as ``_draw`` sums them."""
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


def sample_config(mu, m, rng):
    """One independent draw per coordinate of a size-m sample (m vertices per
    part in the partite setting), in canonical order, from its ground space's
    float weights, which mu converted once when it was built."""
    t, floats = mu.template, mu.floats
    return {key: _draw(rng, floats[t.space(key)]) for key in t.coords(m)}


def sample_partite_config(mu, m, rng):
    """``sample_config``, kept as a distinct name for perfbench's tracer."""
    return sample_config(mu, m, rng)


def labeled_sample(sc, m, rng):
    """Draw the learner's visible sample (x, F*-labels); the auxiliary x' is
    sampled and discarded."""
    x = sample_config(sc.mu, m, rng)
    joined = x
    if sc.mu2 is not None:
        joined = templates.join_config(
            sc.mu.template, sc.mu2.template, x, sample_config(sc.mu2, m, rng)
        )
    return x, star(sc.F, joined, m)


def _unit_positions(t, units, m, keys, start=0):
    """Each unit's row: the position in ``t.coords(m)``, numbered from start,
    of its point u*(x)'s coordinate at each key."""
    coords = t.coords(m)
    pos = dict(zip(coords, range(start, start + len(coords))))
    return np.array([[p[a] for a in keys] for p in (t.pull(u, pos) for u in units)])


def _atom_counter(sc, k):
    """(atoms, count): the number of atoms of the check's law
    (``joint_law`` at the arity-k domain size, as ``losses.law_plan`` lists
    it) and count(rng, m) -> (how many units of the size-m sample read off
    rng induce each atom, the number of units).  The sample is read as
    ``labeled_sample`` reads it, x then x', in one bulk draw.  Each domain
    coordinate is decoded over all units at once, to its rank in the law's
    support of that coordinate (``templates._supports``); a unit's code is
    the mixed radix of those ranks, x's coordinates then x''s, the last
    fastest: the law's atom order."""
    t, d = sc.mu.template, sc.mu.template.domain(k)[0]
    measures = [nu for nu in (sc.mu, sc.mu2) if nu]
    supports = [s for nu in measures for _, s in templates._supports(nu, d)]
    cums = [np.cumsum([float(w) for _, w in s]) for s in supports]  # as _draw sums
    digits = [len(cum) for cum in cums]
    atoms = prod(digits)

    @lru_cache(maxsize=4)
    def layout(m):  # draws, and each domain coordinate's stream position per unit
        units, blocks, n = list(t.units(m, k)), [], 0
        if not units:
            raise ValueError(f"no empirical loss: m = {m} has no unit of arity k = {k}")
        for tn in (nu.template for nu in measures):
            blocks.append(_unit_positions(tn, units, m, tn.coords(d), n))
            n += len(tn.coords(m))
        return n, np.hstack(blocks).T

    def count(rng, m):
        n, at = layout(m)
        u = _uniforms(rng, n)
        ranks = [_decode(cum, u[j]) for cum, j in zip(cums, at)]
        codes = np.ravel_multi_index(ranks, digits)  # last fastest, as the law
        return np.bincount(codes, minlength=atoms), at.shape[1]

    return atoms, count


def check_law_size(atoms):
    """Refuse an exact law of more than EXACT_LAW_CAP atoms."""
    if atoms > EXACT_LAW_CAP:
        raise ValueError(
            f"instance too large for the exact law oracle: {atoms} atoms "
            f"exceed {EXACT_LAW_CAP}"
        )


def law_key(x, y):
    """The canonical encoding of a labeled sample (x, y) as a law atom."""
    return canonical_key(x), canonical_key(y)


def joint_law(mu, m, mu2=None):
    """The (x, joined point, p) atoms of mu (x) mu' on size-m samples, x' fastest,
    or of mu alone (joined point x), lazily: a one-pass reader holds only the
    two measures' own laws.  Refused above the cap before enumerating."""
    check_law_size(prod(templates.law_atoms(nu, m) for nu in (mu, mu2) if nu))
    law = templates.config_law(mu, m)
    if mu2 is None:
        return ((x, x, p) for x, p in law)
    t, t2, xp_law = mu.template, mu2.template, templates.config_law(mu2, m)
    join = templates.join_config
    return ((x, join(t, t2, x, xp), p * q) for x, p in law for xp, q in xp_law)


def exact_sample_law(sc, m):
    """Exact rational law of (x, y) as a dict keyed by canonical encodings."""
    law = {}
    for x, joined, p in joint_law(sc.mu, m, sc.mu2):
        key = law_key(x, star(sc.F, joined, m))
        law[key] = law.get(key, Fraction(0)) + p
    return law


def empirical_frequencies(sc, m, seed, trials):
    """Monte Carlo frequencies over (x, y) atoms for cross-checking the exact
    law."""
    counts = {}
    for t in range(trials):
        key = law_key(*labeled_sample(sc, m, stream(seed, t)))
        counts[key] = counts.get(key, 0) + 1
    return {k: Fraction(v, trials) for k, v in counts.items()}
