"""Exchangeable labeled-sample generation from (mu, F) and (mu, mu', F)
representations, plus exact sample laws for tiny-instance oracles.

Each Monte Carlo trial derives an independent ``random.Random`` stream from
(seed, trial); identical (seed, trial) pairs give identical draws.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import prod

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
    r = rng.random()
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def sample_config(mu, m, rng):
    """One independent draw per coordinate of a size-m sample (m vertices per
    part in the partite setting), in canonical order, from its ground space's
    weights (as floats, once per space)."""
    t = mu.template
    floats = {}
    out = {}
    for key in t.coords(m):
        space = t.space(key)
        if space not in floats:
            floats[space] = [float(mu.weight(space, p)) for p in range(t.size(space))]
        out[key] = _draw(rng, floats[space])
    return out


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


def exact_sample_law(sc, m):
    """Exact rational law of (x, y) as a dict keyed by canonical encodings."""
    check_law_size(prod(templates.law_atoms(nu, m) for nu in (sc.mu, sc.mu2) if nu))
    x_law = templates.config_law(sc.mu, m)
    xp_law = [({}, Fraction(1))] if sc.mu2 is None else templates.config_law(sc.mu2, m)
    law = {}
    for x, p in x_law:
        for xp, q in xp_law:
            joined = x
            if sc.mu2 is not None:
                joined = templates.join_config(sc.mu.template, sc.mu2.template, x, xp)
            key = law_key(x, star(sc.F, joined, m))
            law[key] = law.get(key, Fraction(0)) + p * q
    return law


def empirical_frequencies(sc, m, seed, trials):
    """Monte Carlo frequencies over (x, y) atoms for cross-checking the exact
    law."""
    counts = {}
    for t in range(trials):
        key = law_key(*labeled_sample(sc, m, stream(seed, t)))
        counts[key] = counts.get(key, 0) + 1
    return {k: Fraction(v, trials) for k, v in counts.items()}
