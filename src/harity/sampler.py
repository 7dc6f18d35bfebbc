"""Exchangeable labeled-sample generation from (mu, F) and (mu, mu', F)
representations, plus exact sample laws for tiny-instance oracles.

Each Monte Carlo trial derives an independent ``random.Random`` stream from
(seed, trial); identical (seed, trial) pairs give identical draws.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import indexing, templates
from .hypotheses import star, star_partite


def stream(seed, trial=0):
    """Deterministic per-trial RNG stream."""
    import random

    return random.Random(f"{seed}/{trial}")


@dataclass(frozen=True)
class Scenario:
    """The adversary's (mu, mu', F).  For the non-agnostic case mu2 is None
    and F lives over mu's template directly."""

    mu: object
    F: object
    mu2: object = None
    partite: bool = False

    @property
    def k(self):
        return self.F.k


def _draw(rng, weights):
    r = rng.random()
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def sample_config(mu, m, rng, arity_cap=None):
    """One independent draw per subset A of [m] with |A| <= cap."""
    cap = mu.template.k if arity_cap is None else arity_cap
    out = {}
    floats = {i: [float(w) for w in mu.weights[i - 1]] for i in range(1, cap + 1)}
    for a in indexing.subsets(m, cap):
        out[a] = _draw(rng, floats[len(a)])
    return out


def sample_partite_config(mu, sizes, rng):
    if isinstance(sizes, int):
        sizes = [sizes] * mu.template.k
    out = {}
    for f in indexing.part_indices(mu.template.k, list(sizes)):
        dom = tuple(p for p, _ in f)
        out[f] = _draw(rng, [float(w) for w in mu.weights[dom]])
    return out


def _setting(partite):
    """The config sampler, exact config law, product join and F* map of the
    partite or the non-partite setting."""
    if partite:
        return (
            sample_partite_config,
            templates.partite_config_law,
            templates.join_partite_config,
            star_partite,
        )
    return sample_config, templates.config_law, templates.join_config, star


def labeled_sample(sc, m, rng):
    """Draw the learner's visible sample (x, F*-labels); the auxiliary x' is
    sampled and discarded."""
    draw, _, join, star_of = _setting(sc.partite)
    x = draw(sc.mu, m, rng)
    joined = x
    if sc.mu2 is not None:
        joined = join(sc.mu.template, sc.mu2.template, x, draw(sc.mu2, m, rng))
    return x, star_of(sc.F, joined, m)


def exact_sample_law(sc, m, max_atoms=10**6):
    """Exact rational law of (x, y) as a dict keyed by canonical encodings."""
    _, law_of, join, star_of = _setting(sc.partite)
    x_law = law_of(sc.mu, m)
    xp_law = [({}, Fraction(1))] if sc.mu2 is None else law_of(sc.mu2, m)
    if len(x_law) * len(xp_law) > max_atoms:
        raise ValueError("instance too large for the exact law oracle")
    law = {}
    for x, p in x_law:
        for xp, q in xp_law:
            joined = x
            if sc.mu2 is not None:
                joined = join(sc.mu.template, sc.mu2.template, x, xp)
            y = star_of(sc.F, joined, m)
            key = (
                tuple(sorted(x.items())),
                tuple(sorted(y.items())),
            )
            law[key] = law.get(key, Fraction(0)) + p * q
    return law


def empirical_frequencies(sc, m, seed, trials):
    """Monte Carlo frequencies over (x, y) atoms for cross-checking the exact
    law."""
    counts = {}
    for t in range(trials):
        x, y = labeled_sample(sc, m, stream(seed, t))
        key = (tuple(sorted(x.items())), tuple(sorted(y.items())))
        counts[key] = counts.get(key, 0) + 1
    return {k: Fraction(v, trials) for k, v in counts.items()}
