"""Exchangeable labeled-sample generation from (mu, F) and (mu, mu', F)
representations, plus exact sample laws for tiny-instance oracles.

Each Monte Carlo trial derives an independent ``random.Random`` stream from
(seed, trial); identical (seed, trial) pairs give identical draws.
``labeled_sample`` draws a dict sample one coordinate at a time and is the
reference.  Every array route reads the same streams through one block
reader, ``_uniform_blocks`` (one ``getrandbits`` call per stream), as each
``random()``'s 53-bit numerator K, and decodes each K to a support rank by
integer thresholds (``_support``, ``_decode``) as ``_draw`` would decode
K / 2^53.  A block holds at most ``BLOCK_UNIFORMS`` cells of the widest row
it yields, so a counting caller passes the width of its count row.  A
sample's units are laid out once per (template, k, m), by ``_units``, which
every unit reader takes.
Outside ``fastpath`` one decoder, ``_read`` over a cached ``_layout``,
decodes every coordinate once and codes each unit by the law atom its point
is.  The checks count the codes a block of trials at a time
(``_atom_counts``).  The PAC sweep's reader (``_labeled_reader``) yields
each block once, as x's value rows and y's label-id rows (``renumber``
carries ids to another alphabet), which a learner's block form reads whole;
its per-trial view wraps each row in an ``ArraySample``, which ``values``
hands an array reader as the row and a key reader as a dict built once.
``exact_read`` is ``_read``'s exact twin: every atom of mu (x) mu' with its
integer mass, values and ranks, which the departization laws code by unit;
``exact_domain`` reads it at the domain size as points, for ``losses``.
"""

import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count, islice, repeat, tee
from math import lcm, prod
from typing import NamedTuple

import numpy as np

from . import templates
from .hypotheses import canonical_key, star

# Every exact sample law refuses, before enumerating anything, to have more
# atoms than this.
EXACT_LAW_CAP = 10**6


def stream(seed, trial=0):
    """Deterministic per-trial RNG stream."""
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


def _thresholds(floats):
    """The integer thresholds of cumulative float weights, summed as
    ``_draw`` sums them, all but the last: T_i = ceil(c_i * 2^53), as uint64.
    A uniform random() = K / 2^53 lies at or past c_i exactly when K >= T_i,
    because K is an integer and c_i * 2^53 is exact in binary64."""
    return np.ceil(np.cumsum(floats)[:-1] * 2.0**53).astype(np.uint64)


def _support(weights):
    """A ground space's values of positive weight, in order, and their
    ``_thresholds`` T_i = ceil(c_i * 2^53) over the cumulative float weights
    c_i but the last: a key K = random() * 2^53 draws past value i exactly
    when K >= T_i, since K is an integer and c_i * 2^53 is exact."""
    values = [v for v, w in enumerate(weights) if w]
    return np.asarray(values), _thresholds([float(weights[v]) for v in values])


def _decode(T, K):
    """The support rank each key K = random() * 2^53 (``_uniform_blocks``')
    draws: how many thresholds T (``_support``'s) it reaches, so past the
    float sum, the last.  Summed
    comparisons, in the narrowest unsigned type that holds the rank (a
    one-value space compares nothing); a support of more than 64 values,
    where comparisons stop beating it, searches T instead."""
    if len(T) >= 64:
        return T.searchsorted(K, "right")
    ranks = np.zeros(K.shape, np.min_scalar_type(len(T)))
    for t in T:
        ranks += K >= t
    return ranks


# a block of streams holds at most this many cells of the widest row it
# yields, and at least one stream
BLOCK_UNIFORMS = 2**14


def _uniform_blocks(rngs, n, atoms=0):
    """The next n ``rng.random()`` values of each rng, bit for bit, as their
    53-bit numerators K (``random() == K * 2**-53`` exactly), one (streams,
    n) uint64 array per block of rngs, in order.  One ``getrandbits`` call
    per rng leaves it in their state; ``random()`` joins two 32-bit words
    w0, w1 as (w0 >> 5) * 2^26 + (w1 >> 6), which one little-endian 64-bit
    word w reads as (w & 0xFFFFFFE0) << 21 | w >> 38.  A block holds at most
    ``BLOCK_UNIFORMS`` cells of its widest row: the n keys, or the caller's
    count row of ``atoms`` cells.  Only the block's words are held, so an
    rng the caller drops is freed once it is read."""
    rngs, size = iter(rngs), max(1, BLOCK_UNIFORMS // max(n, atoms, 1))
    while block := [
        r.getrandbits(64 * n).to_bytes(8 * n, "little") for r in islice(rngs, size)
    ]:
        w = np.frombuffer(b"".join(block), "<u8").reshape(len(block), n)
        K = w & 0xFFFFFFE0
        K <<= 21
        K |= w >> 38
        yield K


def _row_counts(codes, atoms):
    """Each row's count of each code in range(atoms): one bincount over a
    (rows, units) code matrix, each row's codes offset into its own range."""
    rows = len(codes)
    codes = codes.reshape(rows, -1) + np.arange(0, rows * atoms, atoms)[:, None]
    return np.bincount(codes.ravel(), minlength=rows * atoms).reshape(rows, atoms)


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


class _Units(NamedTuple):
    coords: list  # t.coords(m), in order
    at: np.ndarray  # per unit, the positions in coords of u*(x)'s domain coordinates
    keys: list  # y's keys t.index(m, k), in order
    unit: np.ndarray  # each key's unit, in t.units(m, k) order
    slot: np.ndarray  # each key's slot in that unit's orbit
    order: np.ndarray  # per unit, its keys' positions in keys, slot by slot


# distinct keys in a 16-round perfbench run (seed 0): 11 on mc-long, 4 on mc-short,
# 2 on exact-oracles, none on mc-fastpath
@lru_cache(maxsize=32)
def _units(t, k, m):
    """The one layout of a size-m sample over t by its arity-k units, which
    every unit reader takes; u*(x)'s coordinates are in ``t.coords(d)`` order."""
    coords, units, domain = t.coords(m), list(t.units(m, k)), t.coords(t.domain(k)[0])
    pos = {key: i for i, key in enumerate(coords)}
    rows = [[p[a] for a in domain] for p in (t.pull(u, pos) for u in units)]
    where = {a: (i, j) for i, u in enumerate(units) for j, a in enumerate(t.orbit(u))}
    keys = list(t.index(m, k))
    unit, slot = np.array([where[a] for a in keys], int).reshape(-1, 2).T
    at = np.array(rows, int).reshape(len(rows), len(domain))
    order = np.lexsort((slot, unit)).reshape(-1, len(t.domain(k)[1]))
    return _Units(coords, at, keys, unit, slot, order)


class _Layout(NamedTuple):
    n: int  # draws: x's coordinates, then x''s
    groups: list  # (thresholds, stream positions, values) per ground space
    at: np.ndarray  # each domain coordinate's stream position, per unit
    radix: np.ndarray  # each domain coordinate's place value in a unit's code
    atoms: int  # the number of codes: the law's atoms at the domain size


@lru_cache(maxsize=32)
def _layout(mu, mu2, k, m):
    """How a size-m sample of mu (and mu') is read for units of arity k.
    Every coordinate is decoded once, one group per ground space of each
    measure, to its rank in that space's support in the exact law
    (``templates._supports``, which ``config_law`` and ``law_atoms``
    enumerate too).  A unit's code is the mixed radix of the ranks at its
    domain coordinates, x's then x''s, the last fastest: the law's atom
    order.  Measures hash by template and compare by weights, so equal
    measures share one layout."""
    d = mu.template.domain(k)[0]
    n, groups, at, digits = 0, [], [], []
    for nu in (mu, mu2) if mu2 else (mu,):
        tn, spaces = nu.template, {}
        for pos, (key, support) in enumerate(templates._supports(nu, m), n):
            spaces.setdefault(tn.space(key), (support, []))[1].append(pos)
        for support, pos in spaces.values():
            if pos[-1] - pos[0] == len(pos) - 1:
                pos = slice(pos[0], pos[-1] + 1)
            T = _thresholds([float(w) for _, w in support])
            groups.append((T, pos, np.array([v for v, _ in support])))
        units = _units(tn, k, m)
        at.append(units.at + n)
        digits += [len(support) for _, support in templates._supports(nu, d)]
        n += len(units.coords)
    radix = np.cumprod([1, *digits[:0:-1]])[::-1]  # the last fastest
    return _Layout(n, groups, np.hstack(at).T, radix, prod(digits))


def _read(layout, K):
    """Each coordinate's value and each unit's atom code, from the keys K
    (``_uniform_blocks``'): one row of ``layout.n`` per stream, or a single
    row."""
    ranks, values = np.empty(K.shape, int), np.empty(K.shape, int)
    for T, pos, support in layout.groups:
        ranks[..., pos] = r = _decode(T, K[..., pos])
        values[..., pos] = support[r]
    return values, layout.radix @ np.take(ranks, layout.at, axis=-1)


def _atom_counts(sc, k, rngs, m):
    """Per block of rngs: (how many units of each size-m sample read off an
    rng induce each atom of the units' law, one row per rng, the number of
    units).  ``_read``'s codes, counted, reading each rng as
    ``labeled_sample`` does; a sample without units is refused before any
    rng is read."""
    layout = _layout(sc.mu, sc.mu2, k, m)
    if not layout.at.shape[1]:
        raise ValueError(f"no empirical loss: m = {m} has no unit of arity k = {k}")
    for K in _uniform_blocks(rngs, layout.n, layout.atoms):
        yield _row_counts(_read(layout, K)[1], layout.atoms), layout.at.shape[1]


class ArraySample(Mapping):
    """A read-only sample, x or y, of size m, backed by one row of a
    reader's block: x's values at ``keys`` (a ``_units`` entry's
    ``coords``), in order, or y's label ids, positions in ``alphabet``, at a
    ``_units`` entry's ``keys``.  ``values`` hands an array reader the row
    itself; a reader by key gets a dict built once, on first read."""

    __slots__ = ("m", "_keys", "_row", "_alphabet", "_dict")

    def __init__(self, m, keys, row, alphabet=None):
        self.m, self._keys, self._row, self._alphabet = m, keys, row, alphabet
        self._dict = None

    def _items(self):
        if self._dict is None:
            row = self._row.tolist()
            if self._alphabet is not None:
                row = map(self._alphabet.__getitem__, row)
            self._dict = dict(zip(self._keys, row))
        return self._dict

    def __getitem__(self, key):
        return self._items()[key]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)

    def items(self):
        return self._items().items()


def values(sample, keys, labels=None):
    """A sample's values at keys, as an int array, or given labels (a tuple),
    as positions in labels (KeyError outside them): an ``ArraySample`` over
    keys whose alphabet starts with labels gives its row, others read by key."""
    if type(sample) is ArraySample and sample._keys is keys:
        row, alphabet = sample._row, sample._alphabet
        if labels is None and alphabet is None:
            return row
        if labels is not None and alphabet is not None and alphabet[: len(labels)] == labels:
            return renumber(row, alphabet, labels)
    read = map(sample.__getitem__, keys)
    if labels is not None:
        read = map({v: i for i, v in enumerate(labels)}.__getitem__, read)
    return np.fromiter(read, int, len(keys))


def renumber(ids, alphabet, labels):
    """ids in alphabet as ids in labels; the first outside raises KeyError."""
    if alphabet[: len(labels)] != labels:
        full = (*labels, *(a for a in alphabet if a not in labels))
        ids, alphabet = np.array([full.index(a) for a in alphabet])[ids], full
    if len(alphabet) > len(labels) and (extra := ids >= len(labels)).any():
        raise KeyError(alphabet[ids[extra][0]])
    return ids


def _labeled_reader(sc, k, alphabet, *labels):
    """draw.blocks(rngs, m, targets=None) yields each block of rngs once, as
    (xs, ys), a read-only row per rng: x's values in ``_units``' ``coords``
    order, and y's label ids in its ``keys`` order, y on a unit's orbit being
    the labels (each target F's, given at every atom's orbit pullbacks) of the
    atom its code names under the rng's target (``targets[i]``).  An id is a
    position in alphabet (the loss's labels), or past it in first-seen order.
    draw(rngs, m, targets=None, keep=True) yields each rng (None if not keep)
    with its ``labeled_sample`` draw as two ArraySamples; ``draw.ids`` (a row
    per target and atom) and ``draw.alphabet`` hold the ids and labels."""
    code = {a: i for i, a in enumerate(alphabet)}
    ids = [code.setdefault(a, len(code)) for a in chain(*labels)]
    ids = np.fromiter(ids, int).reshape(-1, len(sc.mu.template.domain(k)[1]))
    alphabet, atoms, several = tuple(code), len(ids) // len(labels), len(labels) > 1

    def blocks(rngs, m, targets=None):
        layout, units = _layout(sc.mu, sc.mu2, k, m), _units(sc.mu.template, k, m)
        # each rng's offset into the stacked ids: its target's first atom
        offsets = atoms * np.asarray(targets) if several else None
        start = 0
        for K in _uniform_blocks(rngs, layout.n):
            xs, codes = _read(layout, K)  # x''s values come last
            codes = np.take(codes, units.unit, axis=1)
            if offsets is not None:
                codes += offsets[start : start + len(K), None]
            start += len(K)
            ys = ids[codes, units.slot]
            xs.setflags(write=False)
            ys.setflags(write=False)
            yield xs[:, : len(units.coords)], ys

    def draw(rngs, m, targets=None, keep=True):
        units = _units(sc.mu.template, k, m)
        read, rngs = tee(rngs) if keep else (rngs, repeat(None))
        for xs, ys in blocks(read, m, targets):
            for rng, x, y in zip(islice(rngs, len(xs)), xs, ys):
                yield rng, ArraySample(m, units.coords, x), ArraySample(m, units.keys, y, alphabet)

    draw.blocks, draw.ids, draw.alphabet = blocks, ids, alphabet
    return draw


def exact_read(mu, mu2, m):
    """Every atom of mu (x) mu' (or mu alone) on size-m samples, in
    ``joint_law``'s order, as (values, ranks, masses, D): row i holds atom
    i's coordinate values in ``_read``'s order (x's, then x''s) and their
    support ranks (``_layout.radix`` reads them as unit codes); its mass is
    masses[i] / D, int64 below 2^63 (else ints).  Refused above the cap before enumerating."""
    supports = [s for nu in (mu, mu2) if nu for _, s in templates._supports(nu, m)]
    sizes = [len(s) for s in supports]
    check_law_size(prod(sizes))
    ranks = np.indices(sizes).reshape(len(sizes), prod(sizes)).T  # the last fastest
    values, masses, D = np.empty_like(ranks), np.ones(1, object), 1
    for c, support in enumerate(supports):
        values[:, c] = np.array([v for v, _ in support])[ranks[:, c]]
        d = lcm(*(w.denominator for _, w in support))
        nums = [w.numerator * (d // w.denominator) for _, w in support]
        masses, D = np.multiply.outer(masses, nums).ravel(), D * d
    return values, ranks, masses.astype(np.int64) if D < 2**63 else masses, D


def exact_domain(mu, mu2, k):
    """``exact_read`` at the arity-k domain size, as points: (mu's
    distinct points, each atom's joined point (its x, without mu'), each
    atom's orbit pullbacks as atom numbers, masses, D); an x's atoms are
    consecutive.  A pullback permutes the columns, each measure's read once
    per orbit element off its template's pullback of their positions."""
    t, (d, orbit) = mu.template, mu.template.domain(k)
    values, ranks, masses, D = exact_read(mu, mu2, d)
    perms, c = [[] for _ in orbit], 0
    for keys, pull in [(nu.template.coords(d), nu.template.pull) for nu in (mu, mu2) if nu]:
        for p, a in zip(perms, orbit):
            p += map(pull(a, dict(zip(keys, count(c)))).__getitem__, keys)
        c += len(keys)
    keys, sizes = t.coords(d), ranks[-1] + 1
    x, runs = values[:, : len(keys)], prod(sizes[len(keys) :])  # runs: mu''s atoms
    if mu2:  # templates.join_config, column by column
        t2, c2 = mu2.template, mu2.template.coords(d)
        joined = [t2.size(t2.space(a)) for a in keys], [len(keys) + c2.index(a) for a in keys]
        values = x * joined[0] + values[:, joined[1]]
    zs = list(map(dict, map(zip, repeat(keys), values.tolist())))
    xs = list(map(dict, map(zip, repeat(keys), x[::runs].tolist()))) if mu2 else zs
    return xs, zs, np.ravel_multi_index(tuple(ranks[:, perms].T), sizes).T, masses, D


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
    two measures' own laws.  Refused above the cap before enumerating.  It is
    ``exact_sample_law``'s enumerator and the tests' reference; every other
    exact oracle reads ``exact_read``'s integer masses."""
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
