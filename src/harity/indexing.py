"""Combinatorial substrate: subset indices, partite index functions, injections,
and the pullback/pushforward maps everything else is built on.

Conventions used throughout the package:

* Vertices are 1-based (``[m]`` means ``1..m``).
* A subset index is a strictly increasing tuple of ints, e.g. ``(1, 3)``.
* A partite index is a tuple of ``(part, vertex)`` pairs sorted by part,
  e.g. ``((1, 2), (3, 1))`` for the partial map ``1 -> 2, 3 -> 1``.
* An injection (or permutation) is a tuple of pairwise-distinct targets;
  position ``i`` (0-based) holds the image of ``i + 1``.
* Configuration points are plain dicts keyed by subset indices (non-partite)
  or partite indices (partite).  All values are immutable, so config points
  are shared freely.  A non-partite config point over [m] holds every subset
  of size <= min(k, m) for its template's arity k (``Template.coords``), so
  the pullbacks probe image keys instead of scanning the point.

The canonical order for subsets and partite indices is size-then-lexicographic
so serialized output is bit-stable across runs.
"""

from functools import cache
from itertools import combinations, permutations, product
from math import factorial


def subsets(m, max_size):
    """All non-empty subsets of [m] of size <= max_size, size-then-lex."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    out = []
    for size in range(1, min(m, max_size) + 1):
        out.extend(combinations(range(1, m + 1), size))
    return out


def part_indices(k, sizes):
    """All partite indices f with non-empty domain A within [k] and f(i) in
    [sizes[i-1]] for i in A, in canonical (domain-size, domain, values) order.

    ``sizes`` may be an int (same size for every part) or a sequence.
    """
    if isinstance(sizes, int):
        sizes = [sizes] * k
    out = []
    for dsize in range(1, k + 1):
        for dom in combinations(range(1, k + 1), dsize):
            ranges = [range(1, sizes[i - 1] + 1) for i in dom]
            for values in product(*ranges):
                out.append(tuple(zip(dom, values)))
    return out


def injections(m, k):
    """All injective tuples ([m])_k, lexicographic."""
    return list(permutations(range(1, m + 1), k))


def decode_mixed(index, radices):
    """Mixed-radix decode, most significant digit first."""
    out = []
    for rad in reversed(radices):
        index, d = divmod(index, rad)
        out.append(d)
    if index:
        raise ValueError("randomness index out of range")
    return list(reversed(out))


def nth_permutation(index, m):
    """``injections(m, m)[index]`` without listing all m! permutations: the
    factorial-base (Lehmer) digits of ``index`` pick each next image among
    the vertices not used yet."""
    if not 0 <= index < factorial(m):
        raise ValueError("permutation index out of range")
    free = list(range(1, m + 1))
    out = []
    for i in range(m - 1, -1, -1):
        digit, index = divmod(index, factorial(i))
        out.append(free.pop(digit))
    return tuple(out)


def compose(alpha, beta):
    """alpha o beta (apply beta first)."""
    return tuple(alpha[b - 1] for b in beta)


def invert(sigma):
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s - 1] = i + 1
    return tuple(inv)


def increasing_into(subset):
    """iota_{C,m}: the unique increasing injection [|C|] -> [m] with image C."""
    return tuple(sorted(subset))


def pullback(alpha, x):
    """Contravariant action on non-partite config points: alpha*(x)_A = x_{alpha(A)}.

    x is a config point over [m]; the result lives over [len(alpha)] and keeps
    exactly the arities that x has.  As x holds every subset of size <= min(k, m),
    every size is kept when alpha's image is a key of x, and otherwise size s
    is kept when the image of alpha's first s positions is: at most one probe
    per size, so a call costs O(2^k) lookups when len(alpha) = k.  A result
    that keeps every size takes its keys from one cached tuple per
    len(alpha) (``_domains``), so all such results share them.
    """
    kp, out = len(alpha), {}
    doms = _domains(kp) if tuple(sorted(alpha)) in x else None  # every size kept
    for size in range(1, kp + 1):
        if doms:
            keys = doms[size - 1]
        elif tuple(sorted(alpha[:size])) in x:
            keys = combinations(range(1, kp + 1), size)
        else:
            break
        for dom, image in zip(keys, combinations(alpha, size)):
            out[dom] = x[tuple(sorted(image))]
    return out


@cache
def _domains(k):
    """The subsets of [k] of each size 1..k, lex, one tuple per size: the
    keys of every pullback that keeps all of them."""
    return tuple(tuple(combinations(range(1, k + 1), s)) for s in range(1, k + 1))


def pullback_partite(alpha, x):
    """alpha*(x)_f = x_{alpha restricted to dom(f)} for alpha in prod V_i.

    alpha is a tuple of k part-local vertex ids; the result is a partite
    config point over parts of size 1 each, with one coordinate per domain
    A within [k] whose restriction of alpha is a key of x.
    """
    out = {}
    for dom, unit in _part_domains(len(alpha)):
        key = tuple((p, alpha[p - 1]) for p in dom)
        if key in x:
            out[unit] = x[key]
    return out


@cache
def _part_domains(k):
    """Each domain A within [k], with its partite index over one vertex per
    part, in canonical order."""
    return tuple((dom, tuple((p, 1) for p in dom)) for dom in subsets(k, k))


def sigma_act_partite(sigma, x):
    """Covariant S_k-action on partite config points over ([1],...,[1]):
    sigma_*(x)_f = x_{f o sigma restricted to sigma^{-1}(dom f)}.
    """
    out = {}
    for key in x:
        dom = tuple(p for p, _ in key)
        # the coordinate of the result at domain D reads x at domain
        # sigma^{-1}(D), so this key supplies the coordinate at sigma(dom)
        img = tuple(sorted(sigma[p - 1] for p in dom))
        out[tuple((p, 1) for p in img)] = x[key]
    return out


def iota_kpart(x):
    """Diagonal embedding of a partite config over ([1],...,[1]) into E_[k]:
    iota_kpart(x)_A = x_{1^A}.
    """
    out = {}
    for key in x:
        out[tuple(p for p, _ in key)] = x[key]
    return out


def phi_k(x):
    """Inverse of iota_kpart: non-partite config over [k] -> partite config."""
    return {tuple((p, 1) for p in a): x[a] for a in x}


def encode_subset(a):
    return "{" + ",".join(str(i) for i in a) + "}"


def encode_part_index(f):
    return ",".join(f"{p}↦{v}" for p, v in f)


def partite_keys(x):
    """Whether a config point is keyed by partite indices rather than by
    subsets, read from one key."""
    return bool(x) and isinstance(next(iter(x))[0], tuple)


def encode_config(x):
    """Canonical textual encoding of a config point, for CSV/JSON output."""
    items = sorted(x.items(), key=lambda kv: (len(kv[0]), kv[0]))
    if partite_keys(x):
        return ";".join(f"{encode_part_index(k)}={v}" for k, v in items)
    return ";".join(f"{encode_subset(k)}={v}" for k, v in items)
