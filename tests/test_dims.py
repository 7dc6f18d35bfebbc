from itertools import combinations, product
from math import comb

import pytest

from harity import dims, families, sampler, templates
from harity.hypotheses import (
    Hypothesis,
    HypothesisClass,
    canonical_key,
    distinct_rows,
    partize_class,
)


def _family(domain_size, functions):
    return dims.FunctionFamily(
        tuple(range(domain_size)), tuple(tuple(f) for f in functions)
    )


def test_natarajan_trivia():
    assert dims.natarajan_dim(_family(3, [(0, 1, 0)])) == 0
    assert dims.natarajan_dim(_family(0, [])) == 0
    # an empty family realizes no value anywhere, so collapsing drops every
    # column: the dimension is 0 past the domain cap and at cap 0
    assert dims.natarajan_dim(_family(65, [])) == 0
    assert dims.natarajan_dim(_family(3, []), cap=0) == 0


def test_natarajan_full_family():
    for n in (1, 2, 3):
        fam = _family(n, list(product((0, 1), repeat=n)))
        assert dims.natarajan_dim(fam, cap=4) == n
    fam3 = _family(2, list(product((0, 1, 2), repeat=2)))
    assert dims.natarajan_dim(fam3, cap=4) == 2


def test_natarajan_cap_reports_at_least():
    fam = _family(4, list(product((0, 1), repeat=4)))
    out = dims.natarajan_dim(fam, cap=2)
    assert isinstance(out, dims.AtLeast)
    assert int(out) == 2


def test_natarajan_domain_cap():
    # columns survive collapsing: pairwise distinct, each realizing two values
    fam = _family(5, [(0, 0, 0, 1, 1), (0, 1, 1, 0, 0), (1, 0, 1, 0, 1)])
    with pytest.raises(ValueError):
        dims.natarajan_dim(fam, domain_cap=2)


def test_vc_matches_natarajan_on_binary():
    rng = sampler.stream("vc-nat", 0)
    for trial in range(50):
        n = rng.randrange(2, 9)
        count = rng.randrange(1, min(2**n, 40) + 1)
        fns = set()
        while len(fns) < count:
            fns.add(tuple(rng.randrange(2) for _ in range(n)))
        fam = _family(n, sorted(fns))
        assert dims.vc_dim(fam, cap=8, domain_cap=8) == dims.natarajan_dim(
            fam, cap=8, domain_cap=8
        )


def test_vc_rejects_nonbinary():
    with pytest.raises(ValueError):
        dims.vc_dim(_family(2, [(0, 1), (2, 0)]))


def test_monotone_under_adding_functions():
    rng = sampler.stream("mono", 0)
    for trial in range(20):
        n = rng.randrange(2, 7)
        fns = sorted(
            {tuple(rng.randrange(2) for _ in range(n)) for _ in range(6)}
        )
        if len(fns) < 2:
            continue
        small = _family(n, fns[:-1])
        big = _family(n, fns)
        assert int(dims.natarajan_dim(big, cap=8, domain_cap=8)) >= int(
            dims.natarajan_dim(small, cap=8, domain_cap=8)
        )


def _collapse(fam):
    """The family without the columns no shattered set holds: columns
    realizing fewer than two values (every column of an empty family), and
    copies of an earlier column."""
    first = {}  # each kept column to its first position
    for i, col in enumerate(zip(*fam.functions)):
        if len(set(col)) > 1:
            first.setdefault(col, i)
    return dims.FunctionFamily(
        tuple(fam.domain[i] for i in first.values()),
        tuple(zip(*first)) if first else ((),) * len(fam.functions),
    )


def _level_by_level(fam, cap):
    """The shattering search as a level-by-level set scan without the
    counting bound: every level up to min(cap, n) is searched until the
    reference scan finds no shattered set in it."""
    fam = _collapse(fam)
    n = len(fam.domain)
    for size in range(1, min(cap, n) + 1):
        if _reference_witness(fam.functions, n, size) is None:
            return size - 1
    return dims.AtLeast(cap) if cap < n else n


def test_natarajan_searches_no_level_above_the_counting_bound(monkeypatch):
    # shattering d points takes 2^d distinct functions, so the search splits
    # no set's cells to a level above floor(log2 #distinct), and the value is
    # the level-by-level one; a call at depth d splits to level d + 1
    rng = sampler.stream("counting-bound", 0)
    searched, deepest = [], dims._deepest

    def counted(pairs, cells, tail, start, depth, best, target):
        searched.append(depth + 1)
        return deepest(pairs, cells, tail, start, depth, best, target)

    monkeypatch.setattr(dims, "_deepest", counted)
    reached = 0
    for trial in range(60):
        n, labels, cap = rng.randrange(1, 8), rng.choice((2, 3)), rng.randrange(0, 8)
        fam = _family(n, [[rng.randrange(labels) for _ in range(n)] for _ in range(rng.randrange(1, 12))])
        searched.clear()
        assert dims.natarajan_dim(fam, cap) == _level_by_level(fam, cap)
        bound = len(set(fam.functions)).bit_length() - 1
        assert max(searched, default=0) <= bound
        reached += max(searched, default=0) == bound
    assert reached > 10  # the searches that reach the bound stop there


def test_natarajan_witness_valid():
    fam = _family(3, list(product((0, 1), repeat=3)))
    idxs, g0, g1 = dims.natarajan_witness(fam, 3)
    assert idxs == (0, 1, 2)
    assert all(a != b for a, b in zip(g0, g1))
    fns = set(fam.functions)
    for bits in product((0, 1), repeat=3):
        mix = tuple(g1[i] if b else g0[i] for i, b in enumerate(bits))
        assert mix in fns
    assert dims.natarajan_witness(fam, 4) is None


def test_the_empty_set_is_shattered_by_any_function():
    # the witness at d = 0 is the empty set, unless there is no function
    fam = _family(2, [(0, 1)])
    assert dims.natarajan_witness(fam, 0) == ((), (), ())
    assert dims.natarajan_witness(_family(2, []), 0) is None
    assert dims.natarajan_witness(_family(0, [()]), 0) == ((), (), ())


def _cells(count, columns):
    """The non-empty cells that every value of every column splits
    ``count`` rows into: one per distinct restriction."""
    cells = [(1 << count) - 1]
    for masks in columns:
        cells = [part for c in cells for mask in masks if (part := c & mask)]
    return cells


def test_vcn_matching_slices():
    # every slice of the matching family has exactly two functions
    cls = families.matching_family(3).cls
    for columns in dims._slice_columns(cls):
        assert len(_cells(len(cls.table), columns)) == 2
    assert dims.vcn_k(cls) == 1


def test_vcn_bdeg():
    assert dims.vcn_k(families.bounded_degree_family(4, 2).cls) == 2
    assert dims.vcn_k(families.bounded_degree_family(3, 3).cls) == 2


def test_vcn_partization_invariance():
    # one slice rule, read in both settings: the vertex k's slices of a class
    # and the part slices of its partization give the same VCN_k and tau^k
    for spec, vcn, growth in (
        (families.matching_family(2), 1, (2, 2)),
        (families.bounded_degree_family(3, 1), 1, (2, 3)),
        (families.distance_family(4), 3, (2, 4)),
        (families.max_family(4), 3, (2, 4)),
        (families.bounded_degree_family(4, 2), 2, (2, 4)),
        (families.matching_family(3), 1, (2, 2)),
    ):
        cls, pcls = spec.cls, partize_class(spec.cls)
        assert dims.vcn_k(cls) == dims.vcn_k(pcls) == vcn
        for m, tau in zip((1, 2), growth):
            assert dims.growth_function(cls, m) == dims.growth_function(pcls, m) == tau


def test_slice_rule_splits_the_domain():
    # one missing vertex for a plain template, one entry per part for a
    # partite one; each entry splits the arity-k domain's coordinates
    for t in (
        templates.Template(1, (3,)),
        templates.Template(2, (2, 2)),
        templates.Template(3, (2, 1, 2)),
        templates.partize_template(templates.Template(2, (2, 3)), 2),
        templates.partize_template(templates.Template(3, (2, 2, 2)), 3),
    ):
        entries = t.slices(t.k)
        missing = [a for a, _, _ in entries]
        assert missing == (list(range(1, t.k + 1)) if t.partite else [t.k])
        domain = t.coords(t.domain(t.k)[0])
        for _, fixed, varied in entries:
            assert not set(fixed) & set(varied)
            assert sorted(fixed + varied) == sorted(domain)


def test_growth_function_trivia():
    cls = families.matching_family(2).cls
    single = HypothesisClass(
        cls.k, cls.template, cls.labels, (cls.members[0],), name="one"
    )
    assert dims.growth_function(single, 2) == 1
    # matching slices have two functions, so tau(m) is 2 for every m >= 1
    for m in (1, 2, 3):
        assert dims.growth_function(cls, m) == 2


def test_growth_bound_values():
    assert dims.growth_bound(0, 3, 2) == (1, 1)
    assert dims.growth_bound(1, 3, 2) == (4, 4)
    tight, loose = dims.growth_bound(2, 3, 3)
    assert tight == 4 * 3 * comb(3, 2) ** 2
    assert loose == 16 * comb(3, 2) ** 2
    assert tight <= loose


def test_growth_dominated_by_bound():
    for spec in (
        families.matching_family(2),
        families.bounded_degree_family(3, 2),
        families.distance_family(4),
    ):
        cls = spec.cls
        vcn = int(dims.vcn_k(cls))
        L = len(cls.labels)
        for m in range(1, 5):
            tight, loose = dims.growth_bound(vcn, m, L)
            measured = dims.growth_function(cls, m)
            assert measured <= tight <= loose


def test_ssp_bound_formula():
    assert dims.ssp_bound(2, 4, 2) == 25
    assert dims.ssp_bound(0, 7, 3) == 1


def test_family_on_full_domain_vc():
    spec = families.matching_family(2)
    fam = dims.family_on_full_domain(spec.cls)
    assert dims.vc_dim(fam, cap=4) == 2


def _reference_shattered(functions, idxs):
    """The shattering test written as a scan over restriction tuples, one
    element at a time."""
    restr = {tuple(f[i] for i in idxs) for f in functions}
    if len(restr) < 2 ** len(idxs):
        return None
    for g0 in restr:
        for g1 in restr:
            if any(a == b for a, b in zip(g0, g1)):
                continue
            if all(
                tuple(g1[i] if bit else g0[i] for i, bit in enumerate(bits)) in restr
                for bits in product((0, 1), repeat=len(idxs))
            ):
                return g0, g1
    return None


def _reference_witness(functions, n, d):
    """The lex-first d-set of positions in range(n) that the scan shatters,
    with the scan's pair, or None."""
    for idxs in combinations(range(n), d):
        pair = _reference_shattered(functions, idxs)
        if pair is not None:
            return idxs, pair
    return None


def test_the_witness_is_the_scans_lex_first_set():
    # binary and 3-label families, a third of them with their first column
    # copied at position 2 and a constant second column: at every d the witness
    # is None iff the scan finds no shattered d-set, and otherwise holds the
    # scan's lex-first set, split by a pair whose every mixture the family
    # takes there
    rng = sampler.stream("witness", 0)
    found = {2: 0, 3: 0}
    for trial in range(150):
        n, labels = rng.randrange(1, 7), rng.choice((2, 3))
        count = rng.randrange(1, min(labels**n, 40) + 1)
        rows = [[rng.randrange(labels) for _ in range(n)] for _ in range(count)]
        if n > 2 and trial % 3 == 0:
            for row in rows:
                row[0], row[1] = row[2], 1
        fam = _family(n, sorted({tuple(row) for row in rows}))
        for d in range(n + 2):
            witness, reference = dims.natarajan_witness(fam, d), _reference_witness(fam.functions, n, d)
            assert (witness is None) == (reference is None), (fam, d)
            if witness is None:
                continue
            idxs, g0, g1 = witness
            assert idxs == reference[0], (fam, d)
            assert all(a != b for a, b in zip(g0, g1))
            taken = {tuple(f[i] for i in idxs) for f in fam.functions}
            for bits in product((0, 1), repeat=d):
                assert tuple(g1[i] if bit else g0[i] for i, bit in enumerate(bits)) in taken
            found[labels] += d > 0
    assert min(found.values()) > 100


def _reference_tables(cls):
    """Each slice read on its own: its extension points, and the class
    table at its x's columns."""
    t, place = cls.template, templates.places(cls.template, cls.k)
    for _, fixed, varied in t.slices(cls.k):
        points = templates.points_over(t, varied)
        columns = [sum(place[key] * v for key, v in z.items()) for z in points]
        for x in templates.points_over(t, fixed):
            offset = sum(place[key] * v for key, v in x.items())
            yield points, cls.table[:, [offset + c for c in columns]]


def _reference_slices(cls):
    """Each slice as its domain and the distinct rows of its table."""
    for points, table in _reference_tables(cls):
        labelled = (tuple(cls.labels[i] for i in row) for row in distinct_rows(table)[0].tolist())
        yield tuple(map(canonical_key, points)), tuple(sorted(labelled))


def _reference_masks(cls):
    """Each slice's columns as the member masks of the labels taken there,
    in label order."""
    for _, table in _reference_tables(cls):
        yield [_masks(col) for col in table.T.tolist()]


def _masks(labels):
    """The masks of the members taking each label in ``labels``, in label
    order: bit i is set iff member i takes it."""
    masks = {}
    for i, label in enumerate(labels):
        masks[label] = masks.get(label, 0) | 1 << i
    return tuple(masks[label] for label in sorted(masks))


def _reference_growth(cls, m):
    best = 1
    for domain, functions in _reference_slices(cls):
        for idxs in combinations(range(len(domain)), min(m, len(domain))):
            best = max(best, len({tuple(f[i] for i in idxs) for f in functions}))
    return best


def _slice_classes():
    names = ("matching", "bdeg", "dist", "maxg", "highorder")
    built = {name: families.build_family(name).cls for name in names}
    match = families.matching_family(2).cls
    empty = HypothesisClass(match.k, match.template, match.labels, (), name="empty")
    return {
        **built,
        "partized matching(2)": partize_class(match),
        "partized bdeg(3,1)": partize_class(families.bounded_degree_family(3, 1).cls),
        "empty": empty,
    }


def _wide_class():
    """A class whose one split has 300 x's, more than a chunk holds."""
    t = templates.Template(2, (300, 1))
    members = tuple(
        Hypothesis(2, t, (0, 1, 2), lambda x, s=s: (x[(1,)] * s + x[(2,)]) % 3)
        for s in range(3)
    )
    return HypothesisClass(2, t, (0, 1, 2), members, name="wide")


@pytest.mark.parametrize("cells", [None, 1, 450])
def test_slices_read_as_each_slice_on_its_own(monkeypatch, cells):
    # one array pass per chunk of x's gives each slice's own member masks,
    # also when the cell budget splits a split's x's into several chunks: at
    # 450 cells matching(4) reads its 8 x's in chunks of 3, 3 and 2, and
    # dist(6) its 6 in chunks of 2; a chunk holds at most 256 x's
    if cells:
        monkeypatch.setattr(dims, "SLICE_CELLS", cells)
    for name, cls in {**_slice_classes(), "wide": _wide_class()}.items():
        read = [[tuple(filter(None, masks)) for masks in columns] for columns in dims._slice_columns(cls)]
        assert read == list(_reference_masks(cls)), name


def test_growth_counts_the_restriction_tuples():
    classes = _slice_classes()
    classes["highorder"] = families.highorder_family(3).cls
    for name, cls in classes.items():
        for m in (1, 2, 3):
            assert dims.growth_function(cls, m) == _reference_growth(cls, m), (name, m)


def _reference_dim(domain, functions, cap):
    return _level_by_level(dims.FunctionFamily(domain, functions), cap)


def _reference_vcn(cls, cap):
    """VCN_k as each slice's level-by-level scan, read on its own."""
    best = 0
    for domain, functions in _reference_slices(cls):
        d = _reference_dim(domain, functions, cap)
        if isinstance(d, dims.AtLeast):
            return d
        best = max(best, d)
    return best


def _random_class(rng, template, labels, count):
    """Up to ``count`` distinct members with label indices drawn at every
    domain point, a few of them copies of another point's column."""
    k, points = template.k, templates.domain_points(template, template.k)
    index = {canonical_key(x): i for i, x in enumerate(points)}
    rows = set()
    for _ in range(count):
        row = [rng.randrange(labels) for _ in points]
        for _ in range(rng.randrange(3)):
            row[rng.randrange(len(row))] = row[rng.randrange(len(row))]
        rows.add(tuple(row))
    members = tuple(
        Hypothesis(k, template, tuple(range(labels)), lambda x, r=row: r[index[canonical_key(x)]])
        for row in sorted(rows)
    )
    return HypothesisClass(k, template, tuple(range(labels)), members, name="random")


PROPERTY_TEMPLATES = (
    templates.Template(1, (5,)),
    templates.Template(2, (3, 1)),
    templates.Template(2, (2, 2)),
    templates.Template(3, (2, 1, 1)),
    templates.PartiteTemplate(2, {(1,): 2, (2,): 3, (1, 2): 1}),
    templates.partize_template(templates.Template(2, (2, 2)), 2),
)


def _property_classes():
    """Seeded random classes with 2, 3 and 4 labels over plain and partite
    templates, partizations of random plain classes, and the empty class."""
    rng = sampler.stream("dims-property", 0)
    classes = []
    for trial in range(36):
        t = PROPERTY_TEMPLATES[trial % len(PROPERTY_TEMPLATES)]
        classes.append(_random_class(rng, t, 2 + trial % 3, rng.randrange(1, 40)))
    for trial in range(6):
        plain = _random_class(rng, templates.Template(2, (2, 1)), 2 + trial % 2, rng.randrange(2, 12))
        classes.append(partize_class(plain))
    match = families.matching_family(2).cls
    classes.append(HypothesisClass(match.k, match.template, match.labels, (), name="empty"))
    return classes


@pytest.mark.parametrize("cells, kept", [(None, None), (1, 1), (150, 4)])
def test_the_search_matches_the_set_scans(monkeypatch, cells, kept):
    # at 150 cells a random class reads its x's a few per chunk, and at 1 one
    # per chunk; at 1 kept cell the search re-splits every level from the
    # rows, and at 4 from its second; every dimension, cap and growth value
    # is the reference's
    if cells:
        monkeypatch.setattr(dims, "SLICE_CELLS", cells)
        monkeypatch.setattr(dims, "KEPT_CELLS", kept)
    labels = set()
    for cls in _property_classes():
        labels.add(len(cls.labels))
        for cap in (0, 1, 2, 3, 6):
            assert repr(dims.vcn_k(cls, cap)) == repr(_reference_vcn(cls, cap)), (cls.template, cap)
        for m in range(1, 5):
            assert dims.growth_function(cls, m) == _reference_growth(cls, m), (cls.template, m)
    assert {2, 3, 4, 9} <= labels


@pytest.mark.parametrize("kept", [None, 1, 4])
def test_natarajan_matches_the_set_scan(monkeypatch, kept):
    # families with 2 to 4 values, duplicated rows and copied columns, at
    # every cap from 0 to 8, keeping every split or re-splitting levels
    if kept:
        monkeypatch.setattr(dims, "KEPT_CELLS", kept)
    rng = sampler.stream("natarajan-property", 0)
    for trial in range(100):
        n, labels = rng.randrange(0, 7), rng.choice((2, 3, 4))
        rows = [[rng.randrange(labels) for _ in range(n)] for _ in range(rng.randrange(0, 30))]
        if n > 2 and trial % 4 == 0:
            for row in rows:
                row[1] = row[0]
        fam = _family(n, rows)
        for cap in range(9):
            assert repr(dims.natarajan_dim(fam, cap)) == repr(_level_by_level(fam, cap)), (rows, cap)
