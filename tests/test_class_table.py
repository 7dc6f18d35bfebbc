"""The class table: every class holds its members' label indices
over ``templates.domain_points``, filled once when it is built, and the
dimension machinery reads that table instead of calling members."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from harity import adversaries, dims, families, reductions, templates
from harity.hypotheses import (
    Hypothesis,
    HypothesisClass,
    constant_hypothesis,
    partize_class,
)


def _at(build, *params):
    """One case per parameter tuple: the class that ``build`` returns."""
    name = build.__name__
    return [
        pytest.param(lambda p=p: build(*p).cls, id="-".join(map(str, (name, *p))))
        for p in params
    ]


def _closure_built():
    matching = families.matching_family(2).cls
    return [
        pytest.param(lambda: partize_class(matching), id="partized"),
        pytest.param(lambda: reductions.tag_class(matching, 2), id="tagged"),
        pytest.param(
            lambda: reductions.extend_codomain(matching, (2, "z"))[0], id="extended"
        ),
        pytest.param(lambda: _shattered(4), id="shattered"),
    ]


def _shattered(d):
    """The class {F_B : B a subset of [d]} of ``shattered_scenario(d)``."""
    sc = adversaries.shattered_scenario(d)
    members = tuple(
        sc.hypothesis(B) for r in range(d + 1) for B in combinations(range(d), r)
    )
    return HypothesisClass(1, sc.template, sc.labels, members, name=f"shattered({d})")


def _parity():
    return families.partition_family(4, lambda e: "ab"[min(e) % 2], name="parity")


SMALL_GRAPHS = [(n, d) for n in (2, 3, 4) for d in range(n + 1)]
# every built-in family at its defaults and at small parameters
BUILT_IN = [
    *_at(families.build_family, ("matching",), ("bdeg",), ("dist",), ("maxg",)),
    *_at(families.build_family, ("highorder",)),
    *_at(families.matching_family, (1,), (2,), (3,)),
    *_at(families.bounded_degree_family, *SMALL_GRAPHS),
    *_at(families.distance_family, (2,), (3,), (5,)),
    *_at(families.max_family, (2,), (3,), (5,)),
    *_at(families.highorder_family, (1,), (2,), (3,)),
    *_at(_parity, ()),
]


def _reference_masks(cls):
    """The slices' columns written out from the member closures, one call
    per member and extension point: each column as the member masks of the
    labels taken there, in label order."""
    t = cls.template
    for _, fixed, varied in t.slices(cls.k):
        points = templates.points_over(t, varied)
        for x in templates.points_over(t, fixed):
            columns = [[cls.labels.index(H({**x, **z})) for H in cls.members] for z in points]
            yield [
                tuple(sum(1 << i for i, v in enumerate(col) if v == u) for u in sorted(set(col)))
                for col in columns
            ]


@pytest.mark.parametrize("build", BUILT_IN + _closure_built())
def test_table_matches_the_closures(build):
    cls = build()
    points = templates.domain_points(cls.template, cls.k)
    assert cls.table.shape == (len(cls.members), len(points))
    assert cls.table.dtype == np.min_scalar_type(len(cls.labels))
    for H, row in zip(cls.members, cls.table.tolist()):
        assert [cls.labels[i] for i in row] == [H(x) for x in points]
    read = [[tuple(filter(None, masks)) for masks in columns] for columns in dims._slice_columns(cls)]
    assert read == list(_reference_masks(cls))


@pytest.fixture
def calls(monkeypatch):
    """Counts every Hypothesis call by the hypothesis called."""
    counts = Counter()
    inner = Hypothesis.__call__

    def counted(self, x):
        counts[id(self)] += 1
        return inner(self, x)

    monkeypatch.setattr(Hypothesis, "__call__", counted)
    return counts


def _read_everything(cls):
    dims.vcn_k(cls)
    dims.growth_function(cls, 2)
    dims.family_on_full_domain(cls)


def test_a_closure_class_calls_each_member_once_per_point(calls):
    t = templates.Template(2, (3, 2))
    members = tuple(
        Hypothesis(2, t, (0, 1, 2), lambda x, s=s: (x[(1,)] + x[(2,)] + s) % 3)
        for s in range(3)
    )
    cls = HypothesisClass(2, t, (0, 1, 2), members)
    points = len(templates.domain_points(t, 2))
    assert [calls[id(H)] for H in members] == [points] * 3
    assert sum(calls.values()) == 3 * points
    calls.clear()
    _read_everything(cls)
    assert sum(calls.values()) == 0


def test_partizing_a_tabulated_class_calls_no_member(calls):
    # the partized table is one gather of the plain table per pullback, equal
    # byte for byte to the partized members read point by point
    for cls in (families.matching_family(2).cls, families.bounded_degree_family(4, 2).cls):
        pcls = partize_class(cls)
        assert sum(calls.values()) == 0
        _read_everything(pcls)
        assert sum(calls.values()) == 0
        points = templates.domain_points(pcls.template, pcls.k)
        index = {v: i for i, v in enumerate(pcls.labels)}
        rows = [[index[F(x)] for x in points] for F in pcls.members]
        assert pcls.table.tobytes() == np.array(rows, pcls.table.dtype).tobytes()
        calls.clear()


@pytest.mark.parametrize("build", BUILT_IN)
def test_an_indicator_class_calls_no_member(calls, build):
    cls = build()
    assert sum(calls.values()) == 0
    _read_everything(cls)
    assert sum(calls.values()) == 0


def test_an_extended_class_carries_the_table_over(calls):
    cls = families.matching_family(3).cls
    ext, _ = reductions.extend_codomain(cls, (2,))
    assert sum(calls.values()) == 0
    assert ext.table.dtype == cls.table.dtype and (ext.table == cls.table).all()
    # 255 labels fit uint8 and 256 do not, so the carried table is widened
    t = templates.Template(1, (3,))
    labels = tuple(range(255))
    H = Hypothesis(1, t, labels, lambda x: 254 - x[(1,)], name="top")
    cls = HypothesisClass(1, t, labels, (H,))
    calls.clear()
    ext, _ = reductions.extend_codomain(cls, (255,))
    assert sum(calls.values()) == 0
    assert (cls.table.dtype, ext.table.dtype) == (np.uint8, np.uint16)
    assert ext.table.tolist() == cls.table.tolist() == [[254, 253, 252]]


def test_member_values_outside_the_labels_are_refused():
    t = templates.Template(1, (2,))
    bad = Hypothesis(1, t, (0, 1), lambda x: 2 * x[(1,)], name="bad")
    with pytest.raises(ValueError, match="outside the class labels"):
        HypothesisClass(1, t, (0, 1), (constant_hypothesis(1, t, (0, 1), 0), bad))
    # the same member is accepted once its value is a label
    assert len(HypothesisClass(1, t, (0, 1, 2), (bad,))) == 1


def test_duplicates_are_refused_from_either_fill():
    t = templates.Template(1, (3,))
    a = Hypothesis(1, t, (0, 1), lambda x: x[(1,)] % 2, name="a")
    b = Hypothesis(1, t, (0, 1), lambda x: int(x[(1,)] in (1,)), name="b")
    with pytest.raises(ValueError, match="duplicate hypothesis in class"):
        HypothesisClass(1, t, (0, 1), (a, b))
    cls = families.matching_family(2).cls
    twice = np.vstack([cls.table, cls.table[:1]])
    members = cls.members + cls.members[:1]
    with pytest.raises(ValueError, match="duplicate hypothesis in class"):
        HypothesisClass(2, cls.template, (0, 1), members, table=twice)


def test_an_empty_class_has_a_zero_dimension():
    t = templates.Template(2, (3, 1))
    empty = HypothesisClass(2, t, (0, 1), ())
    assert empty.table.shape == (0, len(templates.domain_points(t, 2)))
    assert dims.vcn_k(empty) == 0
    assert dims.growth_function(empty, 3) == 1
    assert dims.family_on_full_domain(empty).functions == ()


def test_the_table_dtype_fits_the_label_count():
    t = templates.Template(1, (3,))
    labels = tuple(range(300))
    H = Hypothesis(1, t, labels, lambda x: 299 - x[(1,)], name="top")
    cls = HypothesisClass(1, t, labels, (H,))
    assert cls.table.dtype == np.uint16
    assert cls.table.tolist() == [[299, 298, 297]]
