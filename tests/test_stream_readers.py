"""The stream is decoded in one module: outside ``sampler.py``, no module of
``src/harity`` names the stream readers (the block reader ``_uniform_blocks``,
``_decode``, ``_support``), so every array route reads
the stream next to ``labeled_sample``, whose order it must follow.
``fastpath.py`` is exempt: its contexts are the one other array route, and
ROADMAP item 2(d) deletes them.  ``learners.py`` names no dict sampler (``labeled_sample``, ``star``):
its checks and its PAC sweep read samples by unit code only.
``reductions.py`` names no ``star``: its exact laws read F's labels by unit
code too.  Every exact oracle outside ``sampler.py`` reads ``exact_read``'s
integer masses: no other module names the dict enumerator ``joint_law``.
mu's exact law is cached where it is built (``losses.law_plan``),
so no caller outside the modules that read it (``LAW_READERS``) names it to
build and pass it on.  Only ``sampler.py`` builds an ``ArraySample`` or reads
its rows (``ROW_FIELDS``): every other module reads a sample through
``sampler.values`` or the Mapping view, and names the type only to test a
sample's type (``type(x) is sampler.ArraySample``)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "harity"
EXEMPT = ("sampler.py", "fastpath.py")
READERS = ("_uniform_blocks", "_decode", "_support")
DICT_SAMPLERS = ("labeled_sample", "star")  # no learner names these
LAW_READERS = ("fastpath.py", "learners.py", "losses.py")  # the modules naming law_plan
ROW_FIELDS = ("_keys", "_row", "_alphabet", "_dict", "_items")  # an ArraySample's insides


def stream_readers(tree, names=READERS):
    """The readers (or other names) a module names: as a name, an attribute
    or an import."""
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and n.id in names:
            found.add(n.id)
        elif isinstance(n, ast.Attribute) and n.attr in names:
            found.add(n.attr)
        elif isinstance(n, ast.alias) and n.name in names:
            found.add(n.name)
    return found


def test_only_the_sampler_reads_the_stream():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in EXEMPT
        for name in stream_readers(ast.parse(path.read_text()))
    }
    assert sorted(found) == []


def test_the_check_sees_a_planted_reader():
    tree = ast.parse(
        "from .sampler import _decode\n"
        "def g(w):\n    _support = w\n    return _support\n"
        "def h(mu, m):\n    return templates._supports(mu, m)\n"
        "def i(rngs, n):\n    yield from sampler._uniform_blocks(rngs, n)\n"
    )
    assert stream_readers(tree) == {"_decode", "_support", "_uniform_blocks"}


def test_no_learner_draws_a_dict_sample():
    # the checks and the PAC sweep read samples by unit code only
    tree = ast.parse((SRC / "learners.py").read_text())
    assert stream_readers(tree, DICT_SAMPLERS) == set()


def test_the_check_sees_a_planted_dict_sample():
    tree = ast.parse(
        "from .hypotheses import star\n"
        "def f(sc, m, rng):\n    return sampler.labeled_sample(sc, m, rng)\n"
        "def g(F, x, m):\n    star_ = F\n    return hypotheses.star(F, x, m)\n"
    )
    assert stream_readers(tree, DICT_SAMPLERS) == {"labeled_sample", "star"}


def test_no_exact_law_labels_a_dict_sample():
    # both departization laws read F's labels by unit code
    tree = ast.parse((SRC / "reductions.py").read_text())
    assert stream_readers(tree, ("star",)) == set()


def test_the_check_sees_a_planted_star():
    tree = ast.parse(
        "from .hypotheses import Hypothesis, star\n"
        "def law(F, joined, m):\n    return {0: star(F, joined, m)}\n"
    )
    assert stream_readers(tree, ("star",)) == {"star"}


def test_only_the_sampler_names_joint_law():
    found = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "sampler.py"
        and stream_readers(ast.parse(path.read_text()), ("joint_law",))
    }
    assert sorted(found) == []


def test_the_check_sees_a_planted_joint_law():
    for source in (
        "from .sampler import joint_law\n",
        "def f(mu, m, mu2):\n    return list(sampler.joint_law(mu, m, mu2))\n",
        "def g(law):\n    joint_law = law\n    return joint_law\n",
    ):
        assert stream_readers(ast.parse(source), ("joint_law",)) == {"joint_law"}


def test_no_caller_threads_the_law():
    found = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name not in LAW_READERS
        and stream_readers(ast.parse(path.read_text()), ("law_plan",))
    }
    assert sorted(found) == []


def test_the_check_sees_a_planted_law():
    for source in (
        "from .losses import law_plan\n",
        "def f(sc, k):\n    return losses.law_plan(sc.mu, k, None)\n",
        "def g(mu):\n    law_plan = mu\n    return law_plan\n",
    ):
        assert stream_readers(ast.parse(source), ("law_plan",)) == {"law_plan"}


def array_sample_uses(tree):
    """Where a module builds an ArraySample or reads its rows: each use of
    the type other than as the right side of ``type(...) is``, and each
    attribute read of ``ROW_FIELDS``."""
    tests = {
        id(n.comparators[0])
        for n in ast.walk(tree)
        if isinstance(n, ast.Compare)
        and isinstance(n.ops[0], (ast.Is, ast.IsNot))
        and isinstance(n.left, ast.Call)
        and getattr(n.left.func, "id", None) == "type"
    }
    found = set()
    for n in ast.walk(tree):
        name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
        if isinstance(n, ast.alias):
            name = n.name
        if name == "ArraySample" and id(n) not in tests:
            found.add("ArraySample")
        elif isinstance(n, ast.Attribute) and n.attr in ROW_FIELDS:
            found.add(n.attr)
    return found


def test_only_the_sampler_builds_or_reads_array_samples():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "sampler.py"
        for name in array_sample_uses(ast.parse(path.read_text()))
    }
    assert sorted(found) == []


def test_the_check_sees_a_planted_array_sample():
    tree = ast.parse(
        "from .sampler import ArraySample\n"
        "def f(m, keys, row):\n    return sampler.ArraySample(m, keys, row)\n"
        "def g(y):\n    return y._row, y._alphabet\n"
        "def h(x):\n    return x._items()\n"
    )
    assert array_sample_uses(tree) == {"ArraySample", "_row", "_alphabet", "_items"}
    allowed = "def size(x):\n    return x.m if type(x) is sampler.ArraySample else 0\n"
    assert array_sample_uses(ast.parse(allowed)) == set()
