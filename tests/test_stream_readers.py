"""The stream is decoded in one module: outside ``sampler.py``, no module of
``src/harity`` names the bulk stream readers (``_uniforms``, ``_decode``,
``_support``), so every array route reads the stream next to
``labeled_sample``, whose order it must follow.  ``fastpath.py`` is exempt:
its contexts are the one other array route, and ROADMAP item 2(d) deletes
them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "harity"
EXEMPT = ("sampler.py", "fastpath.py")
READERS = ("_uniforms", "_decode", "_support")


def stream_readers(tree):
    """The readers a module names: as a name, an attribute or an import."""
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and n.id in READERS:
            found.add(n.id)
        elif isinstance(n, ast.Attribute) and n.attr in READERS:
            found.add(n.attr)
        elif isinstance(n, ast.alias) and n.name in READERS:
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
        "def f(rng, n):\n    return sampler._uniforms(rng, n)\n"
        "def g(w):\n    _support = w\n    return _support\n"
        "def h(mu, m):\n    return templates._supports(mu, m)\n"
    )
    assert stream_readers(tree) == {"_decode", "_uniforms", "_support"}
