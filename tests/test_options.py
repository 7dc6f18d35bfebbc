"""Every option has a caller: each parameter with a default, on a top-level
function or method in ``src/harity`` (dunders aside), and each field with a
default of a top-level dataclass there (a parameter of its constructor), is
passed by keyword or by position in some call in ``src/``, ``tests/`` or
``perfbench/``.  A default that no call overrides is a constant: make it one,
or add the parameter to ALLOWED with its reason.

Calls match by the bare name of the function or attribute called, so two
functions that share a name share their calls: a clash can hide an unused
option, but never flags a used one.  A call that unpacks ``*args`` or
``**kwargs`` counts as passing every parameter it could reach."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "harity"
CALLERS = ("src", "tests", "perfbench")

ALLOWED = {
    "adversaries.nfl_lower_bound.s": "a parameter of the paper's displayed bound",
    "learners.concentration_bound.sup_norm": "a parameter of the paper's displayed bound",
    "learners.infvcn_m_pac.sup_norm": "a parameter of the paper's displayed bound",
}


def _functions(tree):
    """Each top-level function and method but the dunders, with its qualified
    name and the number of leading parameters a call does not pass (a
    method's self)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item, 1


def _is_dataclass(node):
    return any(
        getattr(d, "id", None) == "dataclass"
        or getattr(getattr(d, "func", None), "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _fields(node):
    """A dataclass's constructor parameters in order, each with whether it
    has a default (``init=False`` fields are not parameters)."""
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {kw.arg: kw.value for kw in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            yield item.target.id, bool({"default", "default_factory"} & keywords.keys())
        else:
            yield item.target.id, value is not None


def options(tree):
    """(name, parameter, position) for each parameter with a default, where
    position is the index a call passes it at, or None if keyword-only; a
    dataclass field is a parameter of the class's own name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for i, (param, has_default) in enumerate(_fields(node)):
                if has_default:
                    yield node.name, param, i
    for name, node, skip in _functions(tree):
        args = node.args
        positional = args.posonlyargs + args.args
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield name, positional[i].arg, i - skip
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, param.arg, None


def calls(trees):
    """The bare called name -> every call made under it."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", None) or getattr(func, "id", None)
                out.setdefault(name, []).append(node)
    return out


def _passes(call, param, position):
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return starred or len(call.args) > position


def unused_options(modules, callers):
    """``module.function.parameter`` for each option that no call in
    ``callers`` passes; ``modules`` maps a module name to its tree."""
    found = set()
    for module, tree in modules.items():
        for name, param, position in options(tree):
            bare = name.rsplit(".", 1)[-1]
            if not any(_passes(c, param, position) for c in callers.get(bare, ())):
                found.add(f"{module}.{name}.{param}")
    return found


def test_every_option_has_a_caller():
    modules = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    trees = [
        ast.parse(path.read_text())
        for folder in CALLERS
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    found = unused_options(modules, calls(trees))
    assert sorted(found - ALLOWED.keys()) == [], "an option no caller sets"
    assert sorted(ALLOWED.keys() - found) == [], "an allowed option has a caller"


def test_the_check_sees_a_planted_option():
    defined = ast.parse(
        "def f(a, b=1, *, c=2):\n    pass\n"
        "def g(a, b=1):\n    pass\n"
        "def h(a=1):\n    pass\n"
        "def i(a=1, *, b=2):\n    pass\n"
        "class K:\n"
        "    def m(self, a=1, b=2):\n        pass\n"
        "    def __init__(self, a=1):\n        pass\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    a: int\n"
        "    b: object = field(compare=False)\n"
        "    c: int = 1\n"
        "    d: object = field(default=None, compare=False)\n"
        "    e: int = field(default=0, init=False)\n"
    )
    callers = calls(
        [ast.parse("f(0, c=3)\ng(0, 1)\nh(*xs)\nmod.i(**kw)\nK().m(0)\nD(0, 1, 2)\n")]
    )
    assert unused_options({"mod": defined}, callers) == {
        "mod.f.b",
        "mod.K.m.b",
        "mod.D.d",
    }
