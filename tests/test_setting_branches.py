"""The setting lives in the template: outside ``templates.py`` (which owns the
per-setting rules) and ``fastpath.py`` (whose contexts are per-setting by
design), a function may read ``.partite`` or ``.setting`` or call
``indexing.partite_keys`` only where the maths differs by setting.  A new
setting fork must be added to ALLOWED with its reason, or written over the
template's methods instead.  No module names a setting by a string: a
"partite" or "nonpartite" constant outside a docstring is a fork that the
attribute check cannot see, and only STRING_ALLOWED may hold one.

Declared metadata chooses nothing: a hypothesis's ``declared_rank`` and a
loss's ``symmetric`` are never verified, so no function may read them except
the constructors that copy them onto a derived object (COPIERS)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "harity"
EXEMPT = ("templates.py", "fastpath.py")

ALLOWED = {
    "adversaries.vcn_nonlearn_scenario": "the slice construction needs a partite class",
    "cli.reduce_cmd": "partization needs a non-partite class",
    "hypotheses.HypothesisClass.partite": "reads the setting from the template",
    "hypotheses.partize_class": "partization needs a non-partite class",
    "indexing.encode_config": "subset keys and partite keys print differently",
    "learners._split": "a partite sample splits per part, a plain one by pullback",
    "learners._trial_losses": "each setting has its own fastpath context",
    "learners.sample_size": "reads the sample size off either key shape",
    "losses.extend_with_neutral": "the symbol touches a pattern entry or a label",
    "reductions._check_law_inputs": "each departization law reads one setting",
    "sampler.Scenario.__post_init__": "reads the setting from mu's template",
}


def _reads_setting(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and n.attr in ("partite", "setting"):
            if isinstance(n.ctx, ast.Load):
                return True
        if isinstance(n, ast.Call):
            func = n.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name == "partite_keys":
                return True
    return False


def _functions(tree):
    """Each top-level function and method with its qualified name; a nested
    function counts as part of the function it is defined in."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def setting_forks():
    out = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name in EXEMPT:
            continue
        for name, node in _functions(ast.parse(path.read_text())):
            if _reads_setting(node):
                out.add(f"{path.stem}.{name}")
    return out


def test_setting_forks_are_the_allowed_ones():
    found = setting_forks()
    assert sorted(found - ALLOWED.keys()) == [], "a new setting fork"
    assert sorted(ALLOWED.keys() - found) == [], "an allowed fork is gone"


def test_the_check_sees_a_planted_fork():
    tree = ast.parse(
        "def f(sc):\n    return 1 if sc.mu.template.partite else 2\n"
        "def g(x):\n    return indexing.partite_keys(x)\n"
        "def h(ell):\n    return ell.k\n"
    )
    assert [name for name, node in _functions(tree) if _reads_setting(node)] == [
        "f",
        "g",
    ]


# the field that Scenario's ``partite=`` keyword fills is named by a string
STRING_ALLOWED = {"sampler.Scenario.__post_init__"}
SETTING_NAMES = ("partite", "nonpartite")


def _docstrings(tree):
    """The ids of the module's, each class's and each function's docstring."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield id(first.value)


def setting_strings(tree, module):
    """Each function (or ``module`` itself, outside every function) holding a
    "partite" or "nonpartite" string constant outside a docstring."""
    docstrings = set(_docstrings(tree))
    owner = {
        id(n): f"{module}.{name}" for name, f in _functions(tree) for n in ast.walk(f)
    }
    return {
        owner.get(id(n), module)
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant)
        and n.value in SETTING_NAMES
        and id(n) not in docstrings
    }


def test_no_module_names_a_setting_by_a_string():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= setting_strings(ast.parse(path.read_text()), path.stem)
    assert found == STRING_ALLOWED


def test_the_check_sees_a_planted_string_fork():
    tree = ast.parse(
        '"""A module about the "partite" setting."""\n'
        'MODE = "nonpartite"\n'
        "def f(ell):\n"
        '    """Reads "partite" losses."""\n'
        '    return 1 if ell.mode == "partite" else 2\n'
        "def g(k):\n"
        '    return zero_one_loss((0, 1), k, setting="partite" if k else None)\n'
        "def h(x):\n"
        '    """partite"""\n'
        '    return "partite graphs"\n'
        "class C:\n"
        '    kind = "partite"\n'
        "    def m(self):\n"
        '        """nonpartite"""\n'
    )
    assert setting_strings(tree, "mod") == {"mod", "mod.f", "mod.g"}


DECLARED = ("declared_rank", "symmetric")
COPIERS = {
    "hypotheses.partize_hypothesis",
    "reductions.untagged_hypothesis",
    "reductions.extend_codomain",
}


def _reads_declared(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and n.attr in DECLARED:
            if isinstance(n.ctx, ast.Load):
                return True
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr":
            if any(getattr(a, "value", None) in DECLARED for a in n.args[1:2]):
                return True
    return False


def declared_readers():
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for name, node in _functions(ast.parse(path.read_text())):
            if _reads_declared(node):
                out.add(f"{path.stem}.{name}")
    return out


def test_declared_metadata_is_only_copied():
    assert declared_readers() == COPIERS


def test_the_check_sees_a_planted_declared_read():
    tree = ast.parse(
        "def f(H):\n    return H.declared_rank == 1\n"
        "def g(ell):\n    return getattr(ell, 'symmetric', False)\n"
        "def h(H):\n    return Hypothesis(H.k, declared_rank=1, symmetric=True)\n"
        "def i(ell):\n    ell.symmetric = True\n"
    )
    found = [name for name, node in _functions(tree) if _reads_declared(node)]
    assert found == ["f", "g"]
