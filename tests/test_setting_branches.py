"""The setting lives in the template: outside ``templates.py`` (which owns the
per-setting rules) and ``fastpath.py`` (whose contexts are per-setting by
design), a function may read ``.partite`` or ``.setting`` or call
``indexing.partite_keys`` only where the maths differs by setting.  A new
setting fork must be added to ALLOWED with its reason, or written over the
template's methods instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "harity"
EXEMPT = ("templates.py", "fastpath.py")

ALLOWED = {
    "adversaries.vcn_nonlearn_scenario": "the slice construction needs a partite class",
    "cli._scenario": "names the 0/1 loss's setting",
    "cli.reduce_cmd": "partization needs a non-partite class",
    "cli.verify_uc_cmd": "the command refuses partite families",
    "dims._slices": "partite and non-partite slices are different families",
    "hypotheses.HypothesisClass.partite": "reads the setting from the template",
    "hypotheses.partize_class": "partization needs a non-partite class",
    "indexing.encode_config": "subset keys and partite keys print differently",
    "learners._split": "a partite sample splits per part, a plain one by pullback",
    "learners._trial_losses": "each setting has its own fastpath context",
    "learners.derandomize": "the concentration constant is k^2 or k",
    "learners.sample_size": "reads the sample size off either key shape",
    "losses.extend_with_neutral": "the symbol touches a pattern entry or a label",
    "losses.loss_metadata": "patterns over S_k or single labels, S_k symmetry",
    "losses.wrap_agnostic": "copies the loss's setting onto the agnostic loss",
    "reductions.neutral_symbol_learner": "replaces by image set or entrywise",
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
