"""The benchmark's tracer wraps harity functions by name; a rename in the
library must fail here, not in ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    modules = {m: importlib.import_module(f"harity.{m}") for m in tracer.MODULES}
    missing = []
    for module, attrs in tracer.TARGETS.items():
        for attr in attrs:
            owner, _, name = attr.rpartition(".")
            scope = getattr(modules[module], owner, None) if owner else modules[module]
            found = vars(scope).get(name) if scope is not None else None
            if not callable(found):
                missing.append(f"{module}.{attr}")
    for name in tracer.FAMILY_BUILDERS:
        if not callable(getattr(modules["families"], name, None)):
            missing.append(f"families.{name}")
    assert not missing
