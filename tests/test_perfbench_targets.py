"""The benchmark's tracer wraps harity functions by name and its workloads
call harity's public signatures; a rename or a signature change in the
library must fail here, not in ``perfbench/run.py``."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load("tracer")
    modules = {m: importlib.import_module(f"harity.{m}") for m in tracer.MODULES}
    missing = []
    functions = []
    for module, attrs in tracer.TARGETS.items():
        for attr in attrs:
            owner, _, name = attr.rpartition(".")
            scope = getattr(modules[module], owner, None) if owner else modules[module]
            found = vars(scope).get(name) if scope is not None else None
            if not callable(found):
                missing.append(f"{module}.{attr}")
            functions.append(found)
    for name in tracer.FAMILY_BUILDERS:
        if not callable(getattr(modules["families"], name, None)):
            missing.append(f"families.{name}")
    assert not missing
    # an alias would report two traced names' calls under one of them
    assert len({id(f) for f in functions}) == len(functions)


def test_every_workload_builds_its_first_round(tmp_path):
    # builds the families, scenarios and learners and lists round 0's
    # operations without running any of them
    workloads = _load("workloads")
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, 0, workloads.Env(tmp_path))(0)
        assert ops and all(callable(op.call) for op in ops)
