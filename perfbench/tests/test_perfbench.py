"""Tests of the benchmark itself; they are not part of the tier-1 suite.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.import_harity()

from tracer import MODULES, layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _attributes():
    """Every attribute of every harity module and of the classes they
    define."""
    snap = {}
    for name in MODULES:
        module = importlib.import_module(f"harity.{name}")
        snap[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                snap[f"{name}.{attr}"] = dict(vars(value))
    return snap


def _counts(metrics):
    return {k: v for k, v in metrics.items() if k.endswith((".calls", ".atoms"))}


@pytest.fixture(scope="module")
def traces():
    """One traced round of every workload, and harity's attributes before."""
    before = _attributes()
    return before, {name: worker.trace_run(name, 0, None, rounds=1) for name in WORKLOADS}


def test_tracing_restores_every_attribute(traces):
    before, _ = traces
    after = _attributes()
    assert before.keys() == after.keys()
    for owner, attrs in before.items():
        assert attrs.keys() == after[owner].keys(), owner
        for attr, value in attrs.items():
            assert after[owner][attr] is value, f"{owner}.{attr}"


def test_traced_counts_repeat_exactly(traces):
    first = traces[1]["exact-oracles"]
    second = worker.trace_run("exact-oracles", 0, None, rounds=1)
    assert first["failed"] == second["failed"] == 0
    assert _counts(first["metrics"]) == _counts(second["metrics"])
    assert first["metrics"]["templates.config_law.atoms"] > 0
    assert first["metrics"]["cli.main.calls"] == 4


def test_fast_route_share(traces):
    runs = traces[1]
    assert runs["mc-fastpath"]["metrics"]["learners.fast_route_frac"] == 1
    assert runs["mc-long"]["metrics"]["learners.check_concentration.calls"] > 0
    assert runs["mc-long"]["metrics"]["learners.fast_route_frac"] == 0


def test_stated_shares(traces):
    """The per-layer predictions the workloads were chosen for."""
    runs = traces[1]

    def share(name, *layers):
        run = runs[name]
        return sum(run["metrics"][f"{layer}.self_s"] for layer in layers) / run["busy_s"]

    def calls(name, prefix):
        metrics = runs[name]["metrics"]
        return sum(v for k, v in metrics.items() if k.startswith(prefix) and k.endswith(".calls"))

    assert share("mc-long", "indexing.pullback", "indexing.pullback_partite") >= 0.5
    total_loss = runs["mc-short"]["inclusive_s"]["losses.total_loss"]
    assert total_loss / runs["mc-short"]["busy_s"] >= 0.5
    fastpath = [n for n in layer_names() if n.startswith("fastpath.")]
    assert share("mc-fastpath", *fastpath) >= 0.5
    assert calls("mc-long", "fastpath.") == calls("mc-short", "fastpath.") == 0
    assert calls("exact-oracles", "fastpath.") == 0
    assert calls("exact-oracles", "sampler.labeled_sample") == 0
    assert all(run["failed"] == 0 for run in runs.values())


def test_perturbed_reference_is_a_failed_operation():
    refs = worker.load_references("mc-fastpath", 0)
    victim = "r0/verify-uc/matching4/m10"
    perturbed = dict(refs, **{victim: "UCReport(0/1,40,0,0)"})
    out = worker.timed_run("mc-fastpath", 0, 0, lambda: perturbed)
    assert out["rounds"] == 1
    assert out["attempted"] == len([k for k in refs if k.startswith("r0/")])
    assert out["failed"] == 1
    assert out["failures"][0].startswith(victim)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*bench["command"], "--workload", "mc-short", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
