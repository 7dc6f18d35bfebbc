"""Runs one workload inside this process and prints one JSON line.

run.py starts this script in a fresh interpreter for every measurement:

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
        (--setup-only | --seconds S | --trace)

``T`` is the ``time.monotonic()`` reading taken just before the process was
started, so ``setup_s`` covers interpreter start, ``import harity`` and the
workload's construction (less the speed slices timed at its start).  The timed phase runs whole rounds until ``S``
seconds have passed and times only the calls into harity.  The traced phase
runs a fixed number of rounds, first plainly and then traced, so its counts
repeat exactly and the two timings give the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"


def import_harity():
    """Import harity from the checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import harity.indexing

    where = Path(harity.indexing.__file__).resolve()
    if where.parent != src / "harity":
        raise ImportError(f"harity was imported from {where}, not from {src}")


def load_references(name, seed):
    """The pinned results for (workload, seed), or None when not pinned."""
    pins = json.loads(REFERENCES.read_text())
    return pins.get(name, {}).get(str(seed))


def encode(data):
    """A canonical text form of an exact result.  Forms longer than 64
    characters, and raw bytes, are replaced by their SHA-256."""
    if isinstance(data, bytes):
        return "sha256:" + hashlib.sha256(data).hexdigest()
    text = _canon(data)
    if len(text) > 64:
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return text


def _canon(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (bool, int, str)) or v is None:
        return repr(v)
    if isinstance(v, (tuple, list)):
        return "(" + ",".join(_canon(x) for x in v) + ")"
    if isinstance(v, (set, frozenset)):
        return "{" + ",".join(sorted(_canon(x) for x in v)) + "}"
    if isinstance(v, dict):
        items = sorted(f"{_canon(k)}:{_canon(x)}" for k, x in v.items())
        return "{" + ",".join(items) + "}"
    if is_dataclass(v):
        inner = ",".join(_canon(getattr(v, f.name)) for f in fields(v))
        return f"{type(v).__name__}({inner})"
    raise TypeError(f"no canonical form for {type(v).__name__}")


# The machine this runs on may be shared, and its speed can drift by tens of
# percent within a minute.  Each process therefore times a fixed stdlib-only
# routine, the speed slice, next to what it measures: SETUP_SLICES slices just
# before and just after set-up, and after each timed operation about one
# slice per SLICE_EVERY_S of its time.  ``setup_s`` and ``work_per_s`` are
# rescaled by the slices measured next to them to a machine on which a slice
# takes REFERENCE_SLICE_S, which a quiet 2-core 2.1 GHz x86-64 machine gives.
# No change to harity can change a slice's time; the unscaled values are
# reported beside them.
SLICE_EVERY_S = 0.0025
SETUP_SLICES = 40
REFERENCE_SLICE_S = 0.00027


def speed_slice():
    """A fixed mix of the interpreter work harity does: tuple-keyed dicts,
    combinations, seeded draws and rational sums."""
    rng = random.Random(7)
    x = {c: rng.random() for c in combinations(range(1, 13), 2)}
    acc = Fraction(0)
    for p in permutations(range(1, 6), 2):
        acc += Fraction(int(x[tuple(sorted(p))] * 8), 9)
    counts = {}
    for i in range(400):
        counts[(i % 7, i % 11)] = counts.get((i % 7, i % 11), 0) + 1
    return acc, len(counts)


def slices_s(count):
    """Seconds taken by ``count`` speed slices."""
    start = time.perf_counter()
    for _ in range(count):
        speed_slice()
    return time.perf_counter() - start


class SetupClock:
    """Set-up time since ``spawned_at``, the ``time.monotonic()`` reading
    taken just before this process was started."""

    def __init__(self, spawned_at):
        self.spawned_at = spawned_at
        self.before_s = slices_s(SETUP_SLICES)

    def stop(self):
        setup_s = time.monotonic() - self.spawned_at - self.before_s
        slice_s = (self.before_s + slices_s(SETUP_SLICES)) / (2 * SETUP_SLICES)
        return {
            "setup_s": setup_s * REFERENCE_SLICE_S / slice_s,
            "unscaled_setup_s": setup_s,
        }


class Tally:
    """Runs operations, times the calls into harity, and checks results."""

    def __init__(self, refs, pause=contextlib.nullcontext):
        self.refs = refs
        self.pause = pause
        self.attempted = self.failed = self.work = 0
        self.busy_s = 0.0
        self.digests = {}
        self.failures = []

    def run(self, op):
        """Runs ``op`` and returns the seconds its call took."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises is a failed one
            elapsed = time.perf_counter() - start
            self.busy_s += elapsed
            self._fail(op, f"raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        self.work += op.work
        try:
            with self.pause():
                data = result if op.view is None else op.view(result)
                code = encode(data)
                holds = op.check is None or op.check(data)
        except Exception as exc:
            self._fail(op, f"check raised {type(exc).__name__}: {exc}")
            return elapsed
        self.digests[op.id] = code
        if self.refs is not None and self.refs.get(op.id) != code:
            self._fail(op, f"result {code} != pinned {self.refs.get(op.id)}")
        elif not holds:
            self._fail(op, f"invariant violated by {code}")
        return elapsed

    def _fail(self, op, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.id}: {why}")

    def summary(self):
        return {
            "pinned": self.refs is not None,
            "attempted": self.attempted,
            "failed": self.failed,
            "work": self.work,
            "busy_s": self.busy_s,
            "failures": self.failures,
            "digests": self.digests,
        }


@contextlib.contextmanager
def workload_env(call=None):
    """The workloads' environment: a scratch directory inside the checkout
    for the command-line runs, and the tracer's ``call`` when tracing."""
    from workloads import Env

    scratch = ROOT / ".perfbench-tmp"
    tmpdir = scratch / str(os.getpid())
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        yield Env(tmpdir) if call is None else Env(tmpdir, call)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()


def timed_run(name, seed, seconds, get_refs, clock=None):
    """Whole rounds until ``seconds`` have passed; returns the summary.

    ``get_refs()`` gives the pinned results; it is called once set-up is
    over, so that set-up time is the program's alone."""
    from workloads import ROUNDS, WORKLOADS, build

    with workload_env() as env:
        round_ops = build(name, seed, env)
        setup = {} if clock is None else clock.stop()
        tally = Tally(get_refs())
        slice_times = []
        scaled_s = 0.0
        started = time.perf_counter()
        done = 0
        while True:
            for op in round_ops(done % ROUNDS):
                elapsed = tally.run(op)
                count = max(1, round(elapsed / SLICE_EVERY_S))
                slice_s = slices_s(count) / count
                slice_times.append(slice_s)
                # each operation is rescaled by the speed measured next to it
                scaled_s += elapsed * REFERENCE_SLICE_S / slice_s
            done += 1
            if time.perf_counter() - started >= seconds:
                break
    out = tally.summary()
    out.update(
        **setup,
        work_unit=WORKLOADS[name][1],
        rounds=done,
        slice_s=statistics.median(slice_times),
        unscaled_work_per_s=tally.work / tally.busy_s,
        work_per_s=tally.work / scaled_s,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return out


def trace_run(name, seed, refs, rounds=None):
    """The traced run: the construction and ``rounds`` rounds traced, the
    same rounds untraced for the overhead.  Returns the summary with the
    per-layer metrics."""
    from tracer import Tracer
    from workloads import WORKLOADS, build

    count = WORKLOADS[name][2] if rounds is None else rounds
    tracer = Tracer()
    with workload_env(tracer.call) as env:
        tracer.install()
        try:
            round_ops = build(name, seed, env)
        finally:
            tracer.uninstall()
        ops = [op for r in range(count) for op in round_ops(r)]
        plain = Tally(refs)
        for op in ops:
            plain.run(op)
        traced = Tally(refs, tracer.paused)
        tracer.install()
        try:
            for op in ops:
                traced.run(op)
        finally:
            tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced.busy_s / plain.busy_s - 1
    out = traced.summary()
    out.update(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        failures=(plain.failures + traced.failures)[:20],
        work_unit=WORKLOADS[name][1],
        rounds=count,
        plain_busy_s=plain.busy_s,
        inclusive_s=tracer.inclusive(),
        metrics=metrics,
    )
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    clock = SetupClock(args.spawned_at)
    import_harity()
    from workloads import build

    if args.setup_only:
        with workload_env() as env:
            build(args.workload, args.seed, env)
            out = clock.stop()
    elif args.trace:
        out = trace_run(args.workload, args.seed, load_references(args.workload, args.seed))
    else:
        out = timed_run(
            args.workload,
            args.seed,
            args.seconds,
            lambda: load_references(args.workload, args.seed),
            clock,
        )
    import numpy

    out["numpy"] = numpy.__version__
    print(json.dumps(out))


if __name__ == "__main__":
    main()
