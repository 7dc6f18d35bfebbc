"""harity's benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the workloads,
metrics and default run length come from BENCHMARK.json at its root.  Every
measurement runs in a fresh single-threaded interpreter (perfbench/worker.py),
one at a time, so set-up time and peak memory belong to that workload alone.

With ``--trace 0`` the run starts ``SETUP_PROBES`` interpreters that only set
the workload up, then one that also runs the timed phase, and reports the
end-to-end metrics: ``work_per_s`` (work done per second spent in harity),
``setup_s`` (the median set-up time of all of them), both rescaled to a
reference machine speed (see worker.py), and ``peak_rss_mib`` (the timed
process's peak resident memory).  With ``--trace 1`` it reports the
per-layer metrics of one traced run instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the code and the counts behind the result.  An
operation fails if it raises, breaks its invariant or differs from its
pinned reference.  Without the program's sources the run exits with code 2.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
DEADLINE_S = 170


def source_digest():
    """SHA-256 over harity's sources, so a result names the code it measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "harity").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def spawn(args, deadline):
    """Run the worker in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        # the runner's `git describe` must not look above the checkout
        GIT_CEILING_DIRECTORIES=str(ROOT.parent),
    )
    env.pop("PYTHONPATH", None)
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(spawned_at)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    started = time.monotonic()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "harity" / "indexing.py").is_file():
        print(f"perfbench: no harity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = started + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    record = {}
    try:
        if args.trace:
            out = spawn([*common, "--trace"], deadline)
            values = out["metrics"]
            wanted = bench["per_layer"]
            record["inclusive_s"] = out["inclusive_s"]
            record["untraced_busy_s"] = out["plain_busy_s"]
        else:
            setups = [spawn([*common, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
            out = spawn([*common, "--seconds", str(args.seconds)], deadline)
            setups.append(out)
            values = {
                "work_per_s": out["work_per_s"],
                "setup_s": statistics.median(s["setup_s"] for s in setups),
                "peak_rss_mib": out["peak_rss_mib"],
            }
            wanted = bench["end_to_end"]
            record["unscaled_setup_s"] = statistics.median(s["unscaled_setup_s"] for s in setups)
            record["slice_s"] = out["slice_s"]
            record["unscaled_work_per_s"] = out["unscaled_work_per_s"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 1

    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        work_unit=out["work_unit"],
        rounds=out["rounds"],
        operations=out["attempted"],
        failed=out["failed"],
        failed_frac=out["failed"] / out["attempted"],
        work=out["work"],
        busy_s=out["busy_s"],
        failures=out["failures"],
        pinned=out["pinned"],
        nproc=os.cpu_count(),
        python=sys.version.split()[0],
        numpy=out["numpy"],
        commit=git_commit(),
        source_sha256=source_digest(),
        digests=out["digests"],
    )
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
