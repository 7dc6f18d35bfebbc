"""Pins every operation's exact result for the pinned seeds.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs every round of each workload once per seed in ``SEEDS`` and writes the
encoded results to references.json.  Run it only at a commit whose results
are known to be right: the benchmark counts every later difference as a
failed operation.
"""

import json
import sys

from worker import REFERENCES, Tally, import_harity, workload_env

SEEDS = (0, 1)  # the default seed and one held out


def main(names):
    import_harity()
    from workloads import ROUNDS, WORKLOADS, build

    pins = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in names or WORKLOADS:
        pins[name] = {}
        for seed in SEEDS:
            tally = Tally(None)
            with workload_env() as env:
                round_ops = build(name, seed, env)
                for r in range(ROUNDS):
                    for op in round_ops(r):
                        tally.run(op)
            if tally.failed:
                sys.exit(f"{name} seed {seed}: {tally.failures}")
            pins[name][str(seed)] = tally.digests
            print(f"{name} seed {seed}: {tally.attempted} operations", file=sys.stderr)
    REFERENCES.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
