"""Write bench/expected.json: every workload's answers, at both sizes.

    python3 bench/record_expected.py

Answers are taken from one untraced pass at seed 0.  The seed only orders
each workload's fixed instances, so the record holds at every seed.  A
pass that raised, reported a violation or failed an independent check
(closed-form optima, the OEIS class count, Euler characteristic, oracle
ranks) is refused instead of recorded.
"""

import json
import random
import sys

import run


def main():
    workloads, _ = run.import_library()
    record = {}
    for name in run.WORKLOAD_NAMES:
        record[name] = {}
        for size in ("full", "tiny"):
            wl = workloads.build(name, 0, size)
            p = run.run_pass(workloads, wl)
            wrong = [c for c in wl.checks(p.answers, random.Random(0)) if c[1] != c[2]]
            if p.failed or wrong:
                print(f"refusing to record {name}/{size}: {p.errors} {wrong}", file=sys.stderr)
                return 1
            record[name][size] = p.answers
            print(f"{name}/{size}: {len(p.answers)} answers in {p.cpu_s:.2f} s", file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
