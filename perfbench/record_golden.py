"""Record the golden output digests that every benchmark run checks.

    python3 perfbench/record_golden.py

Runs each workload once, untraced, for every input seed 0..INPUT_SETS-1 and
writes perfbench/golden.json: workload -> input seed -> one SHA-256 per
step. Every step must exit 0. Re-record only when a change is meant to alter
the outputs; the library requires byte-identical outputs otherwise.
"""

from __future__ import annotations

import json
import sys

from run import HERE, fail, run_worker
from workloads import INPUT_SETS, WORKLOADS


def record(workload, seed):
    rec = run_worker(workload, seed, False, "golden-%s-%d" % (workload, seed))
    bad = [s for s in rec["steps"] if s["exit"] != 0]
    if bad:
        sys.stderr.write("".join(s["stderr"] for s in bad))
        fail("%s seed %d: %d steps did not exit 0" % (workload, seed, len(bad)))
    return [s["sha256"] for s in rec["steps"]]


def main():
    golden = {w: {str(s): record(w, s) for s in range(INPUT_SETS)} for w in sorted(WORKLOADS)}
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
