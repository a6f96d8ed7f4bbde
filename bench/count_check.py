"""Check that the traced call counts do not depend on the hash seed.

    python3 bench/count_check.py [--seed N] [--workload NAME ...]

Run from the repository root.  For each workload, runs one traced pass
under PYTHONHASHSEED=1 and one under PYTHONHASHSEED=2, with the same
benchmark seed, and compares every ``<module>.<fn>.calls`` count.  Prints
each mismatch and exits 1 if there is one.  The counts are the
machine-independent signal of the benchmark, so a count that moves with
the hash seed is reported here, not hidden by pinning the seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from run import WORKLOADS, Run


def traced_calls(workload: str, seed: int, hash_seed: int) -> dict[str, int]:
    os.environ["PYTHONHASHSEED"] = str(hash_seed)
    run = Run(workload, seed)
    try:
        run.prepare()
        child = run.pass_(0, run.dir / "spans.jsonl")
    finally:
        run.close()
    if not child.ok or child.failed:
        raise SystemExit("%s: traced pass failed under PYTHONHASHSEED=%d"
                         % (workload, hash_seed))
    return {name: value for name, value in child.record["layers"].items()
            if name.endswith(".calls")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS,
                        default=list(WORKLOADS))
    args = parser.parse_args(argv)
    mismatches = 0
    for workload in args.workload:
        first = traced_calls(workload, args.seed, 1)
        second = traced_calls(workload, args.seed, 2)
        diff = sorted(name for name in first if first[name] != second[name])
        for name in diff:
            print("MISMATCH %s %s: %d vs %d"
                  % (workload, name, first[name], second[name]))
        print("%s: %d counts, %d differ" % (workload, len(first), len(diff)),
              flush=True)
        mismatches += len(diff)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
