"""Regenerate reference.txt: run every job any seed can pick, once, and
record its exit codes, output digests and verify distances.

    python3 perfbench/make_reference.py [--workload NAME ...]

Run it only on a commit whose outputs are known good: a run of the
benchmark counts every job whose outputs differ from this file as failed.
Each run checks the expected exit codes before writing: 0 for every step,
except that a corrupted scheme's check must exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import REFERENCE, ROOT, child_env, load_reference, run_pass
from workloads import WORKLOADS, pool


def expected_codes(job) -> list[int]:
    return [0, 1] if job.corrupt else [0] * len(job.steps)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    reference = load_reference() if REFERENCE.exists() else {}
    env = child_env()
    bad = []
    for workload in args.workload or WORKLOADS:
        jobs = pool(workload)
        wall, out, _ = run_pass(jobs, ROOT / ".bench_work" / f"reference-{os.getpid()}", env)
        print(f"{workload}: {len(out)} of {len(jobs)} jobs in {wall:.1f} s", file=sys.stderr)
        for job, (key, _, record) in zip(jobs, out):
            if [code for code, _ in record] != expected_codes(job):
                bad.append((key, record))
            reference[key] = record
        if len(out) != len(jobs):
            bad.append((workload, "jobs missing from the pass"))
    if bad:
        for item in bad[:20]:
            print("unexpected:", *item, file=sys.stderr)
        return 1
    REFERENCE.write_text("".join(f"{key}\t{json.dumps(reference[key])}\n"
                                 for key in sorted(reference)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
