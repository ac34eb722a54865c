"""Run one pass of jobs in this one process, through decoupler.cli.main(argv).

    python perfbench/worker.py JOBS_JSON RESULT_JSON [SPAN_FILE]

JOBS_JSON holds {"dir": work directory, "jobs": [Job fields, ...]}.  The
worker writes RESULT_JSON with one [key, latency_s, record] per job (see
jobs.py).  With SPAN_FILE it installs the tracer first and writes the spans
there at the end.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from jobs import corrupt_scheme, output_path, prepare, resolve, step_record
from workloads import Job


def _call(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # a traceback: exit 1, as an uncaught exception would
        traceback.print_exc(file=sys.__stderr__)
        return 1


def run_jobs(jobs: list[Job], work_dir: Path, main, tracer=None) -> list:
    results = []
    with open(os.devnull, "w") as devnull:
        for number, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = str(number)
            job_dir = work_dir / str(number)
            prepare(job, job_dir)
            latency, record = 0.0, []
            for index, step in enumerate(job.steps):
                argv = resolve(step, job_dir)
                out, captured = output_path(argv, job_dir, index)
                with open(out if captured else os.devnull, "w") as stdout, \
                        redirect_stdout(stdout), redirect_stderr(devnull):
                    start = time.perf_counter()
                    code = _call(main, argv)
                    latency += time.perf_counter() - start
                record.append(step_record(argv, code, out))
                if index == 0 and job.corrupt and code == 0:
                    corrupt_scheme(job_dir / "scheme.txt", job.key)
                if code != 0:
                    break
            shutil.rmtree(job_dir)
            results.append([job.key, latency, record])
    return results


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    jobs = [Job(j["key"], tuple(map(tuple, j["steps"])),
                tuple(j["ham"]) if j["ham"] else None, j["corrupt"], j["n"])
            for j in spec["jobs"]]
    start = time.perf_counter()
    import decoupler.cli
    import_s = time.perf_counter() - start
    tracer = None
    if len(argv) > 2:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        results = run_jobs(jobs, Path(spec["dir"]), decoupler.cli.main, tracer)
    finally:
        if tracer is not None:
            tracer.dump(Path(argv[2]), import_s)
    Path(argv[1]).write_text(json.dumps({"results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
