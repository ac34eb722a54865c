"""Running one job and recording what it emitted.

A job's record is one entry per step that ran: ``[exit code, digest]``,
where the digest is the sha256 (first 16 hex digits) of the file the step
wrote with ``--out``, or of its standard output when it has no ``--out``.
A ``verify`` step records ``[exit code, distance]`` instead, because its
distance is compared with a tolerance, not bit for bit.  A chain stops at
the first step that exits non-zero, as ``a && b && c`` would.

This module imports nothing from decoupler, so run.py, which uses it,
stays out of the measured processes.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
from pathlib import Path

from workloads import Job, hamiltonian_text

# absolute tolerance on verify distances, on top of a relative 1e-6
DISTANCE_ATOL = 1e-9


def resolve(argv: tuple[str, ...], job_dir: Path) -> list[str]:
    return [str(job_dir / a[1:]) if a.startswith("@") else a for a in argv]


def output_path(argv: list[str], job_dir: Path, index: int) -> tuple[Path, bool]:
    """(file the step emits, whether the runner captures it from stdout)."""
    if "--out" in argv:
        return Path(argv[argv.index("--out") + 1]), False
    return job_dir / f"stdout.{index}", True


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def step_record(argv: list[str], code: int, out: Path) -> list:
    if argv[0] == "verify":
        for line in out.read_text().splitlines():
            if line.startswith("distance="):
                return [code, float(line.partition("=")[2])]
        return [code, None]
    return [code, digest(out) if out.exists() else None]


def prepare(job: Job, job_dir: Path) -> None:
    job_dir.mkdir(parents=True, exist_ok=True)
    if job.ham is not None:
        (job_dir / "ham.txt").write_text(hamiltonian_text(*job.ham))


def corrupt_scheme(path: Path, key: str) -> None:
    """Flip one sign of a scheme file, at a place fixed by the job key."""
    lines = path.read_text().split("\n")
    blocks = [i for i, line in enumerate(lines) if line.startswith("rows ")]
    h = int(hashlib.sha256(key.encode()).hexdigest(), 16)
    start = blocks[h % len(blocks)]
    _, n, m = lines[start].split()
    row = start + 1 + (h >> 8) % int(n)
    col = (h >> 32) % int(m)
    cells = list(lines[row])
    cells[col] = "-" if cells[col] == "+" else "+"
    lines[row] = "".join(cells)
    path.write_text("\n".join(lines))


def matches(record: list, reference: list | None) -> bool:
    """Exit codes and digests equal; verify distances within tolerance."""
    if reference is None or len(record) != len(reference):
        return False
    for (code, got), (want_code, want) in zip(record, reference):
        if code != want_code:
            return False
        if isinstance(want, float):
            if got is None or abs(got - want) > DISTANCE_ATOL + 1e-6 * abs(want):
                return False
        elif got != want:
            return False
    return True


def run_process(command: list[str], **popen_args):
    """Run a process to its end; return its exit code and its rusage."""
    proc = subprocess.Popen(command, **popen_args)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:   # interrupted: leave no process behind
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return proc.returncode, usage
